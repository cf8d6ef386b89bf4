// Tests of the per-request tracing layer: span-tree well-formedness,
// RTO-gap attribution, critical-path exactness, sampling modes, the
// determinism / non-perturbation guarantees (DESIGN.md invariant 10),
// byte identity of the exporters against a printf reference, the site
// intern table, and what recording and exporting allocate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_counter.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "obs/flight_recorder.h"
#include "obs/incident_monitor.h"
#include "trace/chrome_trace.h"
#include "trace/critical_path.h"
#include "trace/span.h"
#include "trace/tracer.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;
using trace::intern_site;
using trace::RequestTrace;
using trace::SpanKind;

// --- RequestTrace / Tracer unit behavior -----------------------------------

TEST(RequestTrace, IdsAreAllocationOrderAndCloseIsIdempotent) {
  RequestTrace t(7);
  const auto root = t.open(SpanKind::kRequest, intern_site("client"),
                           trace::kNoSpan, Time::from_seconds(0.0));
  const auto hop = t.open(SpanKind::kHop, intern_site("apache"), root,
                          Time::from_seconds(0.001));
  EXPECT_EQ(root, 0u);
  EXPECT_EQ(hop, 1u);
  EXPECT_EQ(t.spans()[hop].parent, root);
  t.close(hop, Time::from_seconds(0.005));
  t.close(hop, Time::from_seconds(9.0));  // ignored: already closed
  EXPECT_EQ(t.spans()[hop].end, Time::from_seconds(0.005));
  t.close(root, Time::from_seconds(0.006));
  EXPECT_EQ(t.total(), Duration::millis(6));
  const auto drop = t.instant(SpanKind::kDrop, intern_site("mysql"), hop,
                              Time::from_seconds(0.002), /*detail=*/0);
  EXPECT_TRUE(t.spans()[drop].closed());
  EXPECT_EQ(t.spans()[drop].duration(), Duration::zero());
}

TEST(RequestTrace, OpenAllocatesNothingWhileTheVectorHasRoom) {
  const trace::Site client = intern_site("client");
  const trace::Site hop = intern_site("apache");
  RequestTrace t(1);
  const auto& spans = t.spans();
  std::size_t grew = 0;
  for (int i = 0; i < 100; ++i) {
    const bool room = spans.size() < spans.capacity();
    const std::uint64_t n0 = test::allocations();
    if (i == 0) {
      t.open(SpanKind::kRequest, client, trace::kNoSpan, Time::from_micros(0));
    } else if (i % 3 == 0) {
      t.instant(SpanKind::kDrop, hop, 0, Time::from_micros(i));
    } else {
      t.add(SpanKind::kService, hop, 0, Time::from_micros(i), Time::from_micros(i + 1));
    }
    const std::uint64_t made = test::allocations() - n0;
    if (room) {
      EXPECT_EQ(made, 0u) << "span " << i;
    } else {
      EXPECT_EQ(made, 1u) << "span " << i;  // the vector's own regrowth
      ++grew;
    }
  }
  EXPECT_EQ(spans.size(), 100u);
  EXPECT_LE(grew, 8u);
  // Settled and trimmed, as Tracer::finish leaves it: no room is left,
  // so a late span regrows the vector once, by exactly one slot.
  t.close(0, Time::from_micros(150));
  t.shrink_to_fit();
  EXPECT_EQ(spans.capacity(), spans.size());
  const std::uint64_t n0 = test::allocations();
  t.instant(SpanKind::kHedge, hop, 0, Time::from_micros(200));
  EXPECT_EQ(test::allocations() - n0, 1u);
  EXPECT_EQ(spans.capacity(), spans.size());
}

TEST(SiteTable, InterningIsStableAndSharedAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kNames = 200;
  // Every thread interns the same kNames shared names (each starting at
  // a different offset, so threads collide on fresh names) and kNames of
  // its own, several rounds over.
  struct Seen {
    std::vector<trace::Site> shared, own;
    std::vector<const char*> shared_data;
  };
  std::vector<Seen> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &out = seen[t]] {
      out.shared.resize(kNames);
      out.shared_data.resize(kNames);
      out.own.resize(kNames);
      for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < kNames; ++k) {
          const int i = (k + t * kNames / kThreads) % kNames;
          const trace::Site s = intern_site("svc" + std::to_string(i) + "->db");
          if (round > 0) {
            EXPECT_TRUE(s == out.shared[i]);
          }
          out.shared[i] = s;
          if (round == 0) out.shared_data[i] = s.view().data();
          out.own[k] = intern_site("t" + std::to_string(t) + ":" + std::to_string(k));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<const char*> distinct;
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "svc" + std::to_string(i) + "->db";
    const trace::Site main = intern_site(name);
    EXPECT_EQ(main.view(), name);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(seen[t].shared[i] == main) << name << " thread " << t;
      EXPECT_EQ(seen[t].shared_data[i], main.view().data()) << "moved: " << name;
      EXPECT_EQ(seen[t].own[i].view(), "t" + std::to_string(t) + ":" + std::to_string(i));
      distinct.insert(seen[t].own[i].view().data());
    }
    distinct.insert(main.view().data());
  }
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kNames * (kThreads + 1)));
  EXPECT_TRUE(intern_site("") == trace::Site());
  EXPECT_EQ(trace::Site().view(), "");
}

TEST(Tracer, OffModeTracesNothing) {
  trace::Tracer tracer({.mode = trace::TraceMode::kOff});
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.begin(1), nullptr);
  EXPECT_EQ(tracer.begun(), 0u);
}

TEST(Tracer, SampledModeIsDeterministicOneInN) {
  trace::TraceConfig cfg;
  cfg.mode = trace::TraceMode::kSampled;
  cfg.sample_every_n = 10;
  trace::Tracer tracer(cfg);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const auto t = tracer.begin(id);
    EXPECT_EQ(t != nullptr, id % 10 == 1) << "id " << id;
  }
  EXPECT_EQ(tracer.begun(), 4u);
}

TEST(Tracer, MaxTracesCapDropsButCounts) {
  trace::TraceConfig cfg;
  cfg.mode = trace::TraceMode::kAll;
  cfg.max_traces = 2;
  trace::Tracer tracer(cfg);
  const trace::Site client = intern_site("client");
  std::vector<trace::TracePtr> dropped;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    auto t = tracer.begin(id);
    ASSERT_NE(t, nullptr);
    t->open(SpanKind::kRequest, client, trace::kNoSpan, Time::from_seconds(0));
    t->instant(SpanKind::kDrop, client, 0, Time::from_seconds(0));
    t->instant(SpanKind::kHedge, client, 0, Time::from_seconds(0));
    t->close(0, Time::from_seconds(1));
    ASSERT_GT(t->spans().capacity(), t->spans().size());  // 3 spans, room for 4
    tracer.finish(t, Duration::seconds(1));
    if (id > 2) dropped.push_back(t);
  }
  EXPECT_EQ(tracer.retained(), 2u);
  EXPECT_EQ(tracer.dropped_by_cap(), 3u);
  // Retained trees are stored at their exact size; trees dropped at
  // finish are left as they were (nothing outlives the request there).
  for (const auto& t : tracer.traces())
    EXPECT_EQ(t->spans().capacity(), t->spans().size());
  for (const auto& t : dropped) EXPECT_GT(t->spans().capacity(), t->spans().size());

  // With a finish hook every tree may outlive the call, so every tree is
  // trimmed before the hook sees it — the cap-dropped ones too.
  trace::Tracer hooked(cfg);
  std::size_t exact_in_hook = 0;
  hooked.set_finish_hook([&](const trace::TracePtr& t, Duration) {
    if (t->spans().capacity() == t->spans().size()) ++exact_in_hook;
  });
  for (std::uint64_t id = 1; id <= 5; ++id) {
    auto t = hooked.begin(id);
    t->open(SpanKind::kRequest, client, trace::kNoSpan, Time::from_seconds(0));
    t->instant(SpanKind::kDrop, client, 0, Time::from_seconds(0));
    t->instant(SpanKind::kHedge, client, 0, Time::from_seconds(0));
    t->close(0, Time::from_seconds(1));
    hooked.finish(t, Duration::seconds(1));
  }
  EXPECT_EQ(exact_in_hook, 5u);
  EXPECT_EQ(hooked.dropped_by_cap(), 3u);
}

TEST(CriticalPath, ChargesEveryMicrosecondExactlyOnce) {
  RequestTrace t(1);
  const auto root = t.open(SpanKind::kRequest, intern_site("client"),
                           trace::kNoSpan, Time::from_micros(0));
  const auto hop =
      t.open(SpanKind::kHop, intern_site("apache"), root, Time::from_micros(10));
  t.add(SpanKind::kService, intern_site("apache"), hop, Time::from_micros(20),
        Time::from_micros(50));
  // Overlapping sibling (hedge-style): overlap is charged to the earlier
  // span, the later one takes over after it ends.
  t.add(SpanKind::kDisk, intern_site("apache"), hop, Time::from_micros(40),
        Time::from_micros(70));
  t.close(hop, Time::from_micros(90));
  t.close(root, Time::from_micros(100));

  const auto cp = trace::critical_path(t);
  EXPECT_EQ(cp.total, Duration::micros(100));
  Duration sum = Duration::zero();
  for (const auto& item : cp.items) sum = sum + item.time;
  EXPECT_EQ(sum, cp.total);  // exact, not approximate
  EXPECT_EQ(cp.by_kind(SpanKind::kService), Duration::micros(30));  // 20..50
  EXPECT_EQ(cp.by_kind(SpanKind::kDisk), Duration::micros(20));     // 50..70
  EXPECT_EQ(cp.by_kind(SpanKind::kHop),
            Duration::micros(10 + 20));  // 10..20 and 70..90
  EXPECT_EQ(cp.by_kind(SpanKind::kRequest),
            Duration::micros(10 + 10));  // 0..10 and 90..100
}

// --- exporter oracle --------------------------------------------------------

// The printf formatter the exporters replaced, kept as a reference. Each
// record is sized by a first vsnprintf pass, so a long site is never cut
// off, and the CSV site follows the same RFC 4180 quoting rule.
std::string ref_format(const char* fmt, ...) {
  va_list ap;
  va_list ap2;
  va_start(ap, fmt);
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string s(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
  va_end(ap2);
  return s;
}

std::string ref_json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ref_format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ref_csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

std::int64_t ref_parent(const trace::Span& s) {
  return s.parent == trace::kNoSpan ? -1 : static_cast<std::int64_t>(s.parent);
}

std::string ref_chrome_trace_json(const trace::TraceList& traces) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ntier\"}}";
  for (const auto& t : traces) {
    if (!t || t->empty()) continue;
    const std::uint64_t rid = t->request_id();
    out += ref_format(
        ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":%" PRIu64 ",\"args\":{\"name\":\"request %" PRIu64 "\"}}",
        rid, rid);
    const auto& spans = t->spans();
    for (std::uint64_t id = 0; id < spans.size(); ++id) {
      const trace::Span& s = spans[id];
      const std::string name = std::string(trace::to_string(s.kind)) + " " +
                               ref_json_escape(std::string(s.site.view()));
      const std::int64_t ts = s.begin.count_micros();
      const std::int64_t dur = s.duration().count_micros();
      if (s.closed() && dur > 0) {
        out += ref_format(
            ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRId64
            ",\"dur\":%" PRId64 ",\"pid\":1,\"tid\":%" PRIu64
            ",\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRId64
            ",\"detail\":%d}}",
            name.c_str(), trace::to_string(s.kind), ts, dur, rid, id,
            ref_parent(s), s.detail);
      } else {
        out += ref_format(
            ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%" PRId64
            ",\"s\":\"t\",\"pid\":1,\"tid\":%" PRIu64
            ",\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRId64
            ",\"detail\":%d,\"closed\":%s}}",
            name.c_str(), trace::to_string(s.kind), ts, rid, id,
            ref_parent(s), s.detail, s.closed() ? "true" : "false");
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::string ref_spans_csv(const trace::TraceList& traces) {
  std::string out =
      "request_id,span_id,parent_id,kind,site,begin_us,end_us,duration_us,"
      "detail,closed\n";
  for (const auto& t : traces) {
    if (!t) continue;
    const auto& spans = t->spans();
    for (std::uint64_t id = 0; id < spans.size(); ++id) {
      const trace::Span& s = spans[id];
      out += ref_format("%" PRIu64 ",%" PRIu64 ",%" PRId64 ",%s,%s,%" PRId64
                        ",%" PRId64 ",%" PRId64 ",%d,%d\n",
                        t->request_id(), id, ref_parent(s),
                        trace::to_string(s.kind),
                        ref_csv_field(std::string(s.site.view())).c_str(),
                        s.begin.count_micros(),
                        s.end.count_micros(), s.duration().count_micros(),
                        s.detail, s.closed() ? 1 : 0);
    }
  }
  return out;
}

void expect_matches_reference(const trace::TraceList& traces) {
  EXPECT_EQ(trace::chrome_trace_json(traces), ref_chrome_trace_json(traces));
  EXPECT_EQ(trace::spans_csv(traces), ref_spans_csv(traces));
}

// Minimal JSON reader for the exporter's output: objects, arrays,
// strings, integers and literals, nothing after the top-level value. It
// collects the decoded string value of every "name" key.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool parse() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

  std::vector<std::string> names;

 private:
  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void ws() {
    while (at(' ') || at('\n') || at('\t') || at('\r')) ++i_;
  }
  bool word(std::string_view w) {
    if (s_.substr(i_, w.size()) != w) return false;
    i_ += w.size();
    return true;
  }
  bool value() {
    std::string ignored;
    if (at('{')) return object();
    if (at('[')) return array();
    if (at('"')) return string(ignored);
    if (at('t')) return word("true");
    if (at('f')) return word("false");
    if (at('n')) return word("null");
    return number();
  }
  bool number() {
    const std::size_t start = i_;
    if (at('-')) ++i_;
    const std::size_t digits = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > digits && i_ > start;
  }
  bool array() {
    ++i_;
    ws();
    if (at(']')) return ++i_, true;
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (at(']')) return ++i_, true;
      if (!at(',')) return false;
      ++i_;
    }
  }
  bool object() {
    ++i_;
    ws();
    if (at('}')) return ++i_, true;
    for (;;) {
      std::string key;
      ws();
      if (!string(key)) return false;
      ws();
      if (!at(':')) return false;
      ++i_;
      ws();
      if (key == "name" && at('"')) {
        std::string v;
        if (!string(v)) return false;
        names.push_back(std::move(v));
      } else if (!value()) {
        return false;
      }
      ws();
      if (at('}')) return ++i_, true;
      if (!at(',')) return false;
      ++i_;
    }
  }
  bool string(std::string& out) {
    if (!at('"')) return false;
    ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      switch (s_[i_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          const unsigned long cp =
              std::stoul(std::string(s_.substr(i_, 4)), nullptr, 16);
          if (cp >= 0x80) return false;  // the exporter escapes ASCII only
          out += static_cast<char>(cp);
          i_ += 4;
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

// RFC 4180 reader: one vector of fields per record.
std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        field += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else {
      field += c;
    }
  }
  EXPECT_FALSE(quoted) << "unterminated quoted field";
  EXPECT_TRUE(row.empty() && field.empty()) << "last record lacks its newline";
  return rows;
}

// One trace holding every record shape the exporters emit.
trace::TracePtr every_shape_trace(std::uint64_t id,
                                  const std::vector<std::string>& sites) {
  trace::TracePtr t = trace::trace_pool().make(id);
  const auto root = t->open(SpanKind::kRequest, intern_site("client"),
                            trace::kNoSpan, Time::from_micros(1000));
  const auto hop = t->add(SpanKind::kHop, intern_site("apache"), root,
                          Time::from_micros(1010), Time::from_micros(4500),
                          /*detail=*/7);
  t->add(SpanKind::kRtoGap, intern_site("client->apache"), root,
         Time::from_micros(1000), Time::from_micros(3001000), /*detail=*/1);
  t->instant(SpanKind::kDrop, intern_site("apache"), hop, Time::from_micros(1020),
             /*detail=*/2);
  t->add(SpanKind::kService, intern_site("apache"), hop, Time::from_micros(2000),
         Time::from_micros(2000));  // closed, zero length
  t->open(SpanKind::kDownstream, intern_site("apache->tomcat"), hop,
          Time::from_micros(2500));  // never closed
  for (const auto& site : sites)
    t->add(SpanKind::kPoolQueue, intern_site(site), hop, Time::from_micros(3000),
           Time::from_micros(3100), /*detail=*/-3);
  t->close(root, Time::from_micros(9000));
  return t;
}

TEST(TraceExport, MatchesPrintfReferenceOnHandBuiltTraces) {
  const std::vector<std::string> odd_sites = {
      "say \"hi\"", "back\\slash", "line\nbreak", "tab\there",
      "ctl\x01" "byte", "c,d", "cr\rlf", "q\"uo,te"};
  trace::TraceList traces;
  traces.push_back(every_shape_trace(11, {}));
  traces.push_back(nullptr);
  traces.push_back(trace::trace_pool().make(std::uint64_t{12}));  // empty: skipped
  traces.push_back(every_shape_trace(18446744073709551615ull, odd_sites));
  expect_matches_reference(traces);

  const std::string json = trace::chrome_trace_json(traces);
  // One thread_name record per non-empty trace.
  std::size_t threads = 0;
  for (auto p = json.find("thread_name"); p != std::string::npos;
       p = json.find("thread_name", p + 1))
    ++threads;
  EXPECT_EQ(threads, 2u);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":1010,\"dur\":3490,"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"service apache\",\"cat\":\"service\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"parent\":-1,\"detail\":0}}"), std::string::npos);
  EXPECT_NE(json.find("\"closed\":false}}"), std::string::npos);
  EXPECT_NE(json.find("\"detail\":2,\"closed\":true}}"), std::string::npos);

  JsonReader reader(json);
  ASSERT_TRUE(reader.parse());
  for (const auto& site : odd_sites)
    EXPECT_EQ(std::count(reader.names.begin(), reader.names.end(),
                         "pool_queue " + site),
              1)
        << site;
}

TEST(TraceExport, LongSiteIsExportedInFull) {
  std::string site;
  while (site.size() < 640) site += "svc-\"segment\"\\";
  trace::TraceList traces;
  traces.push_back(every_shape_trace(5, {site}));
  expect_matches_reference(traces);

  const std::string json = trace::chrome_trace_json(traces);
  JsonReader reader(json);
  ASSERT_TRUE(reader.parse());
  EXPECT_EQ(std::count(reader.names.begin(), reader.names.end(),
                       "pool_queue " + site),
            1);

  const auto rows = parse_csv(trace::spans_csv(traces));
  ASSERT_EQ(rows.size(), 1u + traces.front()->spans().size());
  EXPECT_EQ(rows.back().size(), 10u);
  EXPECT_EQ(rows.back()[4], site);
  EXPECT_EQ(rows.back()[9], "1");
}

TEST(TraceExport, CsvQuotesOnlySitesThatNeedIt) {
  const std::vector<std::string> sites = {"c,d", "q\"t", "cr\r", "lf\n",
                                          "plain:pool"};
  trace::TraceList traces;
  traces.push_back(every_shape_trace(3, sites));
  const std::string csv = trace::spans_csv(traces);
  EXPECT_NE(csv.find(",pool_queue,plain:pool,"), std::string::npos);
  EXPECT_NE(csv.find(",pool_queue,\"c,d\","), std::string::npos);
  EXPECT_NE(csv.find(",pool_queue,\"q\"\"t\","), std::string::npos);
  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 1u + traces.front()->spans().size());
  for (const auto& row : rows) EXPECT_EQ(row.size(), 10u);
  for (std::size_t i = 0; i < sites.size(); ++i)
    EXPECT_EQ(rows[rows.size() - sites.size() + i][4], sites[i]);
}

// --- full-system runs -------------------------------------------------------

// Fig 3 consolidation scenario cut to one burst + recovery: still drives
// CTQO at the web tier (drops, RTO gaps, VLRTs) but runs in ~1 s.
core::ExperimentConfig traced_fig3(trace::TraceMode mode) {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.duration = Duration::seconds(12);
  cfg.trace.mode = mode;
  return cfg;
}

// One shared kAll run for the read-only assertions below.
core::NTierSystem& all_run() {
  static const std::unique_ptr<core::NTierSystem> sys =
      core::run_system(traced_fig3(trace::TraceMode::kAll));
  return *sys;
}

TEST(TraceSystem, SpanTreesAreWellFormedAcrossThreeTiers) {
  const auto& sys = all_run();
  ASSERT_NE(sys.tracer(), nullptr);
  ASSERT_GT(sys.tracer()->retained(), 0u);
  bool saw_three_tier_chain = false;
  for (const auto& t : sys.tracer()->traces()) {
    ASSERT_NE(t, nullptr);
    ASSERT_FALSE(t->empty());
    const auto& spans = t->spans();
    // Retained trees are stored at their exact size (no growth slack).
    EXPECT_EQ(spans.capacity(), spans.size()) << "request " << t->request_id();
    EXPECT_EQ(spans.front().kind, SpanKind::kRequest);
    EXPECT_EQ(spans.front().parent, trace::kNoSpan);
    EXPECT_TRUE(spans.front().closed());  // finished requests only
    std::set<std::string> hops;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (i == 0) continue;
      ASSERT_LT(s.parent, i) << "parents precede children";
      EXPECT_GE(s.begin, spans.front().begin);
      if (s.closed()) {
        EXPECT_GE(s.end, s.begin);
      }
      if (s.kind == SpanKind::kHop) hops.insert(std::string(s.site.view()));
    }
    if (hops.count("apache") && hops.count("tomcat") && hops.count("mysql"))
      saw_three_tier_chain = true;
  }
  EXPECT_TRUE(saw_three_tier_chain);
}

TEST(TraceSystem, RtoGapSpansMatchTheRetransmissionSpacing) {
  const auto& sys = all_run();
  // fig 3 uses the paper's fixed 3 s retransmission spacing, so every
  // recorded RTO gap must be exactly one 3 s wait, numbered from 1.
  std::size_t gaps = 0;
  for (const auto& t : sys.tracer()->traces()) {
    for (const auto& s : t->spans()) {
      if (s.kind != SpanKind::kRtoGap) continue;
      ++gaps;
      // Normal requests show no RTO wait: a gap makes the request a VLRT.
      EXPECT_GE(t->total(), Duration::seconds(3));
      EXPECT_EQ(s.duration(), Duration::seconds(3));
      EXPECT_GE(s.detail, 1);  // retransmission attempt number
    }
  }
  EXPECT_GT(gaps, 0u) << "the consolidation burst must cause drops";
}

TEST(TraceSystem, CriticalPathSumEqualsEndToEndLatency) {
  const auto& sys = all_run();
  for (const auto& t : sys.tracer()->traces()) {
    const auto cp = trace::critical_path(*t);
    EXPECT_EQ(cp.total, t->total());
    Duration sum = Duration::zero();
    for (const auto& item : cp.items) sum = sum + item.time;
    EXPECT_EQ(sum, cp.total) << "request " << t->request_id();
  }
}

TEST(TraceSystem, VlrtAttributionNamesTheDropTier) {
  auto& sys = all_run();
  const auto report = core::analyze_ctqo(sys);
  const auto table = core::attribute_vlrt(sys.tracer()->traces(), report);
  ASSERT_FALSE(table.rows.empty());
  for (const auto& row : table.rows) {
    EXPECT_GE(row.latency, Duration::seconds(3));
    // The paper's signature: a VLRT is retransmission wait, not work.
    EXPECT_EQ(row.dominant.kind, SpanKind::kRtoGap);
    EXPECT_GE(row.rto_share, 0.9);
    EXPECT_FALSE(row.drop_tier.empty());
  }
}

TEST(TraceSystem, VlrtOnlySamplingKeepsNonVlrtOut) {
  // With the flight recorder on (in memory only), the finish hook sees
  // every tree, discarded ones included.
  auto cfg = traced_fig3(trace::TraceMode::kVlrtOnly);
  cfg.obs.enabled = true;
  cfg.obs.max_dumps = 0;
  const auto sys = core::run_system(cfg);
  ASSERT_NE(sys->tracer(), nullptr);
  const auto& tracer = *sys->tracer();
  ASSERT_GT(tracer.retained(), 0u);
  for (const auto& t : tracer.traces()) {
    EXPECT_GE(t->total(), tracer.config().vlrt_threshold);
    EXPECT_EQ(t->spans().capacity(), t->spans().size());
  }
  // Most traffic is sub-second; tail sampling must discard it.
  EXPECT_GT(tracer.discarded(), 0u);
  EXPECT_LT(tracer.retained(), tracer.begun());
  // The ring holds discarded trees too, each at its exact size.
  ASSERT_NE(sys->obs(), nullptr);
  const auto* ring = sys->obs()->recorder();
  ASSERT_NE(ring, nullptr);
  const auto held = ring->window_snapshot(Time::origin(), Time::max());
  EXPECT_EQ(held.size(), ring->size());
  EXPECT_GT(held.size(), tracer.retained());
  for (const auto& t : held)
    EXPECT_EQ(t->spans().capacity(), t->spans().size()) << "request " << t->request_id();
}

TEST(TraceSystem, LateSpansKeepRetainedStorageNearExactSize) {
  // Hedged duplicates and client timeouts settle a request while other
  // copies are still in the tiers; their spans land in the tree after
  // Tracer::finish trimmed it. Such late spans grow the tree one span at
  // a time, so retained storage stays at the spans it holds.
  auto cfg = traced_fig3(trace::TraceMode::kAll);
  cfg.workload.client_timeout = Duration::seconds(3);
  cfg.workload.client_policy =
      core::scenarios::make_tail_policy(core::scenarios::TailPolicyChoice::kDeadlineHedge);
  cfg.workload.client_policy.deadline = Duration::zero();  // time out instead
  core::validate(cfg);
  core::NTierSystem sys(cfg);
  std::unordered_map<std::uint64_t, std::size_t> at_finish;
  sys.tracer()->set_finish_hook([&](const trace::TracePtr& t, Duration) {
    at_finish[t->request_id()] = t->spans().size();
  });
  sys.run();
  ASSERT_GT(sys.clients().timeouts(), 0u);
  ASSERT_GT(sys.clients().governor()->stats().hedges, 0u);
  std::size_t spans = 0, capacity = 0, late_trees = 0, late_spans = 0;
  for (const auto& t : sys.tracer()->traces()) {
    const std::size_t n = t->spans().size();
    spans += n;
    capacity += t->spans().capacity();
    const std::size_t finished = at_finish.at(t->request_id());
    if (n > finished) {
      ++late_trees;
      late_spans += n - finished;
    }
  }
  EXPECT_GT(late_spans, 0u) << "the config must exercise appends after finish";
  EXPECT_LE(static_cast<double>(capacity), 1.05 * static_cast<double>(spans))
      << late_spans << " late spans in " << late_trees << " of "
      << sys.tracer()->retained() << " trees";
}

TEST(TraceSystem, SameSeedRunsEmitByteIdenticalExports) {
  const auto a = core::run_system(traced_fig3(trace::TraceMode::kVlrtOnly));
  const auto b = core::run_system(traced_fig3(trace::TraceMode::kVlrtOnly));
  EXPECT_EQ(trace::chrome_trace_json(a->tracer()->traces()),
            trace::chrome_trace_json(b->tracer()->traces()));
  EXPECT_EQ(trace::spans_csv(a->tracer()->traces()),
            trace::spans_csv(b->tracer()->traces()));
}

TEST(TraceSystem, ExportsMatchPrintfReference) {
  expect_matches_reference(all_run().tracer()->traces());
}

// The diamond service graph with a freezing db: fan-out, fan-in, drops
// and RTO gaps at the front, all traced.
std::string diamond_text(const std::string& mid) {
  return "graph diamond\nseed 7\nsessions 3000\nduration 12s\n"
         "node front kind=sync threads=150 work=cpu:60us,down,cpu:60us\n"
         "node " + mid + " kind=sync threads=120 work=cpu:80us,down,cpu:40us\n"
         "node ads kind=sync threads=120 work=cpu:80us,down,cpu:40us\n"
         "node db kind=sync threads=100 work=cpu:500us\n"
         "edge front " + mid + "\nedge front ads\nedge " + mid + " db\n"
         "edge ads db\nfreeze db first=8s period=12s pause=900ms\n";
}

std::unique_ptr<graph::GraphSystem> traced_diamond(const std::string& mid) {
  auto cfg = graph::parse_topology(diamond_text(mid));
  cfg.trace.mode = trace::TraceMode::kAll;
  auto sys = std::make_unique<graph::GraphSystem>(std::move(cfg));
  sys->run();
  return sys;
}

TEST(TraceSystem, GraphExportsMatchPrintfReference) {
  const auto sys = traced_diamond("catalog");
  ASSERT_GT(sys->total_drops(), 0u);
  expect_matches_reference(sys->tracer()->traces());
}

TEST(TraceSystem, EachExportIsOneExactSizeAllocation) {
  const auto sys = traced_diamond("catalog");
  const auto& traces = sys->tracer()->traces();
  std::uint64_t n0 = test::allocations();
  const std::string json = trace::chrome_trace_json(traces);
  EXPECT_EQ(test::allocations() - n0, 1u);
  n0 = test::allocations();
  const std::string csv = trace::spans_csv(traces);
  EXPECT_EQ(test::allocations() - n0, 1u);
  EXPECT_GT(json.size(), 1000000u);
  EXPECT_GT(csv.size(), 1000000u);
}

TEST(TraceSystem, CommaInANodeNameKeepsTenCsvFields) {
  const auto sys = traced_diamond("c,d");
  const auto& traces = sys->tracer()->traces();
  const auto rows = parse_csv(trace::spans_csv(traces));
  std::size_t spans = 0;
  for (const auto& t : traces) spans += t->spans().size();
  ASSERT_EQ(rows.size(), 1u + spans);
  std::size_t comma_sites = 0;
  for (const auto& row : rows) {
    ASSERT_EQ(row.size(), 10u);
    if (row[4].find(',') != std::string::npos) ++comma_sites;
  }
  EXPECT_GT(comma_sites, 0u);
  const std::string json = trace::chrome_trace_json(traces);
  JsonReader reader(json);
  EXPECT_TRUE(reader.parse());
}

TEST(TraceSystem, TracingDoesNotPerturbTheSimulation) {
  auto off = traced_fig3(trace::TraceMode::kOff);
  auto sys_off = core::run_system(off);
  auto& sys_all = all_run();  // same config, tracing on
  // Tracing schedules no events and draws no randomness, so every
  // latency artifact must be identical with it on or off.
  EXPECT_EQ(sys_off->latency().completed(), sys_all.latency().completed());
  EXPECT_EQ(sys_off->latency().vlrt_count(), sys_all.latency().vlrt_count());
  EXPECT_EQ(sys_off->latency().dropped_request_count(),
            sys_all.latency().dropped_request_count());
  EXPECT_EQ(core::summarize(*sys_off).to_string(),
            core::summarize(sys_all).to_string());
}

}  // namespace
}  // namespace ntier
