#include "trace/chrome_trace.h"

#include <charconv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace ntier::trace {

namespace {

// Both exporters are written once, as emitters templated on a sink, and
// run twice: over a Counter, which sizes the output exactly, and then
// over a Writer into one allocation of that size. Fixed fragments are
// copied by length, integers go through std::to_chars, and strings are
// escaped or quoted in place, so no record is formatted into a buffer
// of its own first.

// First pass: measures what the Writer will write.
class Counter {
 public:
  void lit(std::string_view s) { n_ += s.size(); }
  void put(char) { ++n_; }
  void num(std::uint64_t v) { n_ += width(v); }
  void num(std::int64_t v) {
    n_ += v < 0 ? 1 + width(0 - static_cast<std::uint64_t>(v))
                : width(static_cast<std::uint64_t>(v));
  }
  std::size_t size() const { return n_; }

 private:
  // Decimal digits in v (std::to_chars writes no leading zeros).
  static std::size_t width(std::uint64_t v) {
    std::size_t n = 1;
    for (; v >= 100; v /= 100) n += 2;
    return v >= 10 ? n + 1 : n;
  }

  std::size_t n_ = 0;
};

// Second pass: fills the buffer the Counter sized. Every write is
// checked against the end of the buffer, in release builds too, so a
// miscount throws instead of writing out of bounds.
class Writer {
 public:
  explicit Writer(std::string& out)
      : p_(out.data()), end_(out.data() + out.size()) {}

  void lit(std::string_view s) {
    if (s.empty()) return;  // an empty site's view has no data pointer
    room(s.size());
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  void put(char c) {
    room(1);
    *p_++ = c;
  }
  void num(std::uint64_t v) { to_chars(v); }
  void num(std::int64_t v) { to_chars(v); }

  // Throws unless the buffer was filled exactly.
  void finish() const {
    if (p_ != end_) miscount();
  }

 private:
  template <typename Int>
  void to_chars(Int v) {
    const auto r = std::to_chars(p_, end_, v);
    if (r.ec != std::errc()) miscount();
    p_ = r.ptr;
  }
  void room(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n) miscount();
  }
  [[noreturn]] static void miscount() {
    throw std::logic_error("trace export: output does not match its measured size");
  }

  char* p_;
  char* end_;
};

// `s` as the body of a JSON string: quotes, backslashes and control
// bytes escaped, everything else (including UTF-8) copied as is.
template <typename Sink>
void json_escaped(Sink& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool plain = c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
    if (plain) continue;
    out.lit(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out.lit("\\\""); break;
      case '\\': out.lit("\\\\"); break;
      case '\n': out.lit("\\n"); break;
      case '\t': out.lit("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf], kHex[c & 0xf]};
        out.lit(std::string_view(u, sizeof u));
      }
    }
  }
  out.lit(s.substr(run));
}

// `s` as one CSV field: verbatim unless it holds a comma, quote, CR or
// LF, in which case it is quoted with inner quotes doubled (RFC 4180).
template <typename Sink>
void csv_field(Sink& out, std::string_view s) {
  if (s.find_first_of(",\"\r\n") == std::string_view::npos) {
    out.lit(s);
    return;
  }
  out.put('"');
  for (const char c : s) {
    if (c == '"') out.put('"');
    out.put(c);
  }
  out.put('"');
}

std::int64_t parent_id(const Span& s) {
  return s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent);
}

template <typename Sink>
void emit_json(Sink& w, const TraceList& traces) {
  w.lit("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  w.lit(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ntier\"}}");
  for (const auto& t : traces) {
    if (!t || t->empty()) continue;
    const std::uint64_t rid = t->request_id();
    w.lit(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    w.num(rid);
    w.lit(",\"args\":{\"name\":\"request ");
    w.num(rid);
    w.lit("\"}}");
    const std::vector<Span>& spans = t->spans();
    for (std::uint64_t id = 0; id < spans.size(); ++id) {
      const Span& s = spans[id];
      const std::string_view kind = to_string(s.kind);
      const std::int64_t dur = s.duration().count_micros();
      const bool complete = s.closed() && dur > 0;
      w.lit(",\n{\"name\":\"");
      w.lit(kind);
      w.put(' ');
      json_escaped(w, s.site.view());
      w.lit("\",\"cat\":\"");
      w.lit(kind);
      w.lit(complete ? "\",\"ph\":\"X\",\"ts\":" : "\",\"ph\":\"i\",\"ts\":");
      w.num(s.begin.count_micros());
      if (complete) {
        w.lit(",\"dur\":");
        w.num(dur);
        w.lit(",\"pid\":1,\"tid\":");
      } else {
        w.lit(",\"s\":\"t\",\"pid\":1,\"tid\":");
      }
      w.num(rid);
      w.lit(",\"args\":{\"span\":");
      w.num(id);
      w.lit(",\"parent\":");
      w.num(parent_id(s));
      w.lit(",\"detail\":");
      w.num(std::int64_t{s.detail});
      if (complete) {
        w.lit("}}");
      } else {
        w.lit(s.closed() ? ",\"closed\":true}}" : ",\"closed\":false}}");
      }
    }
  }
  w.lit("\n]}\n");
}

template <typename Sink>
void emit_csv(Sink& w, const TraceList& traces) {
  w.lit(
      "request_id,span_id,parent_id,kind,site,begin_us,end_us,duration_us,"
      "detail,closed\n");
  for (const auto& t : traces) {
    if (!t) continue;
    const std::vector<Span>& spans = t->spans();
    for (std::uint64_t id = 0; id < spans.size(); ++id) {
      const Span& s = spans[id];
      w.num(t->request_id());
      w.put(',');
      w.num(id);
      w.put(',');
      w.num(parent_id(s));
      w.put(',');
      w.lit(to_string(s.kind));
      w.put(',');
      csv_field(w, s.site.view());
      w.put(',');
      w.num(s.begin.count_micros());
      w.put(',');
      w.num(s.end.count_micros());
      w.put(',');
      w.num(s.duration().count_micros());
      w.put(',');
      w.num(std::int64_t{s.detail});
      w.lit(s.closed() ? ",1\n" : ",0\n");
    }
  }
}

// Runs `emit` over a Counter, then over a Writer into one string of
// exactly the counted size: the export's only allocation.
template <typename Emit>
std::string exact_size(const Emit& emit) {
  Counter count;
  emit(count);
  std::string out(count.size(), '\0');
  Writer w(out);
  emit(w);
  w.finish();
  return out;
}

}  // namespace

std::string chrome_trace_json(const TraceList& traces) {
  return exact_size([&traces](auto& sink) { emit_json(sink, traces); });
}

std::string spans_csv(const TraceList& traces) {
  return exact_size([&traces](auto& sink) { emit_csv(sink, traces); });
}

}  // namespace ntier::trace
