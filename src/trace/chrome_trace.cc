#include "trace/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace ntier::trace {

namespace {

// Appends to a std::string through a raw cursor: fixed fragments are
// copied by length, integers go through std::to_chars, and strings are
// escaped or quoted in place, so no record is formatted into a buffer
// of its own first. The string is grown ahead of the cursor in kChunk
// steps that stop at its capacity, so its capacity goes through the
// same doubling sequence as with += (the allocator sees the same block
// sizes), and at most one chunk past the output is ever touched; done()
// trims the slack.
class Writer {
 public:
  explicit Writer(std::string& out)
      : out_(out), p_(out.data() + out.size()), end_(p_) {}

  void lit(std::string_view s) {
    room(s.size());
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }

  void num(std::int64_t v) {
    room(kMaxDigits);
    p_ = std::to_chars(p_, p_ + kMaxDigits, v).ptr;
  }

  void num(std::uint64_t v) {
    room(kMaxDigits);
    p_ = std::to_chars(p_, p_ + kMaxDigits, v).ptr;
  }

  // `s` as the body of a JSON string: quotes, backslashes and control
  // bytes escaped, everything else (including UTF-8) copied as is.
  void json_escaped(std::string_view s) {
    room(6 * s.size());  // worst case: every byte becomes \u00XX
    for (const char c : s) {
      switch (c) {
        case '"': put2('\\', '"'); break;
        case '\\': put2('\\', '\\'); break;
        case '\n': put2('\\', 'n'); break;
        case '\t': put2('\\', 't'); break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static constexpr char kHex[] = "0123456789abcdef";
            std::memcpy(p_, "\\u00", 4);
            p_[4] = kHex[(c >> 4) & 0xf];
            p_[5] = kHex[c & 0xf];
            p_ += 6;
          } else {
            *p_++ = c;
          }
      }
    }
  }

  // `s` as one CSV field: verbatim unless it holds a comma, quote, CR
  // or LF, in which case it is quoted with inner quotes doubled
  // (RFC 4180).
  void csv_field(std::string_view s) {
    if (s.find_first_of(",\"\r\n") == std::string_view::npos) {
      lit(s);
      return;
    }
    room(2 * s.size() + 2);
    *p_++ = '"';
    for (const char c : s) {
      if (c == '"') *p_++ = '"';
      *p_++ = c;
    }
    *p_++ = '"';
  }

  void done() { out_.resize(static_cast<std::size_t>(p_ - out_.data())); }

 private:
  static constexpr std::size_t kMaxDigits = 20;  // -2^63 or 2^64 - 1
  static constexpr std::size_t kChunk = 64 * 1024;

  void put2(char a, char b) {
    p_[0] = a;
    p_[1] = b;
    p_ += 2;
  }

  void room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) grow(n);
  }

  void grow(std::size_t n) {
    const auto at = static_cast<std::size_t>(p_ - out_.data());
    std::size_t size = at + std::max(n, kChunk);
    if (size > out_.capacity()) size = std::max(out_.capacity(), at + n);
    out_.resize(size);
    p_ = out_.data() + at;
    end_ = out_.data() + out_.size();
  }

  std::string& out_;
  char* p_;
  char* end_;
};

std::int64_t parent_id(const Span& s) {
  return s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent);
}

}  // namespace

std::string chrome_trace_json(const TraceList& traces) {
  std::string out;
  out.reserve(256 + traces.size() * 512);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ntier\"}}";
  Writer w(out);
  for (const auto& t : traces) {
    if (!t || t->empty()) continue;
    const std::uint64_t rid = t->request_id();
    w.lit(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    w.num(rid);
    w.lit(",\"args\":{\"name\":\"request ");
    w.num(rid);
    w.lit("\"}}");
    for (const Span& s : t->spans()) {
      const std::string_view kind = to_string(s.kind);
      const std::int64_t dur = s.duration().count_micros();
      const bool complete = s.closed() && dur > 0;
      w.lit(",\n{\"name\":\"");
      w.lit(kind);
      w.lit(" ");
      w.json_escaped(s.site);
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
      w.num(s.id);
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
  w.done();
  return out;
}

std::string spans_csv(const TraceList& traces) {
  std::string out =
      "request_id,span_id,parent_id,kind,site,begin_us,end_us,duration_us,"
      "detail,closed\n";
  Writer w(out);
  for (const auto& t : traces) {
    if (!t) continue;
    for (const Span& s : t->spans()) {
      w.num(t->request_id());
      w.lit(",");
      w.num(s.id);
      w.lit(",");
      w.num(parent_id(s));
      w.lit(",");
      w.lit(to_string(s.kind));
      w.lit(",");
      w.csv_field(s.site);
      w.lit(",");
      w.num(s.begin.count_micros());
      w.lit(",");
      w.num(s.end.count_micros());
      w.lit(",");
      w.num(s.duration().count_micros());
      w.lit(",");
      w.num(std::int64_t{s.detail});
      w.lit(s.closed() ? ",1\n" : ",0\n");
    }
  }
  w.done();
  return out;
}

}  // namespace ntier::trace
