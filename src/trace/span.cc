#include "trace/span.h"

#include <cassert>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

namespace ntier::trace {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kHop: return "hop";
    case SpanKind::kAcceptQueue: return "accept_queue";
    case SpanKind::kPoolQueue: return "pool_queue";
    case SpanKind::kService: return "service";
    case SpanKind::kDisk: return "disk";
    case SpanKind::kDownstream: return "downstream";
    case SpanKind::kRtoGap: return "rto_gap";
    case SpanKind::kRetry: return "retry_backoff";
    case SpanKind::kHedge: return "hedge";
    case SpanKind::kDeadlineCancel: return "deadline_cancel";
    case SpanKind::kBreakerReject: return "breaker_reject";
    case SpanKind::kDrop: return "drop";
    case SpanKind::kOverloadShed: return "overload_shed";
    case SpanKind::kBrownout: return "brownout";
  }
  return "?";
}

namespace {

struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

// Node-based, so a name's address survives rehashing; a Site points at
// the node's string for the rest of the process.
struct SiteTable {
  std::mutex mu;
  std::unordered_set<std::string, NameHash, std::equal_to<>> names;
};

}  // namespace

Site intern_site(std::string_view name) {
  if (name.empty()) return Site();
  // Never destroyed: spans (and their sites) may be read by other
  // static destructors or thread exits after this table's would run.
  static SiteTable* const table = new SiteTable;
  const std::lock_guard<std::mutex> lock(table->mu);
  auto it = table->names.find(name);
  if (it == table->names.end()) it = table->names.emplace(name).first;
  return Site(&*it);
}

std::uint64_t RequestTrace::open(SpanKind kind, Site site,
                                 std::uint64_t parent, sim::Time begin,
                                 int detail) {
  assert(parent == kNoSpan ? spans_.empty() : parent < spans_.size());
  Span s;
  s.parent = parent;
  s.begin = begin;
  s.end = begin;
  s.site = site;
  s.detail = detail;
  s.kind = kind;
  // After the root closes, only late spans arrive: grow exactly.
  if (spans_.size() == spans_.capacity() && !spans_.empty() && spans_.front().closed_)
    spans_.reserve(spans_.size() + 1);
  spans_.push_back(s);
  return spans_.size() - 1;
}

void RequestTrace::close(std::uint64_t id, sim::Time end) {
  if (id == kNoSpan) return;
  assert(id < spans_.size());
  Span& s = spans_[id];
  if (s.closed_) return;
  assert(end >= s.begin);
  s.end = end;
  s.closed_ = true;
}

std::uint64_t RequestTrace::add(SpanKind kind, Site site,
                                std::uint64_t parent, sim::Time begin,
                                sim::Time end, int detail) {
  const std::uint64_t id = open(kind, site, parent, begin, detail);
  close(id, end);
  return id;
}

std::uint64_t RequestTrace::instant(SpanKind kind, Site site,
                                    std::uint64_t parent, sim::Time at,
                                    int detail) {
  return add(kind, site, parent, at, at, detail);
}

}  // namespace ntier::trace
