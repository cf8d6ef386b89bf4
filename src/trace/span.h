// Per-request distributed-tracing spans.
//
// A RequestTrace is the span tree of ONE logical request as it crosses
// the tier chain: a root span for the whole client-visible lifetime, one
// hop span per server visit, and nested child spans for everything time
// can be spent on — accept-backlog wait, run-queue/pool wait, CPU and
// disk service, downstream-call wait, RTO retransmission gaps, and
// tail-policy events (retry backoff, hedges, deadline cancels, breaker
// rejections). The tree is what the paper's manual micro-level event
// analysis reconstructs by aligning per-tier timestamps; here every
// span is recorded in-line at µs resolution, so `critical_path.h` can
// answer "where did this request's 3 seconds go" mechanically.
//
// Units: all span boundaries are simulated `sim::Time` instants
// (integral microseconds since the simulation origin). A span that was
// opened but never closed (request abandoned mid-flight, or still in
// the system when the run ends) reports `closed() == false`; analyzers
// clamp such spans to the enclosing span's end.
//
// Memory: a Span is a 40-byte trivially copyable record. Its site is a
// handle into a process-wide intern table (intern_site), not a string
// of its own, and its id is its index in the tree, so recording a span
// copies no string, looks nothing up and allocates only when the tree's
// vector grows. A tree that outlives Tracer::finish is trimmed there to
// exactly its spans (shrink_to_fit), so retained trees hold no growth
// slack.
//
// Layering: this library depends only on `sim/` — servers, transports,
// and clients record into it, and `core/` analyzes it, without cycles.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/slab_pool.h"
#include "sim/time.h"

namespace ntier::trace {

// Sentinel parent for root spans / "not traced" span handles.
inline constexpr std::uint64_t kNoSpan = ~0ull;

// What a slice of a request's lifetime was spent on.
enum class SpanKind : std::uint8_t {
  kRequest,        // root: client send -> client receive
  kHop,            // one server visit: admission -> reply
  kAcceptQueue,    // waiting in a TCP accept backlog (sync tiers)
  kPoolQueue,      // waiting for a worker/stage slot or a connection pool
  kService,        // CPU work step executing on the tier's VM
  kDisk,           // disk work step on the tier's IoDevice
  kDownstream,     // waiting on the downstream tier (dispatch -> reply)
  kRtoGap,         // TCP retransmission wait after a dropped/lost packet
  kRetry,          // policy-layer retry backoff wait
  kHedge,          // instant: a hedged duplicate was sent
  kDeadlineCancel, // instant: the end-to-end deadline expired here
  kBreakerReject,  // instant: circuit breaker fast-failed the send
  kDrop,           // instant: an admission refusal (the dropped packet)
  kOverloadShed,   // instant: the overload controller shed the request
  kBrownout,       // instant: admitted for the degraded (brownout) response
};

// Stable lowercase name ("rto_gap", "service", ...) used in exports.
const char* to_string(SpanKind k);

// Handle to an interned site name: a tier ("tomcat"), a hop
// ("tomcat->mysql") or "client". The names live in a process-wide table
// that is never freed, so a handle is one pointer, equal handles mean
// equal names, and view() is valid for the rest of the process on any
// thread. Default-constructed, it names the empty site.
class Site {
 public:
  constexpr Site() = default;
  std::string_view view() const {
    return name_ != nullptr ? std::string_view(*name_) : std::string_view();
  }
  friend bool operator==(Site a, Site b) { return a.name_ == b.name_; }

 private:
  friend Site intern_site(std::string_view name);
  explicit Site(const std::string* name) : name_(name) {}
  const std::string* name_ = nullptr;
};

// The handle for `name`, added to the table on first use. Thread-safe.
// It takes a lock and a hash lookup, so recorders intern their names
// once, when they are built or wired, and hand the handle to every span.
Site intern_site(std::string_view name);

// One span of a request's tree. Its id is its index in
// RequestTrace::spans().
struct Span {
  std::uint64_t parent = kNoSpan;  // kNoSpan for the root span
  sim::Time begin;                 // open instant (µs, simulated)
  sim::Time end;                   // close instant; valid iff closed()
  Site site;                       // where the time was spent
  // Kind-specific small integer: retransmission/retry attempt number
  // for kRtoGap/kRetry, drop reason for kDrop (0 = queue overflow,
  // 1 = refused while crashed, 2 = load-shed), else 0.
  std::int32_t detail = 0;
  SpanKind kind = SpanKind::kRequest;
  bool closed_ = false;

  bool closed() const { return closed_; }
  // Duration of a closed span; zero for instants and unclosed spans.
  sim::Duration duration() const {
    return closed_ ? end - begin : sim::Duration::zero();
  }
};

// A kAll run keeps every span of every retained tree, so this size is
// the tracer's memory per span (docs/TRACING.md sizes runs from it).
static_assert(sizeof(Span) <= 40);
static_assert(std::is_trivially_copyable_v<Span>);
static_assert(std::is_trivially_destructible_v<Span>);

// Append-only span tree for one request. Span ids are allocation order
// (parents always precede children), which makes same-seed runs emit
// byte-identical exports. Once the root span is closed (the client
// settled the request), a span that still arrives — from a hedged
// duplicate or a timed-out copy still in the tiers — grows a full vector
// by exactly one slot, so a tree trimmed at finish stays exact-size.
class RequestTrace {
 public:
  explicit RequestTrace(std::uint64_t request_id) : request_id_(request_id) {}

  std::uint64_t request_id() const { return request_id_; }

  // Opens a span; returns its id (pass to close()). `parent` may be
  // kNoSpan only for the root.
  std::uint64_t open(SpanKind kind, Site site, std::uint64_t parent,
                     sim::Time begin, int detail = 0);
  // Closes an open span at `end`; idempotent (later closes are ignored)
  // so first-reply-wins races cannot corrupt the tree.
  void close(std::uint64_t id, sim::Time end);
  // Records a closed span in one call (begin and end already known).
  std::uint64_t add(SpanKind kind, Site site, std::uint64_t parent,
                    sim::Time begin, sim::Time end, int detail = 0);
  // Records a zero-length marker span (policy events, drops).
  std::uint64_t instant(SpanKind kind, Site site, std::uint64_t parent,
                        sim::Time at, int detail = 0);

  // Releases the vector's growth slack: afterwards
  // spans().capacity() == spans().size(). Reallocates the spans, so a
  // Span reference or pointer taken before the call dangles.
  // Tracer::finish calls it once on every tree that outlives the call.
  void shrink_to_fit() { spans_.shrink_to_fit(); }

  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  // The root (first-opened) span. Undefined when empty().
  const Span& root() const { return spans_.front(); }
  // Root duration if the root is closed, else zero.
  sim::Duration total() const { return root().duration(); }

 private:
  std::uint64_t request_id_;
  std::vector<Span> spans_;
};

// Span trees are slab-pooled: the per-request object is recycled, but
// its span vector grows with the tree while the request is in flight.
// Tracer::finish trims every tree it retains or hands to its finish hook
// to its exact size, so a retained tree of n spans holds 40 × n bytes
// plus one allocator header — tracing explicitly costs memory.
using TracePtr = sim::PoolRef<RequestTrace>;

// Thread-local pool behind Tracer::begin; exposed for tests.
inline sim::SlabPool<RequestTrace>& trace_pool() {
  thread_local sim::SlabPool<RequestTrace> pool;
  return pool;
}

}  // namespace ntier::trace
