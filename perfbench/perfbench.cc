// The ntier simulator's benchmark program (see perfbench/README.md).
//
// Runs one workload in-process, repeatedly, for --seconds of host time,
// timing only calls into the library's public entry points, and prints
// one JSON object as the last line of stdout:
//   --trace 0   every end-to-end metric (medians over the pipeline runs,
//               at a reference speed measured next to each run)
//   --trace 1   every per-layer metric, from runs that also record spans
//               around each public call and probe the model at slice
//               edges; untraced runs are interleaved so the traced digest
//               can be compared with the untraced one and the tracing
//               overhead measured.
// Every run's simulated result is checked: conservation laws at any
// seed, and the reference digest at the default seed 42.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/correlate.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/manifest.h"
#include "core/scenarios.h"
#include "core/system.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "report/dashboard.h"
#include "sweep/engine.h"
#include "trace/chrome_trace.h"

namespace {

using namespace ntier;

// ---------------------------------------------------------------- clock

// Host time during which the measuring thread ran. On a virtual machine
// whose vCPUs the hypervisor time-slices with other tenants (4 ms
// quanta on the VM this was tuned on), a plain clock charges the program
// for every quantum it spent descheduled, and the share of such stalls
// drifts from ~0 to ~50 % over minutes. A periodic per-thread timer
// signal makes those stalls visible: while the thread runs, a tick lands
// every kTickNs; a gap between two ticks (or a tick and a read) longer
// than kGapNs means the thread was not running, and the gap less one tick
// (the most the thread can have run in it) is accumulated as stalled
// time. The estimate never exceeds the true stall, so no interval is
// measured shorter than the work in it. The same
// happens when another process on this VM takes the thread's vCPU.
// Blocking in the kernel is not hidden: a signal interrupts a sleeping
// thread on time. A long system call does delay the tick, though:
// graph_traced has calls that hold it back 1-3 ms on every run. kGapNs
// sits above that and below the 4 ms host quantum and the guest
// scheduler's slice, so such calls still count as the program's time.
namespace stall {

constexpr std::int64_t kTickNs = 500'000;
constexpr std::int64_t kGapNs = 3'000'000;

static_assert(std::atomic<std::int64_t>::is_always_lock_free, "used from a signal handler");
std::atomic<std::int64_t> last_ns{0};
std::atomic<std::int64_t> stalled_ns{0};
volatile std::sig_atomic_t reading = 0;  // a read is updating the state
timer_t timer;
bool running = false;

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Both the handler and a read call this, on the measuring thread only.
void account(std::int64_t now) {
  const std::int64_t gap = now - last_ns.load(std::memory_order_relaxed);
  if (gap > kGapNs)
    stalled_ns.store(stalled_ns.load(std::memory_order_relaxed) + gap - kTickNs,
                     std::memory_order_relaxed);
  last_ns.store(now, std::memory_order_relaxed);
}

void on_tick(int) {
  if (!reading) account(mono_ns());
}

// Starts the ticks on the calling thread; false (and no correction) if
// the timer is unavailable.
bool start() {
  struct sigaction sa {};
  sa.sa_handler = on_tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, nullptr) != 0) return false;
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = gettid();  // glibc names no field for the thread id
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) return false;
  last_ns.store(mono_ns());
  itimerspec its{};
  its.it_interval.tv_nsec = kTickNs;
  its.it_value.tv_nsec = kTickNs;
  if (timer_settime(timer, 0, &its, nullptr) != 0) {
    timer_delete(timer);
    return false;
  }
  running = true;
  return true;
}

void stop() {
  if (running) timer_delete(timer);
  running = false;
}

// Monotonic time less the stalls accumulated so far.
std::int64_t active_ns() {
  reading = 1;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  const std::int64_t now = mono_ns();
  if (running) account(now);
  const std::int64_t active = now - stalled_ns.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  reading = 0;
  return active;
}

}  // namespace stall

// The clock every measurement reads: the measuring thread's active time.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept { return time_point(duration(stall::active_ns())); }
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- flags

struct Flags {
  std::string workload;
  std::uint64_t seed = 42;
  int seconds = 10;
  int trace = 0;
  std::string report_dir;  // per-layer report file directory (traced runs)
};

// Whole-string unsigned decimal; rejects signs, blanks and overflow.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

const char* const kWorkloads[] = {"sync_ctqo", "async_saturated", "graph_traced",
                                  "sweep_surface"};

// Returns "" on success, else the reason the command line is malformed.
std::string parse_flags(int argc, char** argv, Flags& f) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      bool known = false;
      for (const char* w : kWorkloads) known = known || value == w;
      if (!known) return "unknown workload '" + value + "'";
      f.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, f.seed)) return "--seed wants an unsigned integer, got '" + value + "'";
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600)
        return "--seconds wants an integer in [1, 3600], got '" + value + "'";
      f.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "--trace wants 0 or 1, got '" + value + "'";
      f.trace = value == "1" ? 1 : 0;
    } else if (flag == "--report-dir") {
      if (value.empty()) return "--report-dir wants a directory";
      f.report_dir = value;
    } else {
      return "unknown flag '" + flag + "'";
    }
  }
  if (!have_workload) return "--workload is required";
  return "";
}

// ---------------------------------------------------------------- spans

// Spans recorded by this program around its own calls into the library.
// A Span always measures its duration (the end-to-end phase timings use
// it); only an enabled log keeps the record for self-time accounting.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  class Span {
   public:
    Span(SpanLog& log, const char* name) : log_(log), t0_(Clock::now()) {
      if (log_.on_) {
        id_ = static_cast<int>(log_.recs_.size());
        log_.recs_.push_back({name, log_.stack_.empty() ? -1 : log_.stack_.back(), 0.0});
        log_.stack_.push_back(id_);
      }
    }
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    // Closes the span (idempotent) and returns its duration in seconds.
    double end() {
      if (!open_) return dur_;
      open_ = false;
      dur_ = since(t0_);
      if (id_ >= 0) {
        log_.recs_[static_cast<std::size_t>(id_)].dur = dur_;
        log_.stack_.pop_back();
      }
      return dur_;
    }

   private:
    SpanLog& log_;
    Clock::time_point t0_;
    int id_ = -1;
    bool open_ = true;
    double dur_ = 0.0;
  };

  // Self time (duration minus child spans) summed per span name.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(recs_.size(), 0.0);
    for (const auto& r : recs_)
      if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] += r.dur;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < recs_.size(); ++i) out[recs_[i].name] += recs_[i].dur - child[i];
    return out;
  }

 private:
  struct Rec {
    const char* name;
    int parent;
    double dur;
  };
  bool on_;
  std::vector<Rec> recs_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Mean of the middle half of v, the interquartile mean. Like the median
// it ignores the quarter of runs at either end, where a slow spell of the
// host lands; it averages the rest, so over the 10-30 pipeline runs of a
// sync_ctqo or sweep_surface measurement it moves less than the median.
double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t q = v.size() / 4;
  double sum = 0;
  for (std::size_t i = q; i < v.size() - q; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * q);
}

// Peak resident set of this program image (VmHWM). Unlike getrusage's
// ru_maxrss it leaves out the process that exec'd this one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --------------------------------------------------- per-layer readings

// Deterministic work counts read from public accessors after a run, plus
// the slice-edge peaks of a traced run. Summed over runs for the sweep.
struct Layers {
  double events = 0, pending_peak = 0;
  double busy_core_s = 0, demand_s = 0, stalled_s = 0, active_jobs_peak = 0;
  double sent = 0, delivered = 0, tx_drops = 0, retransmits = 0, cookie_admits = 0;
  double offered = 0, accepted = 0, dropped = 0, completed = 0, queue_peak = 0;
  double issued = 0, wl_completed = 0, wl_failed = 0, timeouts = 0;
  double mon_completions = 0, mon_vlrt = 0, series = 0;
  double trace_begun = 0, trace_retained = 0, incidents = 0;

  void add(const Layers& o) {
    events += o.events;
    pending_peak = std::max(pending_peak, o.pending_peak);
    busy_core_s += o.busy_core_s;
    demand_s += o.demand_s;
    stalled_s += o.stalled_s;
    active_jobs_peak = std::max(active_jobs_peak, o.active_jobs_peak);
    sent += o.sent;
    delivered += o.delivered;
    tx_drops += o.tx_drops;
    retransmits += o.retransmits;
    cookie_admits += o.cookie_admits;
    offered += o.offered;
    accepted += o.accepted;
    dropped += o.dropped;
    completed += o.completed;
    queue_peak = std::max(queue_peak, o.queue_peak);
    issued += o.issued;
    wl_completed += o.wl_completed;
    wl_failed += o.wl_failed;
    timeouts += o.timeouts;
    mon_completions += o.mon_completions;
    mon_vlrt += o.mon_vlrt;
    series = std::max(series, o.series);
    trace_begun += o.trace_begun;
    trace_retained += o.trace_retained;
    incidents += o.incidents;
  }
};

// The model components of one built system, in front-to-back order.
struct Parts {
  std::vector<server::Server*> servers;
  std::vector<cpu::VmCpu*> vms;
  std::vector<net::Transport*> transports;  // client hop first
};

Parts parts_of(core::NTierSystem& sys) {
  Parts p;
  for (auto t : {core::Tier::kWeb, core::Tier::kApp, core::Tier::kDb}) {
    p.servers.push_back(sys.tier(t));
    p.vms.push_back(sys.tier_vm(t));
  }
  p.transports.push_back(&sys.clients().transport());
  for (auto* s : p.servers)
    if (auto* tx = s->downstream_transport()) p.transports.push_back(tx);
  return p;
}

Parts parts_of(graph::GraphSystem& sys) {
  Parts p;
  p.transports.push_back(&sys.clients().transport());
  for (std::size_t i = 0; i < sys.flat_count(); ++i) {
    auto* s = sys.server_flat(i);
    p.servers.push_back(s);
    p.vms.push_back(sys.vm_flat(i));
    if (auto* tx = s->downstream_transport()) p.transports.push_back(tx);
    for (std::size_t r = 0; r < s->route_count(); ++r) p.transports.push_back(s->route_transport(r));
  }
  return p;
}

std::size_t queued_total(const Parts& p) {
  std::size_t q = 0;
  for (const auto* s : p.servers) q += s->queued_requests();
  return q;
}
std::uint64_t drops_total(const Parts& p) {
  std::uint64_t d = 0;
  for (const auto* s : p.servers) d += s->stats().dropped;
  return d;
}

template <typename System>
Layers read_layers(System& sys, const Parts& p) {
  Layers l;
  l.events = static_cast<double>(sys.simulation().events_executed());
  l.pending_peak = static_cast<double>(sys.simulation().pending_events());
  l.queue_peak = static_cast<double>(queued_total(p));
  for (auto* vm : p.vms) {
    l.active_jobs_peak += static_cast<double>(vm->active_jobs());
    l.busy_core_s += vm->busy_core_seconds();
    l.demand_s += vm->demand_seconds();
    l.stalled_s += vm->stalled_seconds();
  }
  for (const auto* tx : p.transports) {
    const auto& st = tx->stats();
    l.sent += static_cast<double>(st.sent);
    l.delivered += static_cast<double>(st.delivered);
    l.tx_drops += static_cast<double>(st.drops);
    l.retransmits += static_cast<double>(st.retransmits);
  }
  for (const auto* s : p.servers) {
    const auto& st = s->stats();
    l.offered += static_cast<double>(st.offered);
    l.accepted += static_cast<double>(st.accepted);
    l.dropped += static_cast<double>(st.dropped);
    l.completed += static_cast<double>(st.completed);
    if (const auto* q = s->accept_queue()) l.cookie_admits += static_cast<double>(q->cookie_admits());
  }
  const auto& c = sys.clients();
  l.issued = static_cast<double>(c.issued());
  l.wl_completed = static_cast<double>(c.completed());
  l.wl_failed = static_cast<double>(c.failed());
  l.timeouts = static_cast<double>(c.timeouts());
  l.mon_completions = static_cast<double>(sys.latency().completed());
  l.mon_vlrt = static_cast<double>(sys.latency().vlrt_count());
  l.series = static_cast<double>(sys.registry().series_names().size());
  if (const auto* tr = sys.tracer()) {
    l.trace_begun = static_cast<double>(tr->begun());
    l.trace_retained = static_cast<double>(tr->retained());
  }
  if (const auto* om = sys.obs()) l.incidents = static_cast<double>(om->incidents().size());
  return l;
}

// Conservation laws that must hold at any seed; returns "" or the first
// violated law.
template <typename System>
std::string check_conservation(System& sys, const Parts& p, std::size_t sessions) {
  char buf[200];
  const auto& c = sys.clients();
  if (c.issued() != c.completed() + c.in_flight() || c.in_flight() > sessions ||
      c.failed() > c.completed()) {
    std::snprintf(buf, sizeof buf, "client flow: issued=%llu completed=%llu failed=%llu in_flight=%llu",
                  static_cast<unsigned long long>(c.issued()),
                  static_cast<unsigned long long>(c.completed()),
                  static_cast<unsigned long long>(c.failed()),
                  static_cast<unsigned long long>(c.in_flight()));
    return buf;
  }
  for (const auto* s : p.servers) {
    const auto& st = s->stats();
    if (st.accepted != st.completed + s->queued_requests() || st.offered != st.accepted + st.dropped) {
      std::snprintf(buf, sizeof buf,
                    "%s flow: offered=%llu accepted=%llu dropped=%llu completed=%llu queued=%zu",
                    s->name().c_str(), static_cast<unsigned long long>(st.offered),
                    static_cast<unsigned long long>(st.accepted),
                    static_cast<unsigned long long>(st.dropped),
                    static_cast<unsigned long long>(st.completed), s->queued_requests());
      return buf;
    }
  }
  std::uint64_t tx_drops = 0;
  for (const auto* tx : p.transports) tx_drops += tx->stats().drops;
  if (tx_drops != drops_total(p)) {
    std::snprintf(buf, sizeof buf, "drops: transports=%llu tiers=%llu",
                  static_cast<unsigned long long>(tx_drops),
                  static_cast<unsigned long long>(drops_total(p)));
    return buf;
  }
  return "";
}

const char* verdict(const core::CtqoReport& r) {
  if (r.episodes.empty()) return "none";
  if (r.upstream_episodes > r.downstream_episodes) return "upstream";
  if (r.downstream_episodes > r.upstream_episodes) return "downstream";
  return "mixed";
}

// The simulated result of one run: events, completions, VLRT, per-tier
// drops and the CTQO verdict. Equal digests = equal results.
template <typename System>
std::string digest(System& sys, const Parts& p, const core::CtqoReport& ctqo) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "events=%llu completed=%llu vlrt=%llu failed=%llu drops=",
                static_cast<unsigned long long>(sys.simulation().events_executed()),
                static_cast<unsigned long long>(sys.latency().completed()),
                static_cast<unsigned long long>(sys.latency().vlrt_count()),
                static_cast<unsigned long long>(sys.clients().failed()));
  std::string out = buf;
  for (std::size_t i = 0; i < p.servers.size(); ++i) {
    out += (i ? "," : "") + p.servers[i]->name() + ":" +
           std::to_string(p.servers[i]->stats().dropped);
  }
  std::snprintf(buf, sizeof buf, " episodes=%zu/%llu/%llu verdict=%s", ctqo.episodes.size(),
                static_cast<unsigned long long>(ctqo.upstream_episodes),
                static_cast<unsigned long long>(ctqo.downstream_episodes), verdict(ctqo));
  return out + buf;
}

// Reference digests recorded at seed 42; a run at the default seed must
// reproduce its workload's digest exactly.
const std::map<std::string, std::string>& reference_digests() {
  static const std::map<std::string, std::string> refs = {
      {"sync_ctqo",
       "events=4446429 completed=322557 vlrt=8644 failed=0 drops=apache:10093,tomcat:396,mysql:0 "
       "episodes=16/13/3 verdict=upstream"},
      {"async_saturated",
       "events=516619 completed=32844 vlrt=0 failed=0 drops=nginx:0,xtomcat:0,xmysql:0 "
       "episodes=0/0/0 verdict=none"},
      {"graph_traced",
       "events=293856 completed=16633 vlrt=293 failed=0 drops=front:275,catalog:0,ads:0,db:36 "
       "episodes=3/3/0 verdict=upstream"},
      {"sweep_surface",
       "runs=36 events=5166768 completed=388974 vlrt=8832 drops=10172 ctqo=100010101010"},
  };
  return refs;
}

// ---------------------------------------------------------------- runs

// One pass of a workload's pipeline: set-up, run, report, teardown.
struct Run {
  double wall_s = 0, setup_s = 0, run_s = 0, report_s = 0, sim_s = 0;
  // Reference-speed factor: kProbeRefS over the speed probe's time
  // around this run (1 until the probe has been read).
  double scale = 1;
  std::uint64_t sim_runs = 1;  // simulation runs inside (36 for the sweep)
  std::vector<double> slice_ms;
  std::vector<bool> slice_drops;  // traced runs: new drops in the slice
  std::string digest;
  std::string error;  // violated conservation law, "" when none
  Layers layers;      // traced runs only
  std::map<std::string, double> timings;  // named per-layer host times/sizes
  std::map<std::string, double> self_s;   // span self times (traced runs)
  std::vector<double> sweep_run_s;        // per-run host seconds (sweep)
  double sweep_idle_share = 0;
};

// Slices the run phase into 300 equal simulated slices (>= 200, so the
// p95 has >= 10 samples beyond it even in a single run).
constexpr int kSlices = 300;

// Set-up-only repetitions before each untraced pipeline run.
constexpr int kSetupReps = 10;

template <typename System>
void run_sliced(System& sys, sim::Duration duration, const Parts& p, bool probe, Run& out) {
  const auto slice = duration / kSlices;
  std::uint64_t drops_before = 0;
  for (int k = 1; k <= kSlices; ++k) {
    const auto t = Clock::now();
    sys.run_until(k == kSlices ? sim::Time::origin() + duration : sim::Time::origin() + slice * k);
    out.slice_ms.push_back(since(t) * 1e3);
    if (probe) {
      // Slice-edge probes are pure reads. The VmCpu accounting getters
      // (busy_core_seconds() and friends) are not: they integrate the PS
      // model up to now, which splits its floating-point accumulation and
      // changes the diamond's result (see README.md), so they are read
      // only once the run is over.
      Layers& l = out.layers;
      l.pending_peak = std::max(l.pending_peak, static_cast<double>(sys.simulation().pending_events()));
      double jobs = 0;
      for (auto* vm : p.vms) jobs += static_cast<double>(vm->active_jobs());
      l.active_jobs_peak = std::max(l.active_jobs_peak, jobs);
      l.queue_peak = std::max(l.queue_peak, static_cast<double>(queued_total(p)));
      const std::uint64_t d = drops_total(p);
      out.slice_drops.push_back(d > drops_before);
      drops_before = d;
    }
  }
}

// Finishes the layer readings of a traced single-system run, keeping the
// slice-edge peaks gathered during the run.
void merge_end_readings(Run& r, Layers end) {
  end.pending_peak = std::max(end.pending_peak, r.layers.pending_peak);
  end.active_jobs_peak = std::max(end.active_jobs_peak, r.layers.active_jobs_peak);
  end.queue_peak = std::max(end.queue_peak, r.layers.queue_peak);
  r.layers = end;
}

// --- sync_ctqo / async_saturated: the 3-tier NTierSystem --------------

// Set-up is config to first event: validation, the build, and a
// run_until(0) that starts the clients, sampler and injectors.
std::unique_ptr<core::NTierSystem> build_ntier(core::ExperimentConfig cfg, std::uint64_t seed) {
  cfg.seed = seed;
  core::validate(cfg);
  return std::make_unique<core::NTierSystem>(std::move(cfg));
}

using ConfigFn = core::ExperimentConfig (*)();

core::ExperimentConfig sync_ctqo_config() { return core::scenarios::fig1_multimodal(8000); }
core::ExperimentConfig async_saturated_config() {
  return core::scenarios::fig12_point(core::Architecture::kNx3, 1600);
}

// One pipeline run of a single simulated system. `build` is the set-up's
// build step: it records its own spans and returns the built system.
// The library calls below resolve by argument-dependent lookup to the
// core:: (NTierSystem) or graph:: (GraphSystem) overload.
template <typename Build>
Run run_pipeline(Build build, bool traced) {
  SpanLog log(traced);
  Run r;
  SpanLog::Span whole(log, "pipeline");
  SpanLog::Span setup(log, "setup");
  auto sys = build(log, r);
  sys->run_until(sim::Time::origin());
  r.setup_s = setup.end();
  const auto& cfg = sys->config();
  const Parts p = parts_of(*sys);

  SpanLog::Span run(log, "run");
  run_sliced(*sys, cfg.duration, p, traced, r);
  r.run_s = run.end();
  r.sim_s = cfg.duration.to_seconds();

  SpanLog::Span report(log, "report");
  obs::IncidentSummary incidents;
  if (auto* om = sys->obs()) {
    SpanLog::Span s(log, "obs.finalize");
    om->finalize(sys->simulation().now());
    incidents = om->summary();
    r.timings["obs.finalize_s"] = s.end();
  }
  if constexpr (std::is_same_v<decltype(*sys), core::NTierSystem&>) {
    SpanLog::Span s(log, "core.summarize");
    const auto summary = core::summarize(*sys);
    r.timings["core.summarize_s"] = s.end();
  }
  SpanLog::Span a(log, "core.analyze_ctqo");
  const auto ctqo = analyze_ctqo(*sys);
  r.timings["core.analyze_ctqo_s"] = a.end();
  SpanLog::Span c(log, "core.correlate");
  const auto corr = correlate(*sys);
  r.timings["core.correlate_s"] = c.end();
  {
    SpanLog::Span s(log, "core.manifest");
    const auto manifest = run_manifest_json(*sys, &ctqo, incidents.count > 0 ? &incidents : nullptr);
    r.timings["core.manifest_s"] = s.end();
  }
  {
    SpanLog::Span s(log, "report.dashboard");
    const auto html = report::render_dashboard(*sys, ctqo, corr, sys->obs());
    r.timings["report.dashboard_s"] = s.end();
    r.timings["report.dashboard_bytes"] = static_cast<double>(html.size());
  }
  {
    SpanLog::Span s(log, "telemetry.snapshot");
    const auto snap = sys->registry().snapshot();
    r.timings["telemetry.snapshot_s"] = s.end();
    r.timings["telemetry.snapshot_entries"] = static_cast<double>(snap.size());
  }
  if (const auto* tr = sys->tracer()) {
    {
      SpanLog::Span s(log, "trace.export");
      const auto json = trace::chrome_trace_json(tr->traces());
      r.timings["trace.export_s"] = s.end();
      r.timings["trace.export_bytes"] = static_cast<double>(json.size());
    }
    SpanLog::Span s(log, "trace.critical_path");
    const auto table = core::attribute_vlrt(tr->traces(), ctqo, tr->config().vlrt_threshold);
    r.timings["trace.critical_path_s"] = s.end();
  }
  r.report_s = report.end();

  r.digest = digest(*sys, p, ctqo);
  r.error = check_conservation(*sys, p, cfg.workload.sessions);
  if (traced) merge_end_readings(r, read_layers(*sys, p));
  {
    SpanLog::Span s(log, "teardown");
    sys.reset();
  }
  r.wall_s = whole.end();
  r.self_s = log.self_times();
  return r;
}

Run run_ntier(ConfigFn make_config, std::uint64_t seed, bool traced) {
  return run_pipeline(
      [&](SpanLog& log, Run& r) {
        SpanLog::Span build(log, "core.build");
        auto sys = build_ntier(make_config(), seed);
        r.timings["core.build_s"] = build.end();
        return sys;
      },
      traced);
}

// --- graph_traced: the diamond DAG with tracing and the monitor on ----

// The ext_graph_topologies diamond: a front fans out to two mid services
// that share one database, which freezes 900 ms every 12 s.
std::string diamond_text(std::uint64_t seed) {
  return "graph diamond\nseed " + std::to_string(seed) + R"(
sessions 3000
duration 40s
node front   kind=sync threads=150 work=cpu:60us,down,cpu:60us
node catalog kind=sync threads=120 work=cpu:80us,down,cpu:40us
node ads     kind=sync threads=120 work=cpu:80us,down,cpu:40us
node db      kind=sync threads=100 work=cpu:500us
edge front catalog
edge front ads
edge catalog db
edge ads db
freeze db first=8s period=12s pause=900ms
)";
}

// `observed` turns on request tracing (kAll) and the incident monitor
// with its flight recorder, in memory only.
graph::GraphConfig diamond_config(std::uint64_t seed, bool observed) {
  auto cfg = graph::parse_topology(diamond_text(seed));
  if (observed) {
    cfg.trace.mode = trace::TraceMode::kAll;
    cfg.obs.enabled = true;
  }
  return cfg;
}

std::unique_ptr<graph::GraphSystem> build_graph(graph::GraphConfig cfg) {
  graph::validate(cfg);
  return std::make_unique<graph::GraphSystem>(std::move(cfg));
}

Run run_graph(std::uint64_t seed, bool observed, bool traced) {
  return run_pipeline(
      [&](SpanLog& log, Run& r) {
        SpanLog::Span parse(log, "graph.parse");
        auto cfg = diamond_config(seed, observed);
        r.timings["graph.parse_s"] = parse.end();
        SpanLog::Span build(log, "graph.build");
        auto sys = build_graph(std::move(cfg));
        r.timings["graph.build_s"] = build.end();
        return sys;
      },
      traced);
}

// --- sweep_surface: the Fig 3 CTQO-onset grid through run_sweep -------

sweep::Grid surface_grid() {
  sweep::Grid grid;
  grid.add_axis("wl", {3000, 5000, 7000}).add_axis("backlog", {64, 128}).add_axis("nx", {0, 3});
  return grid;
}

core::ExperimentConfig surface_point(const sweep::GridPoint& pt, std::uint64_t seed) {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  const auto wl = static_cast<std::size_t>(pt.value(0));
  const auto backlog = static_cast<std::size_t>(pt.value(1));
  const auto nx = static_cast<int>(pt.value(2));
  cfg.workload.sessions = wl;
  cfg.system.backlog = backlog;
  cfg.system.arch = static_cast<core::Architecture>(nx);
  cfg.duration = sim::Duration::seconds(16);
  cfg.seed = seed;
  cfg.name = "ctqo-surface-wl" + std::to_string(wl) + "-q" + std::to_string(backlog) + "-nx" +
             std::to_string(nx);
  return cfg;
}

constexpr int kRenderReps = 20;

// Set-up: bind, validate and build every point's system once — the
// per-run set-up the sweep repeats for each replication.
std::vector<std::unique_ptr<core::NTierSystem>> build_surface(const sweep::Grid& grid,
                                                              std::uint64_t seed) {
  std::vector<std::unique_ptr<core::NTierSystem>> systems;
  for (const auto& pt : grid.points()) {
    systems.push_back(build_ntier(surface_point(pt, seed), seed));
    systems.back()->run_until(sim::Time::origin());
  }
  return systems;
}

Run run_surface(std::uint64_t seed, bool traced) {
  SpanLog log(traced);
  Run r;
  SpanLog::Span whole(log, "pipeline");
  const auto grid = surface_grid();
  {
    SpanLog::Span setup(log, "setup");
    SpanLog::Span build(log, "core.build");
    const auto systems = build_surface(grid, seed);
    r.timings["core.build_s"] = build.end();
    r.setup_s = setup.end();
  }

  sweep::SweepOptions opt;
  opt.replications = 3;
  // One worker, which run_sweep runs on this thread: the stall clock
  // follows only the measuring thread, and parallel workers on a shared
  // host would time the hypervisor's scheduling more than the sweep.
  opt.jobs = 1;
  std::string error;
  std::vector<double> snapshots;
  auto last = Clock::now();  // the previous run's end
  const sweep::RunHook hook = [&](const sweep::GridPoint&, std::size_t, core::NTierSystem& sys) {
    const Parts p = parts_of(sys);
    std::string err = check_conservation(sys, p, sys.config().workload.sessions);
    Layers l;
    double snapshot_s = 0;
    if (traced) {
      l = read_layers(sys, p);
      const auto t = Clock::now();
      const auto snap = sys.registry().snapshot();
      snapshot_s = since(t);
    }
    const double run_s = since(last);
    last = Clock::now();
    r.sweep_run_s.push_back(run_s);
    r.slice_ms.push_back(run_s * 1e3);
    if (traced) {
      r.slice_drops.push_back(l.dropped > 0);
      r.layers.add(l);
      snapshots.push_back(snapshot_s);
    }
    if (error.empty() && !err.empty()) error = sys.config().name + ": " + err;
  };
  sweep::SweepResult result;
  {
    SpanLog::Span run(log, "sweep.run");
    result = sweep::run_sweep(grid, [seed](const sweep::GridPoint& pt) { return surface_point(pt, seed); },
                              opt, hook);
    r.run_s = run.end();
  }
  r.sweep_idle_share = since(last) / r.run_s;
  r.sim_runs = result.runs;
  r.sim_s = 16.0 * static_cast<double>(result.runs);

  {
    // Rendering the artifacts takes well under 1 ms, so it is timed as a
    // block of kRenderReps renders and reported per render: one render is
    // short enough to fall entirely into a slow or a fast spell of a
    // shared host.
    SpanLog::Span report(log, "sweep.render");
    for (int i = 0; i < kRenderReps; ++i) {
      const auto csv = result.csv();
      const auto manifest = result.manifest_json();
      const auto table = result.to_string();
    }
    r.report_s = report.end() / kRenderReps;
    r.timings["sweep.render_s"] = r.report_s;
  }
  std::uint64_t completed = 0, vlrt = 0, drops = 0, entries = 0;
  std::string ctqo;
  for (const auto& pt : result.points) {
    ctqo += pt.ctqo ? '1' : '0';
    entries += pt.registry_totals.size();
    for (const auto& rep : pt.reps) {
      completed += rep.summary.latency.count;
      vlrt += rep.summary.latency.vlrt_count;
      drops += rep.summary.total_drops;
    }
  }
  char buf[200];
  std::snprintf(buf, sizeof buf, "runs=%llu events=%llu completed=%llu vlrt=%llu drops=%llu ctqo=%s",
                static_cast<unsigned long long>(result.runs),
                static_cast<unsigned long long>(result.total_events),
                static_cast<unsigned long long>(completed), static_cast<unsigned long long>(vlrt),
                static_cast<unsigned long long>(drops), ctqo.c_str());
  r.digest = buf;
  r.error = error;
  r.timings["telemetry.snapshot_entries"] = static_cast<double>(entries);
  r.timings["telemetry.snapshot_s"] = median(snapshots);
  r.wall_s = whole.end();
  r.self_s = log.self_times();
  return r;
}

Run run_once(const std::string& workload, std::uint64_t seed, bool traced) {
  if (workload == "sync_ctqo") return run_ntier(sync_ctqo_config, seed, traced);
  if (workload == "async_saturated") return run_ntier(async_saturated_config, seed, traced);
  if (workload == "graph_traced") return run_graph(seed, /*observed=*/true, traced);
  return run_surface(seed, traced);
}

// Host seconds of one set-up alone (the system is torn down untimed).
double setup_once(const std::string& workload, std::uint64_t seed) {
  const auto t0 = Clock::now();
  if (workload == "graph_traced") {
    const auto sys = build_graph(diamond_config(seed, /*observed=*/true));
    sys->run_until(sim::Time::origin());
    return since(t0);
  }
  if (workload == "sweep_surface") {
    const auto systems = build_surface(surface_grid(), seed);
    return since(t0);
  }
  const auto sys =
      build_ntier(workload == "sync_ctqo" ? sync_ctqo_config() : async_saturated_config(), seed);
  sys->run_until(sim::Time::origin());
  return since(t0);
}

// Moves the calling thread to the n-th CPU (cyclically) of the set it
// was allowed to start on. On a host shared with other tenants, cores
// run at different speeds at different times; cycling the pipeline runs
// over every allowed core makes each measurement sample all of them, so
// the median no longer depends on which core the scheduler settled on.
class CoreCycle {
 public:
  CoreCycle() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cores_.push_back(c);
  }
  void pin(std::size_t n) const {
    if (cores_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[n % cores_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  // Restores the starting set (worker threads inherit the mask).
  void release() const {
    if (!cores_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cores_;
};

// Reference speed. Other tenants of a shared host also slow this VM's
// cores and caches without stalling the thread, by up to 2x for minutes
// at a time, and every timing moves with them. So each pipeline run is
// bracketed, on its core, by two timings of a fixed probe: a small
// discrete-event loop whose steps pop a binary heap of 64Ki events, hash,
// update two random words of a 16 MiB table and push the event back, the
// mix of heap work and cache misses the simulator does. The run's
// timings are reported multiplied by kProbeRefS over the mean of the two
// probe times, i.e. at the speed at which the probe takes kProbeRefS.
// The probe is fixed code in this file, so a change to the library moves
// the scaled timings as it moves the plain ones.
class SpeedProbe {
 public:
  static constexpr double kProbeRefS = 0.006;

  SpeedProbe() : table_(kTableWords) {
    heap_.reserve(kEvents);
    for (std::uint32_t i = 0; i < kEvents; ++i) heap_.push_back({hash(i) & 0xffff, i, {}});
    std::make_heap(heap_.begin(), heap_.end(), later);
  }

  // Seconds for kSteps steps, after as many untimed ones to warm up.
  double seconds() {
    steps();
    const auto t0 = Clock::now();
    steps();
    return since(t0);
  }

  // The probe's own resident memory, which peak_rss_mb leaves out.
  double mb() const {
    return static_cast<double>(heap_.capacity() * sizeof(Event) + table_.size() * sizeof(std::uint64_t)) /
           (1024.0 * 1024.0);
  }

 private:
  static constexpr std::uint32_t kEvents = 1u << 16;
  static constexpr std::size_t kTableWords = std::size_t{1} << 21;
  static constexpr int kSteps = 30'000;

  struct Event {
    std::uint64_t when;
    std::uint32_t id;
    std::uint32_t payload[5];
  };
  static bool later(const Event& a, const Event& b) { return a.when > b.when; }
  static std::uint64_t hash(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
  }

  void steps() {
    const std::size_t mask = table_.size() - 1;
    for (int k = 0; k < kSteps; ++k) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      Event& e = heap_.back();
      const std::uint64_t x = hash(e.when ^ (std::uint64_t{e.id} << 32));
      table_[x & mask] += e.when;
      table_[(x >> 24) & mask] ^= x;
      e.when += 1 + ((x >> 40) & 0xfff);
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
  }

  std::vector<Event> heap_;
  std::vector<std::uint64_t> table_;
};

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

template <typename F>
std::vector<double> collect(const std::vector<Run>& runs, F f) {
  std::vector<double> v;
  for (const auto& r : runs) v.push_back(f(r));
  return v;
}

double timing(const std::vector<Run>& runs, const std::string& key) {
  return median(collect(runs, [&](const Run& r) {
    const auto it = r.timings.find(key);
    return it == r.timings.end() ? 0.0 : it->second;
  }));
}

// The end-to-end metrics: interquartile means over the pipeline runs of
// each run's timings at reference speed (see SpeedProbe).
std::vector<Metric> end_to_end(const std::vector<Run>& runs, double rss_mb) {
  const auto across = [&](auto of_run) { return iq_mean(collect(runs, of_run)); };
  const auto slice_ms = [](const Run& r, double q) { return quantile(r.slice_ms, q) * r.scale; };
  const double wall_s = across([](const Run& r) { return r.wall_s * r.scale; });
  std::printf("%zu slices a run over %zu pipeline runs; set-ups: %d a run\n", runs.front().slice_ms.size(),
              runs.size(), kSetupReps + 1);
  std::printf("timings scaled to reference speed by a median factor of %.3f\n",
              median(collect(runs, [](const Run& r) { return r.scale; })));
  return {
      {"wall_s", wall_s, "s"},
      {"setup_s", across([](const Run& r) { return r.setup_s * r.scale; }), "s"},
      {"sim_speed", across([](const Run& r) { return r.sim_s / (r.run_s * r.scale); }), "sim_s/s"},
      {"report_s", across([](const Run& r) { return r.report_s * r.scale; }), "s"},
      {"slice_ms.p50", across([&](const Run& r) { return slice_ms(r, 0.5); }), "ms"},
      {"slice_ms.p95", across([&](const Run& r) { return slice_ms(r, 0.95); }), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"runs_per_s", static_cast<double>(runs.front().sim_runs) / wall_s, "1/s"},
  };
}

std::vector<Metric> per_layer(const std::vector<Run>& traced, const std::vector<Run>& plain) {
  const Layers& l = traced.back().layers;  // counts repeat exactly across runs
  std::vector<double> episode, quiet, sweep_runs;
  for (const auto& r : traced) {
    for (std::size_t i = 0; i < r.slice_drops.size(); ++i)
      (r.slice_drops[i] ? episode : quiet).push_back(r.slice_ms[i]);
    sweep_runs.insert(sweep_runs.end(), r.sweep_run_s.begin(), r.sweep_run_s.end());
  }
  const double run_s = median(collect(traced, [](const Run& r) { return r.run_s; }));
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double overhead = median(collect(traced, [](const Run& r) { return r.wall_s; })) -
                          median(collect(plain, [](const Run& r) { return r.wall_s; }));
  return {
      {"sim.events", l.events, "count"},
      {"sim.events_per_s", ratio(l.events, run_s), "1/s"},
      {"sim.pending_peak", l.pending_peak, "count"},
      {"sim.slice_ms.episode", median(episode), "ms"},
      {"sim.slice_ms.quiet", median(quiet), "ms"},
      {"cpu.busy_core_s", l.busy_core_s, "s"},
      {"cpu.demand_s", l.demand_s, "s"},
      {"cpu.stalled_s", l.stalled_s, "s"},
      {"cpu.active_jobs_peak", l.active_jobs_peak, "count"},
      {"net.sent", l.sent, "count"},
      {"net.drops", l.tx_drops, "count"},
      {"net.retransmits", l.retransmits, "count"},
      {"net.delivered_ratio", ratio(l.delivered, l.sent), "ratio"},
      {"net.cookie_admits", l.cookie_admits, "count"},
      {"server.offered", l.offered, "count"},
      {"server.accepted", l.accepted, "count"},
      {"server.dropped", l.dropped, "count"},
      {"server.completed", l.completed, "count"},
      {"server.accept_ratio", ratio(l.accepted, l.offered), "ratio"},
      {"server.queue_peak", l.queue_peak, "count"},
      {"workload.issued", l.issued, "count"},
      {"workload.completed", l.wl_completed, "count"},
      {"workload.failed", l.wl_failed, "count"},
      {"workload.timeouts", l.timeouts, "count"},
      {"monitor.completions", l.mon_completions, "count"},
      {"monitor.vlrt", l.mon_vlrt, "count"},
      {"telemetry.series", l.series, "count"},
      {"telemetry.snapshot_s", timing(traced, "telemetry.snapshot_s"), "s"},
      {"telemetry.snapshot_entries", timing(traced, "telemetry.snapshot_entries"), "count"},
      {"trace.begun", l.trace_begun, "count"},
      {"trace.retained", l.trace_retained, "count"},
      {"trace.retained_ratio", ratio(l.trace_retained, l.trace_begun), "ratio"},
      {"trace.export_s", timing(traced, "trace.export_s"), "s"},
      {"trace.export_bytes", timing(traced, "trace.export_bytes"), "bytes"},
      {"trace.critical_path_s", timing(traced, "trace.critical_path_s"), "s"},
      {"obs.incidents", l.incidents, "count"},
      {"obs.finalize_s", timing(traced, "obs.finalize_s"), "s"},
      {"core.build_s", timing(traced, "core.build_s"), "s"},
      {"graph.parse_s", timing(traced, "graph.parse_s"), "s"},
      {"graph.build_s", timing(traced, "graph.build_s"), "s"},
      {"core.summarize_s", timing(traced, "core.summarize_s"), "s"},
      {"core.analyze_ctqo_s", timing(traced, "core.analyze_ctqo_s"), "s"},
      {"core.correlate_s", timing(traced, "core.correlate_s"), "s"},
      {"core.manifest_s", timing(traced, "core.manifest_s"), "s"},
      {"report.dashboard_s", timing(traced, "report.dashboard_s"), "s"},
      {"report.dashboard_bytes", timing(traced, "report.dashboard_bytes"), "bytes"},
      {"sweep.runs", static_cast<double>(traced.back().sweep_run_s.size()), "count"},
      {"sweep.run_s.p50", median(sweep_runs), "s"},
      {"sweep.worker_idle_share",
       median(collect(traced, [](const Run& r) { return r.sweep_idle_share; })), "ratio"},
      {"sweep.render_s", timing(traced, "sweep.render_s"), "s"},
      {"bench.trace_overhead_s", overhead, "s"},
  };
}

// Writes <dir>/<workload>.layers.json: every per-layer metric with its
// unit, the median span self times, and the digests compared.
bool write_layer_report(const Flags& f, const std::vector<Metric>& ms,
                        const std::vector<Run>& traced, const std::string& digest) {
  std::map<std::string, std::vector<double>> self;
  for (const auto& r : traced)
    for (const auto& [name, s] : r.self_s) self[name].push_back(s);
  std::string out = "{\"workload\": \"" + f.workload + "\", \"seed\": " + std::to_string(f.seed) +
                    ",\n \"digest\": \"" + digest + "\",\n \"metrics\": " + metrics_json(ms) +
                    ",\n \"span_self_s\": {";
  bool first = true;
  for (const auto& [name, v] : self) {
    out += (first ? "\"" : ", \"") + name + "\": " + fmt(median(v));
    first = false;
  }
  out += "}}\n";
  std::error_code ec;
  std::filesystem::create_directories(f.report_dir, ec);
  std::ofstream file(f.report_dir + "/" + f.workload + ".layers.json");
  file << out;
  return static_cast<bool>(file);
}

void print_table(const std::vector<Metric>& ms) {
  for (const auto& m : ms) std::printf("  %-28s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (const std::string err = parse_flags(argc, argv, f); !err.empty()) {
    std::fprintf(stderr,
                 "error: %s\nusage: %s --workload sync_ctqo|async_saturated|graph_traced|sweep_surface"
                 " [--seed N] [--seconds 1..3600] [--trace 0|1] [--report-dir DIR]\n",
                 err.c_str(), argc > 0 ? argv[0] : "ntier_perfbench");
    return 2;
  }
  const bool traced = f.trace == 1;
  const std::string& ref = reference_digests().at(f.workload);
  const bool check_ref = f.seed == 42 && !ref.empty();

  // Pipeline runs until --seconds of real time have passed (at least
  // three, for a median). A traced measurement alternates untraced and
  // traced runs so both see the same machine conditions.
  std::vector<Run> plain, spanned;
  std::vector<std::string> failures;
  std::string first_digest;
  double first_rss_mb = 0;  // peak RSS once the first pipeline run is over
  std::uint64_t attempted = 0, failed = 0;
  // Every workload runs on this one thread (the sweep with one worker),
  // which is cycled over the cores and followed by the stall clock.
  const CoreCycle cores;
  SpeedProbe probe;
  const bool corrected = stall::start();
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  while (elapsed() < f.seconds || attempted < 3) {
    const bool this_traced = traced && (plain.size() > spanned.size());
    cores.pin(attempted);
    Run r;
    try {
      const double before = probe.seconds();
      // Set-up is short enough to fall between two stalls of a busy
      // host, so it is repeated on its own and the run keeps the
      // fastest of its set-ups.
      double setup_s = std::numeric_limits<double>::infinity();
      if (!traced)
        for (int i = 0; i < kSetupReps; ++i) setup_s = std::min(setup_s, setup_once(f.workload, f.seed));
      r = run_once(f.workload, f.seed, this_traced);
      r.setup_s = std::min(r.setup_s, setup_s);
      r.scale = SpeedProbe::kProbeRefS / ((before + probe.seconds()) / 2);
    } catch (const std::exception& e) {
      r.error = std::string("exception: ") + e.what();
    }
    ++attempted;
    std::string why = r.error;
    if (why.empty() && check_ref && r.digest != ref) why = "digest differs from the seed-42 reference";
    if (why.empty() && !first_digest.empty() && r.digest != first_digest)
      why = this_traced ? "traced digest differs from the untraced digest"
                        : "digest differs between runs";
    if (first_digest.empty()) first_digest = r.digest;
    if (!why.empty()) {
      ++failed;
      failures.push_back(why + " [" + r.digest + "]");
      continue;
    }
    // Later runs reuse memory the allocator kept, by an amount that
    // depends on how many ran, so the peak is read after the first.
    if (plain.empty() && !this_traced) first_rss_mb = peak_rss_mb();
    (this_traced ? spanned : plain).push_back(std::move(r));
  }
  const double measured_s = elapsed();
  const double stalled_s = static_cast<double>(stall::stalled_ns.load()) * 1e-9;
  stall::stop();
  cores.release();

  bool correct = failed == 0;
  std::printf("workload %s seed %llu trace %d: %llu pipeline runs in %.3f s\n", f.workload.c_str(),
              static_cast<unsigned long long>(f.seed), f.trace,
              static_cast<unsigned long long>(attempted), measured_s);
  if (corrected)
    std::printf("stall correction: on, %.3f s of the %.3f s stalled\n", stalled_s, measured_s);
  else
    std::printf("stall correction: off (no per-thread timer), timings include stalls\n");
  std::printf("digest: %s\n", first_digest.c_str());
  std::printf("reference check: %s\n", check_ref ? "on (seed 42)" : "off (conservation checks only)");
  for (const auto& why : failures) std::printf("FAILED: %s\n", why.c_str());

  if (f.workload == "graph_traced" && !first_digest.empty()) {
    // DESIGN invariant 10 from outside: tracer and monitor off must give
    // the same simulated result.
    const Run off = run_graph(f.seed, /*observed=*/false, false);
    ++attempted;
    const bool same = off.error.empty() && off.digest == first_digest;
    std::printf("tracer/monitor-off diamond digest: %s\n", same ? "identical" : off.digest.c_str());
    if (!same) {
      ++failed;
      correct = false;
    }
  }

  std::vector<Metric> ms;
  if (plain.empty() || (traced && spanned.empty())) {
    correct = false;
  } else if (traced) {
    ms = per_layer(spanned, plain);
    std::printf("per-layer metrics (traced runs: %zu, untraced runs: %zu):\n", spanned.size(),
                plain.size());
    print_table(ms);
    if (!f.report_dir.empty()) {
      if (write_layer_report(f, ms, spanned, first_digest))
        std::printf("wrote %s/%s.layers.json\n", f.report_dir.c_str(), f.workload.c_str());
      else
        correct = false;
    }
  } else {
    std::printf("peak RSS after the first pipeline run: %.2f MB, less the speed probe's %.2f MB\n",
                first_rss_mb, probe.mb());
    ms = end_to_end(plain, first_rss_mb - probe.mb());
    std::printf("end-to-end metrics:\n");
    print_table(ms);
  }
  std::printf("failed_share: %s (%llu of %llu)\n",
              fmt(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(ms).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
