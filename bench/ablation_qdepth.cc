// Ablations for the design discussion of paper §III and §V-E:
//  (1) MaxSysQDepth arithmetic — sweep the app-tier thread pool under the
//      same millibottleneck: bigger pools absorb bigger bursts (drops
//      shrink) but cannot eliminate them, matching the "RPC purist"
//      critique; and large pools carry the Fig 12 overhead.
//  (2) Interference weight — how strongly the co-located tenant starves
//      the steady tier (our substitution for the measured ESXi behavior).
//  (3) RTO policy — fixed 3 s vs RHEL exponential backoff changes where
//      the latency modes sit, not whether drops happen.
#include <cstdio>

#include "bench_util.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "metrics/table.h"

using namespace ntier;

namespace {

core::ExperimentConfig base() {
  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.duration = sim::Duration::seconds(24);
  return cfg;
}

void sweep_threads(const bench::BenchFlags& tf, bench::BenchPerf& perf) {
  std::puts(
      "(1) thread pool sweep in every tier, with the concurrency-overhead\n"
      "    model active (paper SV-E: bigger MaxSysQDepth postpones CTQO\n"
      "    but costs throughput)");
  metrics::Table t({"threads", "MaxSysQDepth", "drops(ideal)", "drops(overhead)",
                    "rps(overhead)"});
  for (std::size_t threads : {150u, 300u, 600u, 1200u, 2000u}) {
    std::uint64_t drops[2] = {0, 0};
    double rps = 0.0;
    for (int with_overhead = 0; with_overhead < 2; ++with_overhead) {
      auto cfg = base();
      cfg.system.web_threads = threads;
      cfg.system.web_processes = 1;
      cfg.system.app_threads = threads;
      cfg.system.db_threads = threads;
      cfg.system.db_pool = threads;
      if (with_overhead != 0) cfg.system.sync_overhead.alpha_per_thread = 1.3e-3;
      cfg.name = "abl-threads-" + std::to_string(threads) +
                 (with_overhead != 0 ? "-overhead" : "-ideal");
      cfg.trace = tf.config;
      cfg.obs = tf.obs;
      auto sys = core::run_system(cfg);
      auto s = core::summarize(*sys);
      drops[with_overhead] = s.total_drops;
      if (with_overhead != 0) rps = s.throughput_rps;
      bench::finalize_incidents(*sys);
      bench::export_traces(*sys, tf);
      bench::maybe_dashboard(*sys, tf);
      perf.add_events(sys->simulation().events_executed());
    }
    t.add_row({metrics::Table::num(std::uint64_t{threads}),
               metrics::Table::num(std::uint64_t{threads + base().system.backlog}),
               metrics::Table::num(drops[0]), metrics::Table::num(drops[1]),
               metrics::Table::num(rps, 0)});
  }
  std::puts(t.to_string().c_str());
  std::puts(
      "with zero per-thread cost, bigger pools absorb the burst (drops shrink);\n"
      "with the measured overhead they overload the CPU instead - the paper's\n"
      "SV-E argument against the 'RPC purist' fix.\n");
}

void sweep_weight(const bench::BenchFlags& tf, bench::BenchPerf& perf) {
  std::puts("(2) interference weight sweep (how hard SysBursty starves SysSteady)");
  metrics::Table t({"weight", "steady_share_%", "drops", "vlrt"});
  for (double w : {1.0, 3.0, 9.0, 20.0, 50.0}) {
    auto cfg = base();
    cfg.bottleneck.interference_weight = w;
    cfg.name = "abl-weight-" + std::to_string(static_cast<int>(w));
    cfg.trace = tf.config;
    cfg.obs = tf.obs;
    auto sys = core::run_system(cfg);
    auto s = core::summarize(*sys);
    bench::finalize_incidents(*sys);
    bench::export_traces(*sys, tf);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
    t.add_row({metrics::Table::num(w, 0), metrics::Table::num(100.0 / (1.0 + w), 0),
               metrics::Table::num(s.total_drops),
               metrics::Table::num(s.latency.vlrt_count)});
  }
  std::puts(t.to_string().c_str());
}

void sweep_backlog(const bench::BenchFlags& tf, bench::BenchPerf& perf) {
  // §V-E's second component: the TCP buffer. Larger backlogs postpone
  // drops but queue more requests — the bufferbloat trade-off that made
  // the networking community keep the buffer small.
  std::puts("(4) TCP backlog sweep (bufferbloat trade-off)");
  metrics::Table t({"backlog", "MaxSysQDepth(web)", "drops", "vlrt", "p99_ms", "p99.9_ms"});
  for (std::size_t backlog : {32u, 128u, 512u, 2048u, 8192u}) {
    auto cfg = base();
    cfg.system.backlog = backlog;
    cfg.system.web_processes = 1;
    cfg.name = "abl-backlog-" + std::to_string(backlog);
    cfg.trace = tf.config;
    cfg.obs = tf.obs;
    auto sys = core::run_system(cfg);
    auto s = core::summarize(*sys);
    bench::finalize_incidents(*sys);
    bench::export_traces(*sys, tf);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
    t.add_row({metrics::Table::num(std::uint64_t{backlog}),
               metrics::Table::num(std::uint64_t{cfg.system.web_threads + backlog}),
               metrics::Table::num(s.total_drops),
               metrics::Table::num(s.latency.vlrt_count),
               metrics::Table::num(s.latency.p99.to_millis(), 0),
               metrics::Table::num(s.latency.p999.to_millis(), 0)});
  }
  std::puts(t.to_string().c_str());
  std::puts("bigger buffers trade dropped-packet VLRT for queueing delay on every\n"
            "request behind the bottleneck (bufferbloat), and still drop once full.\n");
}

void sweep_rto(const bench::BenchFlags& tf, bench::BenchPerf& perf) {
  std::puts("(3) RTO policy: latency mode positions");
  for (bool exponential : {false, true}) {
    auto cfg = base();
    cfg.duration = sim::Duration::seconds(60);
    const auto policy =
        exponential ? net::RtoPolicy::rhel6() : net::RtoPolicy::fixed3s();
    cfg.workload.client_rto = policy;
    cfg.system.tier_rto = policy;
    cfg.name = exponential ? "abl-rto-exponential" : "abl-rto-fixed3s";
    cfg.trace = tf.config;
    cfg.obs = tf.obs;
    auto sys = core::run_system(cfg);
    bench::finalize_incidents(*sys);
    bench::export_traces(*sys, tf);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
    std::printf("%s backoff: modes at", exponential ? "exponential" : "fixed-3s");
    for (auto m : sys->latency().histogram().modes(3))
      std::printf(" %.1fs", m.to_seconds());
    std::printf("  (drops=%llu)\n",
                static_cast<unsigned long long>(core::summarize(*sys).total_drops));
  }
  std::puts("");
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ablation_qdepth");
  sweep_threads(tf, perf);
  sweep_weight(tf, perf);
  sweep_backlog(tf, perf);
  sweep_rto(tf, perf);
  perf.print();
  return 0;
}
