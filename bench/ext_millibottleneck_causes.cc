// Extension study: other millibottleneck causes from the paper's
// literature — JVM GC pauses (ref [32]) and DVFS governor lag (ref
// [31]). The paper's claim is that asynchrony removes CTQO *regardless
// of the specific cause* of millibottlenecks; this bench checks that for
// both causes by running the sync and NX=3 stacks under identical
// injections.
#include <cstdio>

#include "bench_util.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "metrics/table.h"

using namespace ntier;

namespace {

void run_pair(const char* title, core::ExperimentConfig sync_cfg,
              core::ExperimentConfig async_cfg, const bench::BenchFlags& tf,
              bench::BenchPerf& perf) {
  std::printf("=== %s ===\n", title);
  metrics::Table t({"stack", "drops", "vlrt", "p99.9_ms", "episodes"});
  for (auto* cfg : {&sync_cfg, &async_cfg}) {
    cfg->trace = tf.config;
    cfg->obs = tf.obs;
    auto sys = core::run_system(*cfg);
    auto s = core::summarize(*sys);
    t.add_row({core::to_string(cfg->system.arch), metrics::Table::num(s.total_drops),
               metrics::Table::num(s.latency.vlrt_count),
               metrics::Table::num(s.latency.p999.to_millis(), 0),
               metrics::Table::num(std::uint64_t{s.ctqo.episodes.size()})});
    if (cfg->system.arch == core::Architecture::kSync && !s.ctqo.episodes.empty())
      std::fputs(s.ctqo.to_string().c_str(), stdout);
    bench::finalize_incidents(*sys);
    bench::export_traces(*sys, tf);
    bench::maybe_dashboard(*sys, tf);
    perf.add_events(sys->simulation().events_executed());
  }
  std::puts(t.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ext_millibottleneck_causes");
  run_pair("GC-pause millibottlenecks in the app tier (450 ms every 12 s)",
           core::scenarios::ext_gc_pause(core::Architecture::kSync),
           core::scenarios::ext_gc_pause(core::Architecture::kNx3), tf, perf);

  run_pair("DVFS governor lag in the app tier (min 30% freq, 2 s governor interval)",
           core::scenarios::ext_dvfs(core::Architecture::kSync),
           core::scenarios::ext_dvfs(core::Architecture::kNx3), tf, perf);

  // Governor detail for the DVFS case.
  auto sys = core::run_system(core::scenarios::ext_dvfs(core::Architecture::kSync));
  std::printf("DVFS(sync): %.1fs throttled below max frequency, %zu freq changes\n",
              sys->dvfs()->throttled_seconds(), sys->dvfs()->history().size());
  perf.add_events(sys->simulation().events_executed());
  perf.print();
  return 0;
}
