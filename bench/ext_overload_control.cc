// Extension study: which server-side overload controls turn a
// metastable retry storm back into a bounded outage?
//
// The scenario (core/scenarios.h ext_overload_control) runs the sync
// stack near saturation under the storm-prone client configuration
// (1 s attempt timeout, 4 attempts, synchronized 10 ms backoff, no
// budget), then throttles the app host to 15% speed for 2 s. The fault
// is transient; the verdict is about what happens after it clears:
//
//   - With no admission control the backlog built during the window is
//     sustained by client retries and 3 s TCP retransmits — offered
//     load stays above drain rate and the queues never return to their
//     pre-fault band. The verdict engine calls this kMetastable.
//   - Shedding policies (queue-cap, CoDel, adaptive-LIFO, token
//     bucket, brownout) convert the excess into immediate retryable
//     errors; failed clients burn their attempts in milliseconds and
//     back off into 7 s think time, which is exactly the load drop the
//     closed loop needs. The verdict engine reports kRecovered plus a
//     time-to-recovery.
//
// The bench asserts the headline result deterministically: kNone must
// be judged metastable, and CoDel + adaptive-LIFO must recover (the
// acceptance criteria of this study). --quick runs just those two ends
// of the spectrum.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/metastability.h"
#include "core/scenarios.h"
#include "metrics/table.h"

using namespace ntier;
using core::scenarios::OverloadChoice;

namespace {

// The judged fault window must match the scenario's SlowNodeWindow.
core::RecoveryOptions verdict_options() {
  core::RecoveryOptions opt;
  opt.fault_start = sim::Time::from_seconds(12.0);
  opt.fault_clear = sim::Time::from_seconds(14.0);
  opt.horizon = sim::Duration::seconds(25);
  return opt;
}

struct RunResult {
  OverloadChoice choice;
  core::MetastabilityVerdict verdict;
  core::ExperimentSummary summary;
  std::uint64_t shed = 0;       // admission + dequeue sheds, web + app
  std::uint64_t degraded = 0;   // brownout degradations, web + app
};

RunResult run_policy(OverloadChoice choice, const bench::BenchFlags& tf,
                     bench::BenchPerf& perf) {
  auto cfg = core::scenarios::ext_overload_control(choice);
  cfg.trace = tf.config;
  cfg.obs = tf.obs;
  auto sys = core::run_system(cfg);
  RunResult r;
  r.choice = choice;
  r.summary = core::summarize(*sys);
  r.verdict = core::classify_recovery(
      {sys->web()->name(), sys->app()->name(), sys->db()->name()}, sys->sampler(),
      verdict_options());
  for (auto* srv : {sys->web(), sys->app()}) {
    if (const auto* c = srv->overload()) {
      r.shed += c->stats().total_shed();
      r.degraded += c->stats().degraded;
    }
  }
  bench::finalize_incidents(*sys);
  bench::export_traces(*sys, tf);
  bench::maybe_dashboard(*sys, tf);
  perf.add_events(sys->simulation().events_executed());
  return r;
}

const char* verdict_cell(const RunResult& r) {
  return r.verdict.regime == core::Regime::kRecovered ? "recovered" : "METASTABLE";
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ext_overload_control");

  std::vector<OverloadChoice> sweep;
  if (tf.quick) {
    sweep = {OverloadChoice::kNone, OverloadChoice::kCoDel};
  } else {
    sweep = {OverloadChoice::kNone,         OverloadChoice::kQueueCap,
             OverloadChoice::kTokenBucket,  OverloadChoice::kCoDel,
             OverloadChoice::kAdaptiveLifo, OverloadChoice::kBrownout};
  }

  std::puts("=== overload control vs the metastable storm ===");
  std::puts("    (app host at 15% speed for 12s..14s; naive-retry clients, WL 8000)");
  metrics::Table t({"policy", "verdict", "ttr_s", "amplif", "shed", "degraded", "vlrt",
                    "drops", "failed", "goodput_rps"});
  std::vector<RunResult> results;
  for (auto c : sweep) {
    auto r = run_policy(c, tf, perf);
    t.add_row({core::scenarios::to_string(c), verdict_cell(r),
               r.verdict.regime == core::Regime::kRecovered
                   ? metrics::Table::num(r.verdict.time_to_recovery.to_seconds(), 1)
                   : std::string("-"),
               metrics::Table::num(r.verdict.storm_amplification, 2),
               metrics::Table::num(r.shed), metrics::Table::num(r.degraded),
               metrics::Table::num(r.summary.latency.vlrt_count),
               metrics::Table::num(r.summary.total_drops),
               metrics::Table::num(r.summary.failed_requests),
               metrics::Table::num(r.summary.throughput_rps, 0)});
    results.push_back(std::move(r));
  }
  std::puts(t.to_string().c_str());

  // Per-tier detail for the two headline runs.
  for (const auto& r : results) {
    if (r.choice != OverloadChoice::kNone && r.choice != OverloadChoice::kCoDel) continue;
    std::printf("--- %s ---\n%s", core::scenarios::to_string(r.choice),
                r.verdict.to_string().c_str());
    if (r.summary.ctqo.retry_storm_episodes > 0)
      std::printf("  analyzer: %llu storm episodes, longest %.1f s, peak retry "
                  "amplification %.2fx\n",
                  static_cast<unsigned long long>(r.summary.ctqo.retry_storm_episodes),
                  r.summary.ctqo.longest_storm.to_seconds(),
                  r.summary.ctqo.peak_retry_amplification);
  }

  // Acceptance: the uncontrolled baseline must be judged metastable and
  // the sojourn-control policies must restore bounded recovery.
  int failures = 0;
  for (const auto& r : results) {
    const bool is_recovered = r.verdict.regime == core::Regime::kRecovered;
    if (r.choice == OverloadChoice::kNone && is_recovered) {
      std::puts("FAIL: uncontrolled baseline recovered — no metastable storm to fix");
      ++failures;
    }
    if ((r.choice == OverloadChoice::kCoDel || r.choice == OverloadChoice::kAdaptiveLifo) &&
        !is_recovered) {
      std::printf("FAIL: %s did not recover within the horizon\n",
                  core::scenarios::to_string(r.choice));
      ++failures;
    }
  }
  if (failures == 0) std::puts("verdicts OK: baseline metastable, shedding recovers");
  perf.print();
  return failures == 0 ? 0 : 1;
}
