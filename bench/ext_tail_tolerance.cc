// Extension study: does the modern tail-tolerance toolkit tame CTQO
// millibottleneck tails — or amplify them?
//
// Three experiments, each sweeping the policy knob per mechanism:
//   1. Fig 3's consolidation millibottleneck on the sync stack (NX=0).
//      Near saturation, naive retries re-issue work into queues that
//      are already overflowing while the 3 s TCP retransmits of the
//      dropped originals are still in flight — the analyzer should
//      flag the resulting metastable drop chain as a retry storm, and
//      VLRT count should EXCEED the no-policy baseline. A retry budget
//      caps the amplification.
//   2. Fig 5's log-flush millibottleneck on NX=3 plus deterministic
//      lossy-link windows on the client hop. The baseline tail sits at
//      whole RTO multiples (~3/6 s); deadlines + hedging pull p99.9
//      down without adding a single server-side drop (the losses live
//      in the network, not in any tier's accept queue).
//   3. A combined fault schedule — DB crash-and-restart, app slow-node
//      window, degraded web->app link — exercising the injector end to
//      end on both stacks.
#include <cstdio>

#include "bench_util.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "metrics/table.h"

using namespace ntier;
using core::scenarios::TailPolicyChoice;

namespace {

core::ExperimentSummary run_row(metrics::Table& t, core::ExperimentConfig cfg,
                                const char* label, const bench::BenchFlags& tf,
                                bench::BenchPerf& perf) {
  cfg.trace = tf.config;
  cfg.obs = tf.obs;
  auto sys = core::run_system(cfg);
  auto s = core::summarize(*sys);
  t.add_row({label, metrics::Table::num(s.latency.vlrt_count),
             metrics::Table::num(s.latency.p999.to_millis(), 0),
             metrics::Table::num(s.total_drops), metrics::Table::num(s.failed_requests),
             metrics::Table::num(s.client_retries), metrics::Table::num(s.client_hedges),
             metrics::Table::num(s.deadline_cancels),
             metrics::Table::num(std::uint64_t{s.ctqo.episodes.size()}),
             metrics::Table::num(s.ctqo.retry_storm_episodes)});
  bench::finalize_incidents(*sys);
  bench::export_traces(*sys, tf);
  bench::maybe_dashboard(*sys, tf);
  perf.add_events(sys->simulation().events_executed());
  return s;
}

const TailPolicyChoice kSweep[] = {
    TailPolicyChoice::kNone,     TailPolicyChoice::kNaiveRetry,
    TailPolicyChoice::kBudgetedRetry, TailPolicyChoice::kDeadline,
    TailPolicyChoice::kHedge,    TailPolicyChoice::kBreaker,
    TailPolicyChoice::kDeadlineHedge, TailPolicyChoice::kFull};

metrics::Table make_table() {
  return metrics::Table({"policy", "vlrt", "p99.9_ms", "drops", "failed", "retries",
                         "hedges", "deadlineCancel", "episodes", "storms"});
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ext_tail_tolerance");
  // --- 1: retry amplification against Fig 3's millibottleneck (NX=0) ---
  std::puts("=== consolidation millibottleneck (fig 3), sync stack (NX=0) ===");
  {
    auto t = make_table();
    core::ExperimentSummary naive, none;
    for (auto c : kSweep) {
      auto s = run_row(t, core::scenarios::ext_tail_tolerance(core::Architecture::kSync, c),
                       core::scenarios::to_string(c), tf, perf);
      if (c == TailPolicyChoice::kNone) none = s;
      if (c == TailPolicyChoice::kNaiveRetry) {
        naive = s;
        if (!s.ctqo.episodes.empty()) std::fputs(s.ctqo.to_string().c_str(), stdout);
      }
    }
    std::puts(t.to_string().c_str());
    std::printf("naive-retry amplification: VLRT %llu (baseline) -> %llu (naive), "
                "%llu storm episodes flagged\n\n",
                static_cast<unsigned long long>(none.latency.vlrt_count),
                static_cast<unsigned long long>(naive.latency.vlrt_count),
                static_cast<unsigned long long>(naive.ctqo.retry_storm_episodes));
  }

  // --- 2: lossy-link windows against Fig 5's millibottleneck (NX=3) ---
  std::puts("=== log-flush millibottleneck (fig 5) + lossy client link, NX=3 ===");
  {
    auto t = make_table();
    core::ExperimentSummary none, full;
    for (auto c : kSweep) {
      auto s = run_row(t, core::scenarios::ext_lossy_link(core::Architecture::kNx3, c),
                       core::scenarios::to_string(c), tf, perf);
      if (c == TailPolicyChoice::kNone) none = s;
      if (c == TailPolicyChoice::kDeadlineHedge) full = s;
    }
    std::puts(t.to_string().c_str());
    std::printf("deadline+hedge tail rescue: p99.9 %.0f ms -> %.0f ms, drops %llu -> %llu\n\n",
                none.latency.p999.to_millis(), full.latency.p999.to_millis(),
                static_cast<unsigned long long>(none.total_drops),
                static_cast<unsigned long long>(full.total_drops));
  }

  // --- 3: the combined deterministic fault schedule, both stacks -------
  std::puts("=== fault schedule: DB crash @12s, app slow-node @28s, lossy link @44s ===");
  {
    auto t = make_table();
    for (auto arch : {core::Architecture::kSync, core::Architecture::kNx3}) {
      auto cfg = core::scenarios::ext_fault_injection(arch);
      cfg.trace = tf.config;
      cfg.obs = tf.obs;
      auto sys = core::run_system(cfg);
      auto s = core::summarize(*sys);
      t.add_row({core::to_string(arch), metrics::Table::num(s.latency.vlrt_count),
                 metrics::Table::num(s.latency.p999.to_millis(), 0),
                 metrics::Table::num(s.total_drops), metrics::Table::num(s.failed_requests),
                 metrics::Table::num(s.client_retries), metrics::Table::num(s.client_hedges),
                 metrics::Table::num(s.deadline_cancels),
                 metrics::Table::num(std::uint64_t{s.ctqo.episodes.size()}),
                 metrics::Table::num(s.ctqo.retry_storm_episodes)});
      const auto& fc = sys->faults()->counters();
      std::printf("%s injector: %llu crashes, %llu restarts, %llu link windows, "
                  "%llu slow-node windows\n",
                  core::to_string(arch), static_cast<unsigned long long>(fc.crashes),
                  static_cast<unsigned long long>(fc.restarts),
                  static_cast<unsigned long long>(fc.link_windows),
                  static_cast<unsigned long long>(fc.slow_windows));
      bench::finalize_incidents(*sys);
      bench::export_traces(*sys, tf);
      bench::maybe_dashboard(*sys, tf);
      perf.add_events(sys->simulation().events_executed());
    }
    std::puts(t.to_string().c_str());
  }
  perf.print();
  return 0;
}
