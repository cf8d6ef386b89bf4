// Tests for the obs layer: detector state machines on synthetic window
// series, flight-recorder ring/freeze/retroactive-window semantics, and
// the end-to-end contract on the fig 5 log-flush scenario — online
// detection fires on the right series before the first VLRT, the
// retroactive dump covers the causal drop episode, and (DESIGN.md
// invariant 10) enabling detection leaves every artifact byte-identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/correlate.h"
#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/manifest.h"
#include "core/scenarios.h"
#include "obs/detector.h"
#include "obs/flight_recorder.h"
#include "obs/incident_monitor.h"
#include "report/dashboard.h"
#include "trace/span.h"
#include "trace/tracer.h"

namespace ntier::obs {
namespace {

using sim::Duration;
using sim::Time;

// ---------------------------------------------------------------- detectors

// Feeds `n` copies of `value` and returns how many fire/clear edges
// were produced.
struct Edges {
  int fires = 0;
  int clears = 0;
};
Edges feed(Detector& d, double value, int n) {
  Edges e;
  for (int i = 0; i < n; ++i) {
    switch (d.observe(value)) {
      case Detector::Edge::kFire: ++e.fires; break;
      case Detector::Edge::kClear: ++e.clears; break;
      case Detector::Edge::kNone: break;
    }
  }
  return e;
}

TEST(DetectorThreshold, ArmsAfterConsecutiveWindowsAndClearsAfterCalm) {
  DetectorSpec s;
  s.kind = DetectorKind::kThreshold;
  s.threshold = 99.0;
  s.arm_windows = 2;
  s.clear_windows = 3;
  Detector d(s);

  EXPECT_EQ(d.observe(50.0), Detector::Edge::kNone);
  EXPECT_EQ(d.observe(100.0), Detector::Edge::kNone);  // over, 1 of 2
  EXPECT_EQ(d.observe(100.0), Detector::Edge::kFire);  // armed
  EXPECT_TRUE(d.firing());
  EXPECT_EQ(d.observe(100.0), Detector::Edge::kNone);  // stays firing
  EXPECT_EQ(d.observe(50.0), Detector::Edge::kNone);   // calm, 1 of 3
  EXPECT_EQ(d.observe(50.0), Detector::Edge::kNone);
  EXPECT_EQ(d.observe(50.0), Detector::Edge::kClear);
  EXPECT_FALSE(d.firing());
}

TEST(DetectorThreshold, SingleWindowSpikeDoesNotFire) {
  DetectorSpec s;
  s.kind = DetectorKind::kThreshold;
  s.threshold = 99.0;
  s.arm_windows = 2;
  Detector d(s);
  // Alternating spikes never accumulate two consecutive over-windows.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(d.observe(100.0), Detector::Edge::kNone);
    EXPECT_EQ(d.observe(0.0), Detector::Edge::kNone);
  }
  EXPECT_FALSE(d.firing());
}

TEST(DetectorEwmaZ, SilentDuringWarmupThenFiresOnStep) {
  DetectorSpec s;
  s.kind = DetectorKind::kEwmaZ;
  s.z_fire = 4.0;
  s.min_sigma = 1.0;
  s.warmup_windows = 5;
  s.arm_windows = 1;
  Detector d(s);

  // A huge value inside the warmup window must not fire.
  EXPECT_EQ(d.observe(0.0), Detector::Edge::kNone);
  EXPECT_EQ(d.observe(1000.0), Detector::Edge::kNone);

  Detector fresh(s);
  EXPECT_EQ(feed(fresh, 10.0, 10).fires, 0);  // flat baseline, z == 0
  // Step change: z = (100 - ~10) / max(sigma, 1) >> z_fire.
  EXPECT_EQ(fresh.observe(100.0), Detector::Edge::kFire);
  EXPECT_GE(fresh.statistic(), s.z_fire);
}

TEST(DetectorBurnRate, StatisticIsBadFractionOverBudget) {
  DetectorSpec s;
  s.kind = DetectorKind::kBurnRate;
  s.slo = 0.0;       // any VLRT in the window burns budget
  s.budget = 0.02;
  s.lookback_windows = 40;
  s.burn_fire = 2.0;
  s.burn_clear = 1.0;
  s.arm_windows = 1;
  Detector d(s);

  EXPECT_EQ(feed(d, 0.0, 40).fires, 0);  // clean history, burn 0
  // One bad window: bad_frac 1/40 = 0.025, burn 0.025/0.02 = 1.25.
  EXPECT_EQ(d.observe(1.0), Detector::Edge::kNone);
  EXPECT_DOUBLE_EQ(d.statistic(), 1.25);
  // A second bad window pushes burn to 2.5 >= burn_fire.
  EXPECT_EQ(d.observe(1.0), Detector::Edge::kFire);
  EXPECT_DOUBLE_EQ(d.statistic(), 2.5);
  // Once the bad windows age out of the lookback the burn collapses and
  // the detector clears after clear_windows of calm.
  EXPECT_EQ(feed(d, 0.0, 80).clears, 1);
  EXPECT_FALSE(d.firing());
}

TEST(DetectorCusum, IntegratesPersistentShiftAndDrains) {
  DetectorSpec s;
  s.kind = DetectorKind::kCusum;
  s.cusum_ref = 0.0;
  s.cusum_k = 0.5;
  s.cusum_h = 3.0;
  s.arm_windows = 1;
  s.clear_windows = 2;
  Detector d(s);

  // 1.0 per window accumulates (1.0 - 0.5) = 0.5 of evidence a window:
  // S reaches h = 3.0 on the 6th window.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d.observe(1.0), Detector::Edge::kNone);
  EXPECT_EQ(d.observe(1.0), Detector::Edge::kFire);
  EXPECT_DOUBLE_EQ(d.statistic(), 3.0);
  // The clamp at 2h bounds the drain time no matter how long the shift
  // lasted; calm windows then drain S back to zero and clear.
  EXPECT_EQ(feed(d, 1.0, 100).fires, 0);  // still firing, no re-fire
  EXPECT_LE(d.statistic(), 2.0 * s.cusum_h);
  EXPECT_EQ(feed(d, 0.0, 40).clears, 1);
  EXPECT_FALSE(d.firing());
}

TEST(DetectorCusum, BelowSlackNeverAccumulates) {
  DetectorSpec s;
  s.kind = DetectorKind::kCusum;
  s.cusum_ref = 0.0;
  s.cusum_k = 0.5;
  s.cusum_h = 3.0;
  Detector d(s);
  EXPECT_EQ(feed(d, 0.4, 200).fires, 0);  // under the slack k forever
  EXPECT_DOUBLE_EQ(d.statistic(), 0.0);
}

TEST(DefaultSuite, BindsEveryGroupSignalPlusVlrtBurnRate) {
  SeriesGroup g;
  g.name = "apache";
  g.saturation = {"apache.busy", "apachedisk.busy"};
  g.queue = "apache.queue";
  g.dropped = "apache.dropped";
  const auto suite = default_suite({g}, 0.5);

  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "sat:apache.busy");
  EXPECT_EQ(suite[0].kind, DetectorKind::kThreshold);
  EXPECT_EQ(suite[0].severity, Severity::kCritical);
  EXPECT_EQ(suite[1].name, "sat:apachedisk.busy");
  EXPECT_EQ(suite[2].name, "queue:apache.queue");
  EXPECT_EQ(suite[2].kind, DetectorKind::kEwmaZ);
  EXPECT_EQ(suite[3].name, "drops:apache.dropped");
  EXPECT_EQ(suite[3].kind, DetectorKind::kCusum);
  EXPECT_EQ(suite[4].name, "slo:vlrt");
  EXPECT_EQ(suite[4].series, std::string(kVlrtSeries));
  EXPECT_EQ(suite[4].kind, DetectorKind::kBurnRate);
  EXPECT_DOUBLE_EQ(suite[4].slo, 0.5);
}

// ---------------------------------------------------------- flight recorder

// A pooled one-span trace [begin_s, end_s); end_s < 0 leaves the root
// unclosed (request still in flight when the run ends).
trace::TracePtr make_trace(std::uint64_t id, double begin_s, double end_s) {
  trace::TracePtr t = trace::trace_pool().make(id);
  const std::uint64_t root = t->open(trace::SpanKind::kRequest, trace::intern_site("client"),
                                     trace::kNoSpan, Time::from_seconds(begin_s));
  if (end_s >= 0.0) t->close(root, Time::from_seconds(end_s));
  return t;
}

TEST(FlightRecorder, RingEvictsOldestWhileHealthy) {
  FlightRecorderConfig cfg;
  cfg.ring_capacity = 4;
  FlightRecorder fr(cfg);
  for (std::uint64_t i = 0; i < 10; ++i)
    fr.offer(make_trace(i, static_cast<double>(i), static_cast<double>(i) + 0.5));

  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.offered(), 10u);
  EXPECT_EQ(fr.evicted(), 6u);
  const auto kept = fr.window_snapshot(Time::origin(), Time::from_seconds(100.0));
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front()->request_id(), 6u);  // oldest survivor, oldest first
  EXPECT_EQ(kept.back()->request_id(), 9u);
}

TEST(FlightRecorder, FreezeStopsEvictionAndThawRetrims) {
  FlightRecorderConfig cfg;
  cfg.ring_capacity = 2;
  FlightRecorder fr(cfg);
  fr.offer(make_trace(0, 0.0, 0.1));
  fr.offer(make_trace(1, 1.0, 1.1));
  fr.freeze();
  ASSERT_TRUE(fr.frozen());
  for (std::uint64_t i = 2; i < 5; ++i)
    fr.offer(make_trace(i, static_cast<double>(i), static_cast<double>(i) + 0.1));
  // Frozen: the pre-trigger half of the window is still retained.
  EXPECT_EQ(fr.size(), 5u);
  EXPECT_EQ(fr.evicted(), 0u);
  fr.thaw();
  EXPECT_FALSE(fr.frozen());
  EXPECT_EQ(fr.size(), 2u);
  EXPECT_EQ(fr.evicted(), 3u);
}

TEST(FlightRecorder, WindowSnapshotSelectsOverlappingRoots) {
  FlightRecorderConfig cfg;
  cfg.ring_capacity = 16;
  FlightRecorder fr(cfg);
  fr.offer(make_trace(0, 1.0, 2.0));
  fr.offer(make_trace(1, 3.0, 4.0));
  fr.offer(make_trace(2, 5.0, 6.0));

  const auto hit = fr.window_snapshot(Time::from_seconds(2.5), Time::from_seconds(4.5));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit.front()->request_id(), 1u);
  EXPECT_TRUE(fr.window_snapshot(Time::from_seconds(6.5), Time::from_seconds(7.0)).empty());
}

TEST(FlightRecorder, UnclosedRootOverlapsEveryLaterWindow) {
  FlightRecorderConfig cfg;
  cfg.ring_capacity = 16;
  FlightRecorder fr(cfg);
  fr.offer(make_trace(7, 1.0, -1.0));  // still open at run end

  const auto hit =
      fr.window_snapshot(Time::from_seconds(100.0), Time::from_seconds(200.0));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit.front()->request_id(), 7u);
  // ...but not windows that end before it began.
  EXPECT_TRUE(fr.window_snapshot(Time::origin(), Time::from_seconds(0.5)).empty());
}

// ------------------------------------------------------------- integration

// Shortened fig 5 log-flush scenario: the collectl flush hits the MySQL
// disk at 10 s, so 16 s covers one full millibottleneck + VLRT cycle.
core::ExperimentConfig fig5_short() {
  auto cfg = core::scenarios::fig5_logflush_sync();
  cfg.duration = Duration::seconds(16);
  cfg.trace.mode = trace::TraceMode::kSampled;  // flight recorder needs spans
  cfg.trace.sample_every_n = 20;
  return cfg;
}

// One obs-enabled run shared by the assertions below (16 s of simulated
// traffic is the expensive part; run it once).
struct Fig5Run {
  std::unique_ptr<core::NTierSystem> sys;
  core::CtqoReport ctqo;
  core::CorrelationReport corr;
};
const Fig5Run& obs_run() {
  static Fig5Run* r = [] {
    auto* out = new Fig5Run;
    auto cfg = fig5_short();
    cfg.obs.enabled = true;  // out_dir empty: detection + in-memory dump only
    out->sys = core::run_system(cfg);
    out->sys->obs()->finalize(out->sys->simulation().now());
    out->ctqo = core::analyze_ctqo(*out->sys);
    out->corr = core::correlate(*out->sys);
    return out;
  }();
  return *r;
}

TEST(ObsIntegration, DetectionOnIsByteIdenticalToDetectionOff) {
  auto base = core::run_system(fig5_short());
  EXPECT_EQ(base->obs(), nullptr);  // disabled config builds no monitor

  const Fig5Run& r = obs_run();
  ASSERT_NE(r.sys->obs(), nullptr);
  EXPECT_FALSE(r.sys->obs()->incidents().empty());  // the monitor did real work

  // Invariant 10: same events, same telemetry, same artifacts.
  EXPECT_EQ(base->simulation().events_executed(),
            r.sys->simulation().events_executed());
  EXPECT_EQ(base->registry().snapshot(), r.sys->registry().snapshot());
  EXPECT_EQ(core::run_manifest_json(*base), core::run_manifest_json(*r.sys));
  auto base_ctqo = core::analyze_ctqo(*base);
  const auto base_corr = core::correlate(*base);
  EXPECT_EQ(report::render_dashboard(*base, base_ctqo, base_corr),
            report::render_dashboard(*r.sys, r.ctqo, r.corr));  // om omitted
}

TEST(ObsIntegration, OnlineDetectionNamesTheBottleneckBeforeFirstVlrt) {
  const Fig5Run& r = obs_run();
  const IncidentMonitor* om = r.sys->obs();
  const auto& incs = om->incidents();
  ASSERT_FALSE(incs.empty());

  // Attribution: the first saturation incident names the same series the
  // offline correlation engine ranks as the bottleneck (the MySQL disk).
  const Incident* first_sat = nullptr;
  for (const auto& inc : incs)
    if (inc.kind == DetectorKind::kThreshold) { first_sat = &inc; break; }
  ASSERT_NE(first_sat, nullptr);
  EXPECT_EQ(first_sat->series, "dbdisk.busy");
  EXPECT_EQ(first_sat->series, r.corr.bottleneck_series);

  // Latency: the alarm precedes the first VLRT completion (the paper's
  // point — the cause is visible one TCP RTO before the symptom).
  const auto& vlrt = r.sys->latency().vlrt_per_window();
  Time first_vlrt = Time::origin();
  bool saw_vlrt = false;
  for (std::size_t i = 0; i < vlrt.window_count() && !saw_vlrt; ++i) {
    if (vlrt.value_at(i) > 0.0) {
      first_vlrt = vlrt.window_start(i);
      saw_vlrt = true;
    }
  }
  ASSERT_TRUE(saw_vlrt);  // fig 5 at 16 s produces VLRTs
  EXPECT_LT(incs.front().fired_at, first_vlrt);
}

TEST(ObsIntegration, RetroactiveDumpCoversTheCausalEpisode) {
  const Fig5Run& r = obs_run();
  const IncidentMonitor* om = r.sys->obs();
  ASSERT_TRUE(om->have_dump_window());
  ASSERT_FALSE(r.ctqo.episodes.empty());

  // The window [T-W, T+W] around the first fire must overlap the first
  // drop episode — the cause, not just the VLRT aftermath.
  const auto& ep = r.ctqo.episodes.front();
  EXPECT_LE(om->dump_from(), ep.end);
  EXPECT_GE(om->dump_to(), ep.start);
  // Tracing was on, so the frozen ring held span trees from the window.
  EXPECT_GT(om->dumped_traces(), 0u);
  ASSERT_NE(om->recorder(), nullptr);
  EXPECT_GT(om->recorder()->offered(), 0u);
}

TEST(ObsIntegration, SummaryAndManifestBlockAreConditional) {
  const Fig5Run& r = obs_run();
  const IncidentSummary s = r.sys->obs()->summary();
  EXPECT_EQ(s.count, r.sys->obs()->incidents().size());
  EXPECT_GE(s.count, s.open);
  EXPECT_GE(s.first_fire_s, 0.0);
  std::uint64_t by_det_total = 0;
  for (const auto& [name, n] : s.by_detector) by_det_total += n;
  EXPECT_EQ(by_det_total, s.count);

  // The manifest grows an "incidents" block only when a summary with
  // count > 0 is passed; otherwise the bytes are the incident-free ones.
  const std::string plain = core::run_manifest_json(*r.sys);
  const std::string with_incs = core::run_manifest_json(*r.sys, nullptr, &s);
  EXPECT_EQ(plain.find("\"incidents\""), std::string::npos);
  EXPECT_NE(with_incs.find("\"incidents\""), std::string::npos);
  EXPECT_NE(with_incs.find("\"count\""), std::string::npos);
}

TEST(ObsIntegration, DashboardIncidentSectionIsConditional) {
  const Fig5Run& r = obs_run();
  const std::string with_om =
      report::render_dashboard(*r.sys, r.ctqo, r.corr, r.sys->obs());
  EXPECT_NE(with_om.find("id=\"incident-data\""), std::string::npos);
  EXPECT_NE(with_om.find("<h3>Incidents ("), std::string::npos);
  EXPECT_NE(with_om.find("class='incident'"), std::string::npos);  // markers

  const std::string without_om = report::render_dashboard(*r.sys, r.ctqo, r.corr);
  EXPECT_EQ(without_om.find("id=\"incident-data\""), std::string::npos);
  EXPECT_EQ(without_om.find("<h3>Incidents ("), std::string::npos);
}

}  // namespace
}  // namespace ntier::obs
