// Tests for the Markov session model, client timeouts, and the
// load-shedding admission alternative.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/scenarios.h"
#include "helpers.h"
#include "server/sync_server.h"
#include "workload/client.h"
#include "workload/session_model.h"

namespace ntier {
namespace {

using sim::Duration;
using sim::Time;

// --- SessionModel ----------------------------------------------------------

TEST(SessionModel, StationaryMatchesRubbosWeights) {
  const auto model = workload::SessionModel::rubbos_browse();
  const auto pi = model.stationary();
  ASSERT_EQ(pi.size(), 3u);
  EXPECT_NEAR(pi[0], 0.15, 0.01);
  EXPECT_NEAR(pi[1], 0.55, 0.01);
  EXPECT_NEAR(pi[2], 0.30, 0.01);
}

TEST(SessionModel, EmpiricalWalkMatchesStationary) {
  const auto model = workload::SessionModel::rubbos_browse();
  sim::Rng rng(5);
  std::vector<int> counts(3, 0);
  std::size_t state = 1;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    state = model.next(state, rng);
    ++counts[state];
  }
  const auto pi = model.stationary();
  for (int c = 0; c < 3; ++c)
    EXPECT_NEAR(counts[c] / double(n), pi[c], 0.01) << "class " << c;
}

TEST(SessionModel, DeterministicNextDistribution) {
  workload::SessionModel model({{1.0, 0.0}, {0.0, 1.0}});  // absorbing
  sim::Rng rng(1);
  EXPECT_EQ(model.next(0, rng), 0u);
  EXPECT_EQ(model.next(1, rng), 1u);
}

TEST(SessionModel, SystemLevelMixMatchesStationary) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 2000;
  cfg.workload.markov_sessions = true;
  cfg.duration = Duration::seconds(40);
  auto sys = core::run_system(cfg);
  const auto& lat = sys->latency();
  const double total = static_cast<double>(lat.completed());
  ASSERT_GT(total, 5000);
  EXPECT_NEAR(lat.class_stats(0).completed / total, 0.15, 0.03);
  EXPECT_NEAR(lat.class_stats(1).completed / total, 0.55, 0.03);
  EXPECT_NEAR(lat.class_stats(2).completed / total, 0.30, 0.03);
}

// --- client timeout --------------------------------------------------------

TEST(ClientTimeout, TimesOutSlowRequestsAndMovesOn) {
  sim::Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  auto* vm = host.add_vm("web");
  auto profile = test::one_class_profile();
  // Server so slow every request overruns the 100 ms timeout.
  server::SyncServer srv(
      sim, "web", vm, &profile,
      [](const server::RequestClassProfile&) {
        return test::cpu_only(Duration::millis(400));
      },
      server::SyncConfig{.threads_per_process = 1});
  workload::ClientConfig cc;
  cc.sessions = 1;
  cc.mean_think = Duration::millis(10);
  cc.timeout = Duration::millis(100);
  workload::ClientPool clients(sim, sim::Rng(3), &profile, &srv, cc);
  clients.start();
  sim.run_until(Time::from_seconds(3));
  EXPECT_GT(clients.timeouts(), 2u);
  EXPECT_EQ(clients.timeouts(), clients.failed());
  // The session kept going after each timeout (many re-issues despite
  // every request overrunning the timeout).
  EXPECT_GT(clients.issued(), 10u);
  EXPECT_EQ(clients.issued(), clients.completed() + clients.in_flight());
}

TEST(ClientTimeout, StaleResponseDiscarded) {
  // The server's late reply after a timeout must not double-complete.
  sim::Simulation sim;
  cpu::HostCpu host(sim, 1.0);
  auto* vm = host.add_vm("web");
  auto profile = test::one_class_profile();
  server::SyncServer srv(
      sim, "web", vm, &profile,
      [](const server::RequestClassProfile&) {
        return test::cpu_only(Duration::millis(200));
      },
      server::SyncConfig{.threads_per_process = 1});
  workload::ClientConfig cc;
  cc.sessions = 1;
  cc.mean_think = Duration::seconds(10);  // one request per window
  cc.timeout = Duration::millis(50);
  workload::ClientPool clients(sim, sim::Rng(4), &profile, &srv, cc);
  int notified = 0;
  clients.on_complete([&](const server::RequestPtr&) { ++notified; });
  clients.start();
  sim.run_until(Time::from_seconds(5));
  EXPECT_EQ(clients.completed(), static_cast<std::uint64_t>(notified));
  EXPECT_EQ(clients.issued(), clients.completed() + clients.in_flight());
}

TEST(ClientTimeout, NoTimeoutsWhenFast) {
  core::ExperimentConfig cfg;
  cfg.workload.sessions = 1000;
  cfg.workload.client_timeout = Duration::seconds(10);
  cfg.duration = Duration::seconds(10);
  auto sys = core::run_system(cfg);
  EXPECT_EQ(sys->clients().timeouts(), 0u);
}

// --- load shedding ----------------------------------------------------------

TEST(LoadShedding, TradesVlrtForFastFailures) {
  auto base = core::scenarios::fig3_consolidation_sync();
  base.duration = Duration::seconds(15);

  auto drop_cfg = base;
  auto sys_drop = core::run_system(drop_cfg);

  auto shed_cfg = base;
  shed_cfg.system.web_shed_on_overload = true;
  auto sys_shed = core::run_system(shed_cfg);

  // Shedding: no TCP drops at the web tier, failures instead, VLRT gone.
  auto* web = dynamic_cast<server::SyncServer*>(sys_shed->web());
  ASSERT_NE(web, nullptr);
  EXPECT_GT(web->shed_count(), 50u);
  EXPECT_EQ(sys_shed->web()->stats().dropped, 0u);
  EXPECT_GT(sys_shed->clients().failed(), 50u);
  EXPECT_LT(sys_shed->latency().vlrt_count(), sys_drop->latency().vlrt_count() / 5);

  // The dropping system has VLRT but (near) zero explicit failures.
  EXPECT_GT(sys_drop->latency().vlrt_count(), 100u);
  EXPECT_EQ(sys_drop->clients().failed(), 0u);
}

}  // namespace
}  // namespace ntier
