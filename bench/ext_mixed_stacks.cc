// Extension study: the paper's "if (and only if)" claim.
//
// §I: "Under moderate resource utilization levels, the CTQO problem
// disappears completely if (and only if) all the servers are
// asynchronous." The paper evaluates the front-to-back replacement
// order (NX=1,2,3); here we run ALL 8 sync/async combinations of a
// 3-tier chain under the same app-tier millibottleneck and check that
// exactly one combination — all-async — is drop-free.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "graph/graph_system.h"
#include "graph/topology.h"
#include "metrics/table.h"

using namespace ntier;

namespace {

graph::GraphConfig combo(bool web_async, bool app_async, bool db_async) {
  auto kind = [](bool async) { return async ? "async" : "sync"; };
  const std::string name = std::string("mixed-") + (web_async ? "a" : "s") +
                           (app_async ? "a" : "s") + (db_async ? "a" : "s");
  // The db's active/liteq pair is InnoDB thread concurrency and its wait
  // queue; the millibottleneck sits in the app tier (the paper's
  // consolidation case).
  return graph::parse_topology(
      "graph " + name + "\n"
      "sessions 7000\n"
      "duration 40s\n"
      "node web kind=" + kind(web_async) + " threads=150 work=cpu:60us,down,cpu:40us\n"
      "node app kind=" + kind(app_async) + " threads=150 work=cpu:150us,down,cpu:600us\n"
      "node db kind=" + kind(db_async) + " threads=100 active=8 liteq=2000 work=cpu:400us\n"
      "edge web app\n"
      "edge app db\n"
      "freeze app first=8s period=12s pause=700ms\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto tf = bench::parse_bench_flags(argc, argv);
  if (tf.bad) return 2;
  bench::BenchPerf perf("ext_mixed_stacks");
  metrics::Table t({"web", "app", "db", "web_drops", "app_drops", "db_drops",
                    "vlrt", "ctqo_free"});
  for (int mask = 0; mask < 8; ++mask) {
    const bool web = (mask & 4) != 0;
    const bool app = (mask & 2) != 0;
    const bool db = (mask & 1) != 0;
    auto gcfg = combo(web, app, db);
    gcfg.trace = tf.config;
    gcfg.obs = tf.obs;
    graph::GraphSystem sys(std::move(gcfg));
    sys.run();
    t.add_row({web ? "async" : "sync", app ? "async" : "sync", db ? "async" : "sync",
               metrics::Table::num(sys.server_flat(0)->stats().dropped),
               metrics::Table::num(sys.server_flat(1)->stats().dropped),
               metrics::Table::num(sys.server_flat(2)->stats().dropped),
               metrics::Table::num(sys.latency().vlrt_count()),
               sys.total_drops() == 0 ? "YES" : "no"});
    bench::finalize_incidents(sys);
    bench::export_traces(sys, tf);
    bench::maybe_dashboard(sys, tf);
    perf.add_events(sys.simulation().events_executed());
  }
  std::puts("All 8 sync/async combinations under the same app-tier millibottleneck:");
  std::puts(t.to_string().c_str());
  std::puts("paper claim: CTQO disappears if and only if all servers are async.");
  perf.print();
  return 0;
}
