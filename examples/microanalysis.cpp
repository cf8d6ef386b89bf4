// Micro-level event analysis: the paper's methodology applied to one
// run. Traces every request of the Fig 3 scenario with the span tracer
// (trace/tracer.h), prints the span tree and critical path of a normal
// request next to a VLRT one, then the per-VLRT attribution over the
// whole population and the automatic CTQO classification.
#include <cstdio>
#include <vector>

#include "core/ctqo_analyzer.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "trace/critical_path.h"

int main() {
  using namespace ntier;

  auto cfg = core::scenarios::fig3_consolidation_sync();
  cfg.name = "microanalysis";
  cfg.trace.mode = trace::TraceMode::kAll;
  cfg.duration = sim::Duration::seconds(15);
  const auto sys = core::run_system(cfg);
  const trace::Tracer& tracer = *sys->tracer();
  const sim::Duration vlrt_threshold = tracer.config().vlrt_threshold;

  // The first finished request of each population.
  const trace::RequestTrace* normal = nullptr;
  const trace::RequestTrace* vlrt = nullptr;
  for (const auto& tr : tracer.traces()) {
    if (!tr || tr->empty() || !tr->root().closed()) continue;
    if (tr->total() >= vlrt_threshold) {
      if (vlrt == nullptr) vlrt = tr.get();
    } else if (normal == nullptr && tr->total() > sim::Duration::millis(2)) {
      normal = tr.get();
    }
  }

  // One line per span, indented by depth (parents precede children).
  auto dump = [](const char* title, const trace::RequestTrace* tr) {
    if (tr == nullptr) {
      std::printf("%s: none observed\n\n", title);
      return;
    }
    std::printf("%s: request %llu\n", title,
                static_cast<unsigned long long>(tr->request_id()));
    const auto& spans = tr->spans();
    std::vector<int> depth(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const trace::Span& s = spans[i];
      if (s.parent != trace::kNoSpan) depth[i] = depth[s.parent] + 1;
      std::printf("  %9.3fs %*s%s %.*s", s.begin.to_seconds(), 2 * depth[i], "",
                  trace::to_string(s.kind), static_cast<int>(s.site.view().size()),
                  s.site.view().data());
      if (s.closed()) std::printf("  (%.3f ms)", s.duration().to_millis());
      std::puts("");
    }
    std::printf("  critical path: %s\n\n", trace::critical_path(*tr).to_string().c_str());
  };

  std::puts("=== micro-level event analysis (paper §IV methodology) ===\n");
  dump("normal request", normal);
  dump("VLRT request", vlrt);

  // Population view: every VLRT's latency lives in the RTO waits in
  // front of the drop tier, not inside any tier — the CTQO signature.
  const auto report = core::analyze_ctqo(*sys);
  std::puts(core::attribute_vlrt(tracer.traces(), report, vlrt_threshold)
                .to_string()
                .c_str());

  std::puts("automatic classification of every drop episode:");
  std::puts(report.to_string().c_str());
  return 0;
}
