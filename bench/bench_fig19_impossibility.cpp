// E8 — §7 / Figures 19-22: the impossibility construction. The discrete
// spiral plus the sliver-flattening adversary (NestA, unbounded nesting)
// breaks the visibility between X_A and X_B for a cohesive error-tolerant
// algorithm; truncating the adversary's asynchrony (k-Async scheduling with
// KKNPS's matching 1/k scaling) preserves it — the separation headline.
#include <iostream>

#include "adversary/spiral.hpp"
#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/visibility.hpp"
#include "metrics/configurations.hpp"
#include "metrics/table.hpp"
#include "sched/asynchronous.hpp"

using namespace cohesion;

int main() {
  std::cout << "E8 / §7 impossibility — spiral + sliver flattening (V = 1)\n\n";

  metrics::Table table({"psi", "n", "zeta(X_A move)", "|X_A X_B|_final", "broken", "max_drift",
                        "nested_activations", "schedule_nested"});
  for (const double psi : {0.35, 0.30, 0.25}) {
    const auto r = adversary::run_spiral_experiment(psi, 0.92);
    table.add_row(psi, r.robot_count, r.zeta, r.final_separation_ab,
                  r.visibility_broken ? "YES" : "no", r.max_chain_drift, r.nesting_depth,
                  r.schedule_nested ? "yes" : "NO");
  }
  table.print();

  // Control: the same spiral under *bounded* asynchrony with KKNPS —
  // initially visible pairs never separate.
  std::cout << "\nControl: spiral configuration, KKNPS under k-Async (bounded)\n\n";
  metrics::Table control({"k", "activations", "worst_initial_stretch", "still_connected"});
  for (const std::size_t k : {1u, 4u}) {
    const auto cfg = metrics::spiral_configuration(0.30, 0.92);
    const algo::KknpsAlgorithm algo({.k = k});
    sched::KAsyncScheduler::Params p;
    p.k = k;
    p.seed = 5 + k;
    sched::KAsyncScheduler sched(cfg.positions.size(), p);
    core::EngineConfig ecfg;
    ecfg.visibility.radius = 1.0;
    core::Engine engine(cfg.positions, algo, sched, ecfg);
    const std::size_t steps = engine.run(cfg.positions.size() * 200);
    double worst = 0.0;
    const auto& trace = engine.trace();
    const core::VisiblePairs initial_pairs(cfg.positions, 1.0);
    for (double t = 0.0; t <= trace.end_time() + 1.0; t += 1.0) {
      worst = std::max(worst, initial_pairs.worst_stretch(trace.configuration(t)));
    }
    const bool connected =
        core::VisibilityGraph(engine.current_configuration(), 1.0).connected();
    control.add_row(k, steps, worst, connected ? "yes" : "NO");
  }
  control.print();
  std::cout << "\nExpected shape: unbounded nesting breaks A-B visibility (> 1) with\n"
            << "chain drift O(psi^2); bounded k-Async with the 1/k-scaled algorithm\n"
            << "keeps every initial pair within V — the paper's separation between\n"
            << "bounded and unbounded asynchrony.\n";
  return 0;
}
