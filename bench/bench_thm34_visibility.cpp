// E5 — Theorems 3 and 4: visibility preservation under k-NestA and k-Async.
// Sweep n x k x scheduler; report the worst stretch of initially visible
// pairs (must stay <= 1) and whether acquired strong visibility (<= V/2)
// was ever lost (must never happen).
#include <iostream>
#include <memory>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/validators.hpp"
#include "core/visibility.hpp"
#include "metrics/configurations.hpp"
#include "metrics/table.hpp"
#include "sched/asynchronous.hpp"

using namespace cohesion;

int main() {
  std::cout << "E5 / Theorems 3-4 — visibility preservation sweep (V = 1)\n\n";
  metrics::Table table({"scheduler", "n", "k", "activations", "worst_initial_stretch",
                        "max_pair_growth", "acquired_lost", "trace_certified"});

  for (const bool nested : {true, false}) {
    for (const std::size_t n : {8u, 16u, 32u}) {
      for (const std::size_t k : {1u, 2u, 4u, 8u}) {
        const algo::KknpsAlgorithm algo({.k = k});
        const auto initial =
            metrics::random_connected_configuration(n, 0.45 * std::sqrt(double(n)), 1.0, 97 + n + k);

        std::unique_ptr<core::Scheduler> sched;
        if (nested) {
          sched::KNestAScheduler::Params p;
          p.k = k;
          p.seed = 7 * n + k;
          p.xi = 0.3;
          sched = std::make_unique<sched::KNestAScheduler>(n, p);
        } else {
          sched::KAsyncScheduler::Params p;
          p.k = k;
          p.seed = 7 * n + k;
          p.xi = 0.3;
          sched = std::make_unique<sched::KAsyncScheduler>(n, p);
        }

        core::EngineConfig cfg;
        cfg.visibility.radius = 1.0;
        cfg.seed = n * 1000 + k;
        core::Engine engine(initial, algo, *sched, cfg);
        const std::size_t steps = engine.run(n * 600);

        // Audit the trace.
        const core::Trace& trace = engine.trace();
        double worst = 0.0;
        double max_growth = 0.0;  // worst (d_t - d_0) over initially visible pairs
        bool acquired_lost = false;
        std::vector<std::vector<bool>> acquired(n, std::vector<bool>(n, false));
        const double end = trace.end_time() + 1.0;
        const core::VisiblePairs initial_pairs(initial, 1.0);
        for (double t = 0.0; t <= end; t += 0.5) {
          const auto c = trace.configuration(t);
          worst = std::max(worst, initial_pairs.worst_stretch(c));
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
              const double d = c[i].distance_to(c[j]);
              const double d0 = initial[i].distance_to(initial[j]);
              if (d0 <= 1.0 + 1e-12) max_growth = std::max(max_growth, d - d0);
              if (acquired[i][j] && d > 1.0 + 1e-9) acquired_lost = true;
              if (d <= 0.5 + 1e-12) acquired[i][j] = true;
            }
          }
        }
        const bool certified =
            nested ? core::is_k_nesta(trace, k) : core::is_k_async(trace, k);
        table.add_row(nested ? "k-NestA" : "k-Async", n, k, steps, worst, max_growth,
                      acquired_lost ? "YES" : "no", certified ? "yes" : "NO");
      }
    }
  }
  table.print();
  std::cout << "\nExpected shape: worst_initial_stretch <= 1 and acquired_lost = no in\n"
            << "every row — Theorems 3 and 4.\n";
  return 0;
}
