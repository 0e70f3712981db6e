#include "adversary/greedy_stretch.hpp"

#include <gtest/gtest.h>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/validators.hpp"
#include "core/visibility.hpp"
#include "metrics/configurations.hpp"

namespace cohesion::adversary {
namespace {

double worst_stretch_under_attack(const core::Algorithm& algo,
                                  const std::vector<geom::Vec2>& initial, std::size_t k,
                                  std::size_t steps, core::Trace* out_trace = nullptr) {
  GreedyStretchScheduler::Params p;
  p.k = k;
  p.visibility = 1.0;
  GreedyStretchScheduler sched(algo, initial, p);
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  core::Engine engine(initial, algo, sched, cfg);
  engine.run(steps);
  double worst = 0.0;
  const auto& trace = engine.trace();
  const core::VisiblePairs initial_pairs(initial, 1.0);
  for (double t = 0.0; t <= trace.end_time() + 1.0; t += 0.5) {
    worst = std::max(worst, initial_pairs.worst_stretch(trace.configuration(t)));
  }
  if (out_trace) *out_trace = trace;
  return worst;
}

TEST(GreedyStretch, RespectsKAsyncBound) {
  const algo::KknpsAlgorithm algo({.k = 2});
  const auto initial = metrics::line_configuration(6, 0.9);
  core::Trace trace;
  worst_stretch_under_attack(algo, initial, 2, 600, &trace);
  EXPECT_TRUE(core::is_k_async(trace, 2))
      << "max nested = " << core::max_activations_within_interval(trace);
  EXPECT_GT(trace.records().size(), 500u);
}

TEST(GreedyStretch, CannotBreakKknpsWithMatchingScaling) {
  // Theorem 4 must hold against this adversary like any other.
  for (const std::size_t k : {1u, 3u}) {
    const algo::KknpsAlgorithm algo({.k = k});
    const auto initial = metrics::random_connected_configuration(8, 1.1, 1.0, 5 + k);
    const double worst = worst_stretch_under_attack(algo, initial, k, 1500);
    EXPECT_LE(worst, 1.0 + 1e-9) << "k = " << k;
  }
}

TEST(GreedyStretch, FairnessForcingActivatesEveryRobot) {
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = metrics::line_configuration(5, 0.9);
  GreedyStretchScheduler::Params p;
  p.k = 1;
  p.visibility = 1.0;
  p.fairness_every = 4;
  GreedyStretchScheduler sched(algo, initial, p);
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  core::Engine engine(initial, algo, sched, cfg);
  engine.run(300);
  for (core::RobotId r = 0; r < initial.size(); ++r) {
    EXPECT_GT(engine.trace().activation_count(r), 0u) << "robot " << r << " never activated";
  }
}

TEST(GreedyStretch, FindsMoreStretchThanItConcedesToKknps) {
  // Sanity on adversarial strength: against Ando (no k-Async guarantee) the
  // greedy adversary extracts at least as much stretch as against KKNPS on
  // the same configuration.
  const auto initial = metrics::random_connected_configuration(8, 1.1, 1.0, 21);
  const algo::KknpsAlgorithm kknps({.k = 2});
  const algo::AndoAlgorithm ando(1.0);
  const double w_kknps = worst_stretch_under_attack(kknps, initial, 2, 1200);
  const double w_ando = worst_stretch_under_attack(ando, initial, 2, 1200);
  EXPECT_LE(w_kknps, 1.0 + 1e-9);
  EXPECT_GE(w_ando, w_kknps - 1e-9);
}

}  // namespace
}  // namespace cohesion::adversary
