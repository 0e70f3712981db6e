// End-to-end convergence: KKNPS and the baselines, across schedulers,
// configurations and error models — the paper's Theorem coverage.
#include <gtest/gtest.h>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "metrics/configurations.hpp"
#include "metrics/stats.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion {
namespace {

using core::Engine;
using core::EngineConfig;

EngineConfig exact(double v = 1.0, std::uint64_t seed = 1) {
  EngineConfig c;
  c.visibility.radius = v;
  c.error.random_rotation = true;  // arbitrary local frames, no distortion
  c.seed = seed;
  return c;
}

struct SchedCase {
  const char* label;
  std::size_t k;  // 0 = FSync, 1.. = KAsync(k); 100+x = KNestA(x); 99 = SSync
};

// Print the label, not the raw bytes (which hold a pointer), so the
// parameter text in test names is the same on every build.
void PrintTo(const SchedCase& c, std::ostream* os) { *os << c.label; }

class KknpsConverges : public ::testing::TestWithParam<SchedCase> {};

TEST_P(KknpsConverges, RandomConnectedConfiguration) {
  const auto& param = GetParam();
  const std::size_t k = param.k >= 100 ? param.k - 100 : std::max<std::size_t>(param.k, 1);
  const algo::KknpsAlgorithm algo({.k = k});
  const auto initial = metrics::random_connected_configuration(14, 1.8, 1.0, 2024);

  std::unique_ptr<core::Scheduler> sched;
  if (param.k == 0) {
    sched = std::make_unique<sched::FSyncScheduler>(initial.size());
  } else if (param.k == 99) {
    sched = std::make_unique<sched::SSyncScheduler>(initial.size());
  } else if (param.k >= 100) {
    sched::KNestAScheduler::Params p;
    p.k = param.k - 100;
    sched = std::make_unique<sched::KNestAScheduler>(initial.size(), p);
  } else {
    sched::KAsyncScheduler::Params p;
    p.k = param.k;
    p.xi = 0.4;  // non-rigid motion
    sched = std::make_unique<sched::KAsyncScheduler>(initial.size(), p);
  }

  Engine engine(initial, algo, *sched, exact());
  const bool converged = engine.run_until_converged(0.05, 400000);
  EXPECT_TRUE(converged) << param.label << ": diameter " << engine.current_diameter();

  const auto rep = metrics::analyze(engine.trace(), 1.0, 0.05);
  EXPECT_TRUE(rep.cohesive) << param.label << ": worst stretch " << rep.worst_stretch;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KknpsConverges,
    ::testing::Values(SchedCase{"FSync", 0}, SchedCase{"SSync", 99}, SchedCase{"OneAsync", 1},
                      SchedCase{"TwoAsync", 2}, SchedCase{"FourAsync", 4},
                      SchedCase{"OneNestA", 101}, SchedCase{"ThreeNestA", 103}),
    [](const auto& info) { return info.param.label; });

TEST(KknpsConvergence, LineConfiguration) {
  const algo::KknpsAlgorithm algo({.k = 2});
  const auto initial = metrics::line_configuration(10, 0.9);
  sched::KAsyncScheduler::Params p;
  p.k = 2;
  sched::KAsyncScheduler sched(initial.size(), p);
  Engine engine(initial, algo, sched, exact());
  EXPECT_TRUE(engine.run_until_converged(0.05, 600000));
}

TEST(KknpsConvergence, TwoClusters) {
  const algo::KknpsAlgorithm algo({.k = 2});
  const auto initial = metrics::two_cluster_configuration(16, 3, 1.0, 11);
  sched::KAsyncScheduler::Params p;
  p.k = 2;
  sched::KAsyncScheduler sched(initial.size(), p);
  Engine engine(initial, algo, sched, exact());
  EXPECT_TRUE(engine.run_until_converged(0.05, 600000));
  EXPECT_TRUE(metrics::analyze(engine.trace(), 1.0, 0.05).cohesive);
}

TEST(KknpsConvergence, WithPerceptionError) {
  // §6.1: tolerant variant with delta-bounded distance error and small skew.
  const double delta = 0.05;
  const algo::KknpsAlgorithm algo({.k = 2, .distance_delta = delta});
  const auto initial = metrics::random_connected_configuration(10, 1.5, 1.0, 5);
  sched::KAsyncScheduler::Params p;
  p.k = 2;
  sched::KAsyncScheduler sched(initial.size(), p);
  EngineConfig cfg = exact();
  cfg.error.distance_delta = delta;
  cfg.error.skew_lambda = 0.05;
  Engine engine(initial, algo, sched, cfg);
  EXPECT_TRUE(engine.run_until_converged(0.08, 600000));
  EXPECT_TRUE(metrics::analyze(engine.trace(), 1.0, 0.08).cohesive);
}

TEST(KknpsConvergence, WithMotionError) {
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = metrics::random_connected_configuration(8, 1.2, 1.0, 6);
  sched::SSyncScheduler sched(initial.size());
  EngineConfig cfg = exact();
  cfg.error.motion_quad_coeff = 0.2;  // quadratic motion error (§6.1)
  Engine engine(initial, algo, sched, cfg);
  EXPECT_TRUE(engine.run_until_converged(0.08, 400000));
}

TEST(KknpsConvergence, ReflectedFramesNoChirality) {
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = metrics::random_connected_configuration(8, 1.2, 1.0, 7);
  sched::SSyncScheduler sched(initial.size());
  EngineConfig cfg = exact();
  cfg.error.allow_reflection = true;
  Engine engine(initial, algo, sched, cfg);
  EXPECT_TRUE(engine.run_until_converged(0.05, 400000));
}

TEST(KknpsConvergence, CrashFaultConvergesToCrashSite) {
  // §6.1: a single fail-stop robot; the rest converge to its location.
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = metrics::line_configuration(6, 0.8);
  sched::FSyncScheduler sched(initial.size());
  Engine engine(initial, algo, sched, exact());
  engine.crash(0);
  EXPECT_TRUE(engine.run_until_converged(0.05, 400000));
  const auto final_cfg = engine.current_configuration();
  for (const auto& p : final_cfg) {
    EXPECT_LE(p.distance_to(initial[0]), 0.1) << "robots should gather at the crash site";
  }
}

TEST(KknpsConvergence, UnlimitedVisibilityUnderAsync) {
  // §6.2: when V exceeds the initial diameter, the 1-Async algorithm
  // converges even under an unbounded Async scheduler.
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = metrics::random_connected_configuration(10, 1.0, 10.0, 8);
  sched::KAsyncScheduler::Params p;
  p.k = static_cast<std::size_t>(-1);  // unbounded
  p.min_duration = 0.5;
  p.max_duration = 5.0;
  sched::KAsyncScheduler sched(initial.size(), p);
  Engine engine(initial, algo, sched, exact(/*v=*/10.0));
  EXPECT_TRUE(engine.run_until_converged(0.05, 400000));
}

TEST(BaselineConvergence, AndoConvergesInSSync) {
  const algo::AndoAlgorithm algo(1.0);
  const auto initial = metrics::random_connected_configuration(10, 1.5, 1.0, 9);
  sched::SSyncScheduler sched(initial.size());
  Engine engine(initial, algo, sched, exact());
  EXPECT_TRUE(engine.run_until_converged(0.05, 400000));
  EXPECT_TRUE(metrics::analyze(engine.trace(), 1.0, 0.05).cohesive);
}

TEST(BaselineConvergence, KatreniakConvergesInOneAsync) {
  const algo::KatreniakAlgorithm algo;
  const auto initial = metrics::random_connected_configuration(8, 1.2, 1.0, 10);
  sched::KAsyncScheduler::Params p;
  p.k = 1;
  sched::KAsyncScheduler sched(initial.size(), p);
  Engine engine(initial, algo, sched, exact());
  EXPECT_TRUE(engine.run_until_converged(0.05, 600000));
}

TEST(BaselineConvergence, CogConvergesUnlimitedVisibilityFSync) {
  const algo::CogAlgorithm algo;
  const auto initial = metrics::random_connected_configuration(12, 2.0, 10.0, 11);
  sched::FSyncScheduler sched(initial.size());
  Engine engine(initial, algo, sched, exact(/*v=*/10.0));
  EXPECT_TRUE(engine.run_until_converged(0.05, 200000));
}

TEST(BaselineConvergence, GcmConvergesUnlimitedVisibilityFSync) {
  const algo::GcmAlgorithm algo;
  const auto initial = metrics::random_connected_configuration(12, 2.0, 10.0, 12);
  sched::FSyncScheduler sched(initial.size());
  Engine engine(initial, algo, sched, exact(/*v=*/10.0));
  EXPECT_TRUE(engine.run_until_converged(0.05, 200000));
}

}  // namespace
}  // namespace cohesion
