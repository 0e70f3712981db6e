#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

/// Algorithm that always moves one unit toward the first perceived robot
/// (or stays if none) — handy for exercising engine mechanics.
class ChaseFirst final : public Algorithm {
 public:
  [[nodiscard]] Vec2 compute(const Snapshot& s) const override {
    if (s.empty()) return {0.0, 0.0};
    return s.neighbours[0].position * 0.5;
  }
  [[nodiscard]] std::string_view name() const override { return "ChaseFirst"; }
};

Activation act(RobotId r, Time look, Time ms, Time me, double frac = 1.0) {
  return Activation{r, look, ms, me, frac};
}

EngineConfig exact_config(double v = 1.0) {
  EngineConfig c;
  c.visibility.radius = v;
  c.error.random_rotation = false;
  return c;
}

TEST(Engine, EmptyConfigurationThrows) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler s({});
  EXPECT_THROW(Engine({}, null, s, {}), std::invalid_argument);
}

TEST(Engine, NilAlgorithmNeverMoves) {
  const algo::NullAlgorithm null;
  sched::FSyncScheduler sched(3);
  Engine engine({{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}}, null, sched, exact_config());
  engine.run(30);
  const auto cfg = engine.current_configuration();
  EXPECT_TRUE(geom::almost_equal(cfg[0], {0.0, 0.0}));
  EXPECT_TRUE(geom::almost_equal(cfg[2], {1.0, 0.0}));
}

TEST(Engine, ScriptedMoveExecutes) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  // Robot 0 moved halfway to robot 1.
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.5, 0.0}, 1e-9));
}

TEST(Engine, XiRigidTruncation) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0, /*frac=*/0.5)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.run(10);
  // Planned 0.5 toward neighbour, realized half of it.
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.25, 0.0}, 1e-9));
}

TEST(Engine, VisibilityLimitsSnapshot) {
  const ChaseFirst chase;
  // Robot 1 is out of range of robot 0 (V = 1, distance 5): no move.
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {5.0, 0.0}}, chase, sched, exact_config(1.0));
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.0}));
}

TEST(Engine, OpenBallExcludesThreshold) {
  const ChaseFirst chase;
  EngineConfig cfg = exact_config(1.0);
  cfg.visibility.open_ball = true;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, cfg);
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.0}));
}

TEST(Engine, PerRobotRadii) {
  const ChaseFirst chase;
  EngineConfig cfg = exact_config(1.0);
  cfg.visibility.per_robot_radii = {3.0, 1.0};
  // Robot 0 sees robot 1 (radius 3) and moves; robot 1 would not see 0.
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {2.0, 0.0}}, chase, sched, cfg);
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {1.0, 0.0}, 1e-9));
}

TEST(Engine, MidMoveObservation) {
  // Robot 1 looks while robot 0 is mid-move and sees the interpolated
  // position — the crux of Async semantics.
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({
      act(0, 0.0, 0.0, 2.0),  // robot 0 moves from (0,0) to (0.5, 0) over [0,2]
      act(1, 1.0, 1.1, 1.2),  // robot 1 looks at t=1: robot 0 is at (0.25, 0)
  });
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.run(10);
  const auto& recs = engine.trace().records();
  ASSERT_EQ(recs.size(), 2u);
  // Robot 1 planned to move halfway toward (0.25, 0) from (1, 0).
  EXPECT_TRUE(geom::almost_equal(recs[1].planned, {0.625, 0.0}, 1e-9));
}

TEST(Engine, CrashedRobotStaysPut) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.crash(0);
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.0}));
}

TEST(Engine, RejectsOutOfOrderLooks) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler sched({act(0, 5.0, 5.1, 6.0)});
  Engine engine({{0.0, 0.0}}, null, sched, exact_config());
  engine.run(1);
  // Next proposal would violate the frontier: simulate via a fresh scripted
  // scheduler pushed through the same engine is not possible, so check the
  // overlapping-activation contract instead.
  sched::ScriptedScheduler bad({act(0, 0.0, 0.1, 2.0), act(0, 1.0, 1.1, 3.0)});
  Engine engine2({{0.0, 0.0}}, null, bad, exact_config());
  EXPECT_TRUE(engine2.step());
  EXPECT_THROW(engine2.step(), std::logic_error);
}

TEST(Engine, RejectsBadPhaseOrder) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler bad({act(0, 1.0, 0.5, 2.0)});
  Engine engine({{0.0, 0.0}}, null, bad, exact_config());
  EXPECT_THROW(engine.step(), std::logic_error);
}

TEST(Engine, RejectsBadRealizedFraction) {
  const algo::NullAlgorithm null;
  sched::ScriptedScheduler bad({act(0, 0.0, 0.1, 1.0, 0.0)});
  Engine engine({{0.0, 0.0}}, null, bad, exact_config());
  EXPECT_THROW(engine.step(), std::logic_error);
}

TEST(Engine, PerceptionHookOverridesSnapshot) {
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.set_perception_hook([](RobotId, Time, const Snapshot&) {
    Snapshot fake;
    fake.neighbours.push_back({{0.0, 1.0}, false});
    return fake;
  });
  engine.run(10);
  EXPECT_TRUE(geom::almost_equal(engine.current_configuration()[0], {0.0, 0.5}, 1e-9));
}

TEST(Engine, RunUntilConvergedStopsEarly) {
  const algo::KknpsAlgorithm kknps;
  sched::FSyncScheduler sched(3);
  Engine engine({{0.0, 0.0}, {0.4, 0.0}, {0.8, 0.0}}, kknps, sched, exact_config(1.0));
  EXPECT_TRUE(engine.run_until_converged(1e-3, 200000, 16));
  EXPECT_LE(engine.current_diameter(), 1e-3);
}

/// The stop rule's box test answers current_diameter() <= eps on every
/// snapshot path, at and around the current diameter.
TEST(Engine, DiameterAtMostMatchesCurrentDiameter) {
  for (const SnapshotPath path :
       {SnapshotPath::kIncremental, SnapshotPath::kRebuild, SnapshotPath::kScan}) {
    const algo::KknpsAlgorithm kknps;
    sched::FSyncScheduler sched(9);
    EngineConfig config = exact_config(1.0);
    config.snapshot_path = path;
    std::vector<Vec2> start;
    for (int i = 0; i < 9; ++i) start.push_back({0.3 * (i % 3), 0.35 * (i / 3)});
    Engine engine(start, kknps, sched, config);
    for (int round = 0; round < 12; ++round) {
      const double d = engine.current_diameter();
      for (const double eps : {0.5 * d, d * (1.0 - 2e-9), std::nextafter(d, 0.0), d,
                               std::nextafter(d, 2.0 * d), d * (1.0 + 2e-9), 2.0 * d}) {
        EXPECT_EQ(engine.diameter_at_most(eps), d <= eps) << "round " << round << " eps " << eps;
      }
      engine.run(9);
    }
  }
}

TEST(Engine, RunUntilHonorsSimulatedTimeBudget) {
  // FSync commits one round per unit time: Looks at t = 0..5 are under a
  // 5.5 budget; the first Look of round t = 6 crosses it and — per the
  // documented post-commit check — is itself still committed. The budget
  // is simulation time, deterministic, unlike a wall-clock limit.
  const algo::NullAlgorithm null;
  sched::FSyncScheduler sched(3);
  Engine engine({{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}}, null, sched, exact_config());
  StopCondition stop;
  stop.epsilon = -1.0;  // never converges; only the time budget can stop it
  stop.max_activations = 200000;
  stop.max_time = 5.5;
  EXPECT_FALSE(engine.run_until(stop));
  EXPECT_EQ(engine.trace().records().size(), 6u * 3u + 1u);

  // max_time = 0 disables the budget: the activation budget rules.
  sched::FSyncScheduler sched2(3);
  Engine engine2({{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}}, null, sched2, exact_config());
  StopCondition unlimited;
  unlimited.epsilon = -1.0;
  unlimited.max_activations = 30;
  EXPECT_FALSE(engine2.run_until(unlimited));
  EXPECT_EQ(engine2.trace().records().size(), 30u);
}

TEST(Engine, MultiplicityCollapsedWithoutDetection) {
  // Two robots co-located: observer perceives a single robot.
  const ChaseFirst chase;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}}, chase, sched, exact_config(2.0));
  engine.run(10);
  EXPECT_EQ(engine.trace().records()[0].seen, 1u);
}

TEST(Engine, MultiplicityCollapseIsGreedyOverAChain) {
  // A non-transitive co-location chain c ~ b ~ a with c !~ a (gaps of
  // 0.8e-12 against the 1e-12 resolution), visible in id order c, a, b,
  // plus one distinct robot. Greedy "first kept wins" keeps c, keeps a
  // (too far from c), drops b (close to the kept c) and keeps the distinct
  // robot — in that order, on every snapshot path.
  const Vec2 c{1.0 + 1.6e-12, 0.0}, a{1.0, 0.0}, b{1.0 + 0.8e-12, 0.0}, far{0.0, 1.0};
  for (const SnapshotPath path :
       {SnapshotPath::kIncremental, SnapshotPath::kRebuild, SnapshotPath::kScan}) {
    const ChaseFirst chase;
    EngineConfig cfg = exact_config(2.0);
    cfg.snapshot_path = path;
    sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
    Engine engine({{0.0, 0.0}, c, a, b, far}, chase, sched, cfg);
    std::vector<ObservedRobot> seen;
    engine.set_perception_hook([&](RobotId, Time, const Snapshot& s) {
      seen = s.neighbours;
      return s;
    });
    ASSERT_TRUE(engine.step());
    ASSERT_EQ(seen.size(), 3u);
    std::mt19937_64 unused(0);  // the identity frame draws nothing
    for (const auto& [got, at] : {std::pair{seen[0], c}, {seen[1], a}, {seen[2], far}}) {
      const Vec2 want = LocalFrame::identity().perceive(at, unused);
      EXPECT_EQ(got.position.x, want.x);
      EXPECT_EQ(got.position.y, want.y);
      EXPECT_FALSE(got.multiplicity);
    }
    EXPECT_EQ(engine.trace().records()[0].seen, 3u);
  }
}

TEST(Engine, MultiplicityReportedWithDetection) {
  const ChaseFirst chase;
  EngineConfig cfg = exact_config(2.0);
  cfg.visibility.multiplicity_detection = true;
  sched::ScriptedScheduler sched({act(0, 0.0, 0.1, 1.0)});
  Engine engine({{0.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}}, chase, sched, cfg);
  engine.run(10);
  EXPECT_EQ(engine.trace().records()[0].seen, 2u);
}

}  // namespace
}  // namespace cohesion::core
