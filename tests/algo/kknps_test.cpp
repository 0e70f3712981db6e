// Unit and property tests of the KKNPS destination rule (paper §3.2, §5).
#include "algo/kknps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "geometry/angles.hpp"
#include "geometry/safe_region.hpp"
#include "halfplane_cases.hpp"

namespace cohesion::algo {
namespace {

using core::Snapshot;
using geom::kPi;
using geom::unit;
using geom::Vec2;

Snapshot snap(std::initializer_list<Vec2> neighbours) {
  Snapshot s;
  for (const Vec2 p : neighbours) s.neighbours.push_back({p, false});
  return s;
}

TEST(Kknps, EmptySnapshotStaysPut) {
  const KknpsAlgorithm algo;
  EXPECT_EQ(algo.compute({}), (Vec2{0.0, 0.0}));
}

TEST(Kknps, InvalidParamsThrow) {
  EXPECT_THROW(KknpsAlgorithm({.k = 0}), std::invalid_argument);
  EXPECT_THROW(KknpsAlgorithm({.k = 1, .distance_delta = -0.1}), std::invalid_argument);
  EXPECT_THROW(KknpsAlgorithm({.k = 1, .radius_divisor = 2.0}), std::invalid_argument);
}

TEST(Kknps, SafeRadiusFormula) {
  const KknpsAlgorithm a({.k = 4});
  EXPECT_DOUBLE_EQ(a.safe_radius(1.0), 1.0 / 32.0);
  const KknpsAlgorithm b({.k = 2, .radius_divisor = 16.0});
  EXPECT_DOUBLE_EQ(b.safe_radius(1.0), 1.0 / 32.0);
}

TEST(Kknps, CustomRadiusDivisorScalesDestination) {
  const KknpsAlgorithm standard({.k = 1});
  const KknpsAlgorithm cautious({.k = 1, .radius_divisor = 16.0});
  const Snapshot s = snap({{0.8, 0.0}});
  EXPECT_NEAR(cautious.compute(s).norm(), standard.compute(s).norm() / 2.0, 1e-12);
}

TEST(Kknps, SingleNeighbourMovesToSafeRegionCenter) {
  const KknpsAlgorithm algo;
  const Vec2 n{0.8, 0.0};
  const Vec2 dest = algo.compute(snap({n}));
  // V_Y = 0.8; r = 0.1; centre of S^r at (0.1, 0).
  EXPECT_TRUE(geom::almost_equal(dest, {0.1, 0.0}, 1e-12));
}

TEST(Kknps, SingleNeighbourScalesWithK) {
  const KknpsAlgorithm algo4({.k = 4});
  const Vec2 dest = algo4.compute(snap({{0.8, 0.0}}));
  EXPECT_TRUE(geom::almost_equal(dest, {0.025, 0.0}, 1e-12));
}

TEST(Kknps, SurroundedRobotStaysPut) {
  // Three distant neighbours at 120 degrees: no open half-plane contains
  // them all; the safe-region intersection is the current location.
  const KknpsAlgorithm algo;
  const Snapshot s = snap({unit(0.0), unit(2.0 * kPi / 3.0), unit(4.0 * kPi / 3.0)});
  EXPECT_EQ(algo.compute(s), (Vec2{0.0, 0.0}));
}

TEST(Kknps, AntipodalNeighboursStayPut) {
  // Gap exactly pi: contained in a closed half-plane only; tangent safe
  // disks intersect at Y alone.
  const KknpsAlgorithm algo;
  EXPECT_EQ(algo.compute(snap({{1.0, 0.0}, {-1.0, 0.0}})), (Vec2{0.0, 0.0}));
}

TEST(Kknps, TwoNeighboursMoveToMidpointOfCenters) {
  const KknpsAlgorithm algo;
  // Neighbours at +-45 degrees, distance 1: V_Y = 1, r = 1/8.
  const Snapshot s = snap({unit(kPi / 4.0), unit(-kPi / 4.0)});
  const Vec2 dest = algo.compute(s);
  const Vec2 expect = geom::midpoint(unit(kPi / 4.0) * 0.125, unit(-kPi / 4.0) * 0.125);
  EXPECT_TRUE(geom::almost_equal(dest, expect, 1e-12));
  // Symmetric pair: destination on the bisector (+x axis).
  EXPECT_NEAR(dest.y, 0.0, 1e-12);
  EXPECT_GT(dest.x, 0.0);
}

TEST(Kknps, CloseNeighboursDoNotAffectDestination) {
  const KknpsAlgorithm algo;
  const Snapshot without = snap({unit(0.3), unit(-0.2)});
  Snapshot with = without;
  with.neighbours.push_back({unit(1.2) * 0.3, false});  // close: 0.3 <= V_Y/2
  EXPECT_TRUE(geom::almost_equal(algo.compute(without), algo.compute(with), 1e-12));
}

TEST(Kknps, ExtremePairSelection) {
  // Neighbours at angles {0, 0.2, 0.9}: the extreme pair is {0, 0.9}.
  const KknpsAlgorithm algo;
  const Snapshot s = snap({unit(0.0), unit(0.2), unit(0.9)});
  const Vec2 dest = algo.compute(s);
  const double r = 0.125;
  const Vec2 expect = geom::midpoint(unit(0.0) * r, unit(0.9) * r);
  EXPECT_TRUE(geom::almost_equal(dest, expect, 1e-12));
}

TEST(Kknps, ErrorToleranceShrinksWorkingRange) {
  const KknpsAlgorithm exact({.k = 1});
  const KknpsAlgorithm tolerant({.k = 1, .distance_delta = 0.25});
  const Snapshot s = snap({{1.0, 0.0}});
  // V_Y shrinks by 1/(1+delta) => safe radius shrinks by the same factor.
  const Vec2 d0 = exact.compute(s);
  const Vec2 d1 = tolerant.compute(s);
  EXPECT_NEAR(d1.norm(), d0.norm() / 1.25, 1e-12);
}

TEST(Kknps, HalfplaneBoundarySensitivity) {
  const KknpsAlgorithm algo;
  // Slightly less than antipodal: gap just over pi => must move.
  const Vec2 dest = algo.compute(snap({unit(0.0), unit(kPi - 0.01)}));
  EXPECT_GT(dest.norm(), 0.0);
  // Add a third neighbour closing the half-plane: must stay.
  const Vec2 stay = algo.compute(snap({unit(0.0), unit(kPi - 0.01), unit(-kPi / 2.0)}));
  EXPECT_EQ(stay, (Vec2{0.0, 0.0}));
}

struct KParam {
  std::size_t k;
};

class KknpsProperty : public ::testing::TestWithParam<KParam> {};

TEST_P(KknpsProperty, MoveNeverExceedsVOver8) {
  const KknpsAlgorithm algo({.k = GetParam().k});
  std::mt19937_64 rng(500 + GetParam().k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.01, 1.0);
  std::uniform_int_distribution<int> count(1, 12);
  for (int trial = 0; trial < 2000; ++trial) {
    Snapshot s;
    for (int i = 0, n = count(rng); i < n; ++i) {
      s.neighbours.push_back({unit(ang(rng)) * rad(rng), false});
    }
    const double v_y = s.furthest_distance();
    EXPECT_LE(algo.compute(s).norm(), v_y / 8.0 + 1e-12);
  }
}

TEST_P(KknpsProperty, DestinationRespectsAllDistantSafeRegions) {
  const std::size_t k = GetParam().k;
  const KknpsAlgorithm algo({.k = k});
  std::mt19937_64 rng(900 + k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.05, 1.0);
  std::uniform_int_distribution<int> count(1, 10);
  for (int trial = 0; trial < 2000; ++trial) {
    Snapshot s;
    for (int i = 0, n = count(rng); i < n; ++i) {
      s.neighbours.push_back({unit(ang(rng)) * rad(rng), false});
    }
    const Vec2 dest = algo.compute(s);
    const double v_y = s.furthest_distance();
    const double r = v_y / (8.0 * static_cast<double>(k));
    for (const auto& o : s.neighbours) {
      if (o.position.norm() > v_y / 2.0) {
        const geom::Circle safe = geom::kknps_safe_region({0.0, 0.0}, o.position, r);
        EXPECT_TRUE(safe.contains(dest, 1e-9))
            << "trial " << trial << ": destination escapes a distant safe region";
      }
    }
  }
}

TEST_P(KknpsProperty, ScaleEquivalence) {
  // dest_k == dest_1 / k for the same snapshot (§3.2: "simply scale the
  // motion function by 1/k").
  const std::size_t k = GetParam().k;
  const KknpsAlgorithm algo1({.k = 1});
  const KknpsAlgorithm algok({.k = k});
  std::mt19937_64 rng(1300 + k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.05, 1.0);
  for (int trial = 0; trial < 500; ++trial) {
    Snapshot s;
    for (int i = 0; i < 5; ++i) s.neighbours.push_back({unit(ang(rng)) * rad(rng), false});
    const Vec2 d1 = algo1.compute(s);
    const Vec2 dk = algok.compute(s);
    EXPECT_TRUE(geom::almost_equal(dk, d1 / static_cast<double>(k), 1e-12));
  }
}

TEST_P(KknpsProperty, RotationEquivariance) {
  // The rule is purely geometric: rotating the snapshot rotates the
  // destination (the algorithm works in arbitrary local frames).
  const KknpsAlgorithm algo({.k = GetParam().k});
  std::mt19937_64 rng(1700 + GetParam().k);
  std::uniform_real_distribution<double> ang(-kPi, kPi), rad(0.05, 1.0);
  for (int trial = 0; trial < 500; ++trial) {
    Snapshot s;
    for (int i = 0; i < 4; ++i) s.neighbours.push_back({unit(ang(rng)) * rad(rng), false});
    const double theta = ang(rng);
    Snapshot rotated;
    for (const auto& o : s.neighbours) rotated.neighbours.push_back({o.position.rotated(theta), false});
    EXPECT_TRUE(
        geom::almost_equal(algo.compute(rotated), algo.compute(s).rotated(theta), 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KknpsProperty,
                         ::testing::Values(KParam{1}, KParam{2}, KParam{4}, KParam{8}),
                         [](const auto& info) { return "k" + std::to_string(info.param.k); });

// --- The stay-put certificate (KknpsAlgorithm::stay_certified) ---

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Step 4's literal test quantity: the computed largest gap of the atan2
/// directions.
double literal_gap(const std::vector<Vec2>& far) {
  std::vector<double> directions;
  for (const Vec2 p : far) directions.push_back(p.angle());
  return geom::largest_angular_gap(directions).gap;
}

/// Smallest angular distance between two of the directions.
double min_separation(const std::vector<Vec2>& far) {
  double best = kInf;
  for (std::size_t i = 0; i < far.size(); ++i) {
    for (std::size_t j = i + 1; j < far.size(); ++j) {
      best = std::min(best, geom::angle_distance(far[i].angle(), far[j].angle()));
    }
  }
  return best;
}

/// `count` positions at angles spread over [from, from + span] (both ends
/// included), with norms in (0.55, 1] times a power-of-two scale.
std::vector<Vec2> arc_set(std::mt19937_64& rng, double from, double span, int count) {
  std::uniform_real_distribution<double> frac(0.0, 1.0), norm(0.55, 1.0);
  const double scale = std::ldexp(1.0, static_cast<int>(rng() % 61) - 30);
  std::vector<Vec2> out;
  for (int i = 0; i < count; ++i) {
    const double t = i == 0 ? 0.0 : i == 1 ? 1.0 : frac(rng);
    out.push_back(unit(from + t * span) * (norm(rng) * scale));
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

TEST(KknpsCertificate, SurroundedSetsAreCertified) {
  // Every set whose largest gap is clearly below pi (and whose directions
  // are not near-duplicates) is certified: by octants when the gap is
  // small, by clockwise witnesses otherwise. A gap above 3pi/4 leaves two
  // adjacent octants empty, so those sets need the witnesses.
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> angle(-kPi, kPi), gap(0.8 * kPi, kPi - 1e-5);
  int surrounded = 0, by_witnesses = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const bool half_plane = trial % 2 == 1;
    const std::vector<Vec2> far = half_plane
                                      ? arc_set(rng, angle(rng), geom::kTwoPi - gap(rng), 2 + trial % 15)
                                      : arc_set(rng, angle(rng), geom::kTwoPi - 0.3, 16);
    if (literal_gap(far) > kPi - 2e-6 || min_separation(far) < 2e-6) continue;
    for (const double tolerance : {0.0, 1e-12, -1e-10, 0.5}) {
      ASSERT_TRUE(KknpsAlgorithm::stay_certified(far, tolerance))
          << "trial " << trial << " gap " << literal_gap(far);
    }
    ++(half_plane ? by_witnesses : surrounded);
  }
  EXPECT_GT(surrounded, 9000);
  EXPECT_GT(by_witnesses, 9000);
}

TEST(KknpsCertificate, GapsOfPiOrMoreAreNeverCertified) {
  using halfplane_cases::near_pi_gap;
  for (int turns = 0; turns < 4; ++turns) {
    for (const bool mirror : {false, true}) {
      // Gaps pi - 1e-12, pi, pi + 1e-12, pi + 1e-9 and pi + 1e-6; with
      // eps = 2e-12 octants 0 and 1 are the only empty ones.
      for (const double eps : {2e-12, 0.0, -2e-12, -2e-9, -2e-6}) {
        for (const double tolerance : {0.0, 1e-12, -1e-11, -1e-10, 0.5, kInf}) {
          EXPECT_FALSE(KknpsAlgorithm::stay_certified(near_pi_gap(eps, turns, mirror), tolerance))
              << eps << " turns " << turns << " mirror " << mirror;
        }
      }
      EXPECT_TRUE(KknpsAlgorithm::stay_certified(near_pi_gap(2e-6, turns, mirror), 0.0));
    }
  }
  // Random half-planes with gaps pi + delta, |delta| from 1e-16 to 1e-5: a
  // certified set's computed gap is clearly below pi, and none with
  // delta >= -1e-9 is certified.
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> angle(-kPi, kPi), exponent(-16.0, -5.0);
  int certified = 0;
  for (int trial = 0; trial < 40000; ++trial) {
    const double delta = (trial % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, exponent(rng));
    const std::vector<Vec2> far = arc_set(rng, angle(rng), kPi - delta, 2 + trial % 12);
    if (!KknpsAlgorithm::stay_certified(far, 0.0)) continue;
    ++certified;
    ASSERT_LT(literal_gap(far), kPi - 5e-10) << "trial " << trial << " delta " << delta;
    ASSERT_LT(delta, -9e-10) << "trial " << trial;
  }
  EXPECT_GT(certified, 1000);
}

TEST(KknpsCertificate, NonFiniteOrExtremePositionsAndLowTolerancesDisableIt) {
  std::vector<Vec2> surrounded;
  for (int i = 0; i < 8; ++i) surrounded.push_back(unit(i * kPi / 4.0 + 0.1));
  for (const double tolerance : {0.0, -1e-10, 1e-12, 0.5, kInf}) {
    EXPECT_TRUE(KknpsAlgorithm::stay_certified(surrounded, tolerance)) << tolerance;
  }
  for (const double tolerance : {-1.000001e-10, -1e-9, -0.5, -kInf, kNaN}) {
    EXPECT_FALSE(KknpsAlgorithm::stay_certified(surrounded, tolerance)) << tolerance;
  }
  for (const Vec2 extra : {Vec2{kNaN, 1.0}, Vec2{1.0, kNaN}, Vec2{kNaN, kNaN}, Vec2{kInf, 0.0},
                           Vec2{0.0, -kInf}, Vec2{0.0, 0.0}, Vec2{-0.0, -0.0}, Vec2{1e-300, 0.0},
                           Vec2{1e300, 1.0}}) {
    for (const bool front : {true, false}) {
      std::vector<Vec2> far = surrounded;
      far.insert(front ? far.begin() : far.end(), extra);
      EXPECT_FALSE(KknpsAlgorithm::stay_certified(far, 0.0)) << extra << " front " << front;
    }
  }
  EXPECT_FALSE(KknpsAlgorithm::stay_certified({}, 0.0));
  EXPECT_FALSE(KknpsAlgorithm::stay_certified({{1.0, 0.0}}, 0.0));
}

}  // namespace
}  // namespace cohesion::algo
