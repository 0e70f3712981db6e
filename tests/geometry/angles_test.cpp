#include "geometry/angles.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace cohesion::geom {
namespace {

TEST(Angles, NormalizeIntoRange) {
  EXPECT_DOUBLE_EQ(normalize_angle(0.0), 0.0);
  EXPECT_NEAR(normalize_angle(kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(normalize_angle(-0.5), kTwoPi - 0.5, 1e-12);
  EXPECT_NEAR(normalize_angle(-5.0 * kTwoPi + 1.0), 1.0, 1e-12);
}

TEST(Angles, NormalizeAngleMatchesFmodBitwise) {
  // normalize_angle skips fmod for |theta| < 2*pi; the full formula must
  // give the same bits everywhere, signed zeros and non-finite values too.
  const auto via_fmod = [](double theta) {
    double t = std::fmod(theta, kTwoPi);
    if (t < 0.0) t += kTwoPi;
    return t;
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> thetas = {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                                kPi, -kPi, 4.0 * kPi, -4.0 * kPi, 1e300, -1e300,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min()};
  for (const double edge : {kTwoPi, -kTwoPi, 0.0, -0.0}) {
    thetas.push_back(edge);
    double up = edge, down = edge;
    for (int i = 0; i < 3; ++i) {
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, -kInf);
      thetas.push_back(up);
      thetas.push_back(down);
    }
  }
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> u(-4.0 * kPi, 4.0 * kPi);
  for (int i = 0; i < 100000; ++i) thetas.push_back(u(rng));
  for (const double theta : thetas) {
    ASSERT_EQ(bits(normalize_angle(theta)), bits(via_fmod(theta))) << theta;
  }
}

TEST(Angles, NormalizeSigned) {
  EXPECT_NEAR(normalize_angle_signed(kPi + 0.25), -kPi + 0.25, 1e-12);
  EXPECT_NEAR(normalize_angle_signed(-kPi + 0.25), -kPi + 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(normalize_angle_signed(kPi), kPi);  // (-pi, pi]
}

TEST(Angles, AngleDistanceSymmetricAndBounded) {
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> u(-20.0, 20.0);
  for (int i = 0; i < 200; ++i) {
    const double a = u(rng), b = u(rng);
    const double d = angle_distance(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, kPi + 1e-12);
    EXPECT_NEAR(d, angle_distance(b, a), 1e-12);
    EXPECT_NEAR(angle_distance(a, a), 0.0, 1e-12);
  }
}

TEST(Angles, CcwSweep) {
  EXPECT_NEAR(ccw_sweep(0.0, kPi / 2.0), kPi / 2.0, 1e-12);
  EXPECT_NEAR(ccw_sweep(kPi / 2.0, 0.0), 3.0 * kPi / 2.0, 1e-12);
}

TEST(Angles, InteriorAngleRightAngle) {
  EXPECT_NEAR(interior_angle({1.0, 0.0}, {0.0, 0.0}, {0.0, 1.0}), kPi / 2.0, 1e-12);
}

TEST(Angles, InteriorAngleCollinear) {
  EXPECT_NEAR(interior_angle({-1.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}), kPi, 1e-12);
  EXPECT_NEAR(interior_angle({1.0, 0.0}, {0.0, 0.0}, {2.0, 0.0}), 0.0, 1e-12);
}

TEST(Angles, TurnAngleSign) {
  // Walking along +x then turning up (ccw) is positive.
  EXPECT_GT(turn_angle({0.0, 0.0}, {1.0, 0.0}, {2.0, 1.0}), 0.0);
  EXPECT_LT(turn_angle({0.0, 0.0}, {1.0, 0.0}, {2.0, -1.0}), 0.0);
  EXPECT_NEAR(turn_angle({0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}), 0.0, 1e-12);
}

TEST(Angles, TurnPlusInteriorIsPi) {
  std::mt19937_64 rng(10);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  for (int i = 0; i < 100; ++i) {
    const Vec2 p{u(rng), u(rng)}, q{u(rng), u(rng)}, r{u(rng), u(rng)};
    if ((q - p).norm() < 1e-6 || (r - q).norm() < 1e-6) continue;
    EXPECT_NEAR(std::abs(turn_angle(p, q, r)) + interior_angle(p, q, r), kPi, 1e-9);
  }
}

TEST(AngularGapTest, SingleDirection) {
  const AngularGap g = largest_angular_gap({0.7});
  EXPECT_DOUBLE_EQ(g.gap, kTwoPi);
  EXPECT_EQ(g.before, 0u);
  EXPECT_EQ(g.after, 0u);
}

TEST(AngularGapTest, TwoOppositeDirections) {
  const AngularGap g = largest_angular_gap({0.0, kPi});
  EXPECT_NEAR(g.gap, kPi, 1e-12);
}

TEST(AngularGapTest, ClusterLeavesBigGap) {
  // Directions in a narrow cone around 0: the gap is almost 2*pi, and its
  // bounding indices are the extreme members of the cone.
  const std::vector<double> dirs{-0.2, -0.1, 0.0, 0.1, 0.2};
  const AngularGap g = largest_angular_gap(dirs);
  EXPECT_NEAR(g.gap, kTwoPi - 0.4, 1e-12);
  EXPECT_EQ(g.before, 4u);  // direction 0.2 precedes the gap going ccw
  EXPECT_EQ(g.after, 0u);   // direction -0.2 follows it
}

TEST(AngularGapTest, EmptyThrows) {
  EXPECT_THROW(largest_angular_gap({}), std::invalid_argument);
}

TEST(AngularGapTest, GapsSumToTwoPi) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.0, kTwoPi);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> dirs;
    for (int i = 0; i < 8; ++i) dirs.push_back(u(rng));
    const AngularGap g = largest_angular_gap(dirs);
    EXPECT_GE(g.gap, kTwoPi / 8.0 - 1e-12);  // pigeonhole
    EXPECT_LE(g.gap, kTwoPi + 1e-12);
  }
}

// Property sweep: for n equally spaced directions the largest gap is 2*pi/n.
class EquallySpacedGap : public ::testing::TestWithParam<int> {};

TEST_P(EquallySpacedGap, GapIsTwoPiOverN) {
  const int n = GetParam();
  std::vector<double> dirs;
  for (int i = 0; i < n; ++i) dirs.push_back(kTwoPi * i / n);
  EXPECT_NEAR(largest_angular_gap(dirs).gap, kTwoPi / n, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquallySpacedGap, ::testing::Values(2, 3, 4, 5, 8, 16, 64));

}  // namespace
}  // namespace cohesion::geom
