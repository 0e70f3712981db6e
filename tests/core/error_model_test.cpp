#include "core/error_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "geometry/angles.hpp"

namespace cohesion::core {
namespace {

using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;

TEST(SymmetricDistortion, IdentityWhenZeroSkew) {
  const SymmetricDistortion mu(0.0, 0.3);
  for (double t = -3.0; t < 3.0; t += 0.1) EXPECT_DOUBLE_EQ(mu.apply(t), t);
}

TEST(SymmetricDistortion, SymmetryProperty) {
  // mu(theta + pi) = mu(theta) + pi (paper §2.3.3).
  const SymmetricDistortion mu(0.4, 1.1);
  for (double t = 0.0; t < kPi; t += 0.05) {
    EXPECT_NEAR(mu.apply(t + kPi), mu.apply(t) + kPi, 1e-12);
  }
}

TEST(SymmetricDistortion, SkewBound) {
  // (1 - lambda) xi <= mu(theta+xi) - mu(theta) <= (1 + lambda) xi.
  const double lambda = 0.3;
  const SymmetricDistortion mu(lambda, 0.77);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> ut(0.0, kTwoPi), ux(1e-4, kPi - 1e-4);
  for (int i = 0; i < 2000; ++i) {
    const double theta = ut(rng), xi = ux(rng);
    const double diff = mu.apply(theta + xi) - mu.apply(theta);
    EXPECT_GE(diff, (1.0 - lambda) * xi - 1e-9);
    EXPECT_LE(diff, (1.0 + lambda) * xi + 1e-9);
  }
}

TEST(SymmetricDistortion, InverseRoundTrip) {
  const SymmetricDistortion mu(0.6, 0.2);
  for (double t = -5.0; t < 5.0; t += 0.07) {
    EXPECT_NEAR(mu.invert(mu.apply(t)), t, 1e-10);
    EXPECT_NEAR(mu.apply(mu.invert(t)), t, 1e-10);
  }
}

TEST(SymmetricDistortion, InvalidSkewThrows) {
  EXPECT_THROW(SymmetricDistortion(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SymmetricDistortion(-0.1, 0.0), std::invalid_argument);
}

TEST(LocalFrame, IdentityIsExact) {
  const LocalFrame f = LocalFrame::identity();
  std::mt19937_64 rng(6);
  const Vec2 p{0.3, -0.8};
  EXPECT_TRUE(geom::almost_equal(f.perceive(p, rng), p, 1e-12));
  EXPECT_TRUE(geom::almost_equal(f.intent_to_global(p), p, 1e-12));
}

TEST(LocalFrame, PerceiveThenActIsConsistent) {
  // Moving toward a perceived neighbour must move toward the true
  // neighbour: perception and actuation share the frame (paper §2.3.3).
  ErrorModel model;
  model.random_rotation = true;
  model.allow_reflection = true;
  model.skew_lambda = 0.25;
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const LocalFrame f = LocalFrame::sample(model, rng);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const Vec2 true_offset{u(rng), u(rng)};
    if (true_offset.norm() < 1e-6) continue;
    const Vec2 perceived = f.perceive(true_offset, rng);
    const Vec2 back = f.intent_to_global(perceived);
    // Same direction as the true offset (distance error = 0 here).
    EXPECT_NEAR(back.normalized().dot(true_offset.normalized()), 1.0, 1e-9);
  }
}

TEST(LocalFrame, DistanceErrorBounded) {
  ErrorModel model;
  model.distance_delta = 0.1;
  model.random_rotation = false;
  std::mt19937_64 rng(8);
  const LocalFrame f = LocalFrame::sample(model, rng);
  for (int i = 0; i < 1000; ++i) {
    const Vec2 p{1.0, 0.0};
    const double d = f.perceive(p, rng).norm();
    EXPECT_GE(d, 0.9 - 1e-12);
    EXPECT_LE(d, 1.1 + 1e-12);
  }
}

TEST(LocalFrame, RotationPreservesDistances) {
  ErrorModel model;
  model.random_rotation = true;
  std::mt19937_64 rng(9);
  const LocalFrame f = LocalFrame::sample(model, rng);
  for (int i = 0; i < 100; ++i) {
    std::uniform_real_distribution<double> u(-2.0, 2.0);
    const Vec2 p{u(rng), u(rng)};
    EXPECT_NEAR(f.perceive(p, rng).norm(), p.norm(), 1e-12);
  }
}

TEST(LocalFrame, ReflectionPreservesDistances) {
  ErrorModel model;
  model.random_rotation = true;
  model.allow_reflection = true;
  std::mt19937_64 rng(10);
  for (int s = 0; s < 16; ++s) {
    const LocalFrame f = LocalFrame::sample(model, rng);
    const Vec2 p{0.6, -0.4};
    EXPECT_NEAR(f.perceive(p, rng).norm(), p.norm(), 1e-12);
  }
}

/// LocalFrame::sample, perceive and intent_to_global as they read before
/// the frame kept its rotation's cos and sin: the same draws from the RNG,
/// the rotation through Vec2::rotated, and every Look in polar form. Skewed
/// frames still compute exactly this.
struct ReferenceFrame {
  ReferenceFrame(const ErrorModel& model, std::mt19937_64& rng) {
    if (model.random_rotation) rotation = std::uniform_real_distribution<double>(0.0, kTwoPi)(rng);
    if (model.allow_reflection) reflect = (rng() & 1u) != 0;
    if (model.skew_lambda > 0.0) {
      distortion = SymmetricDistortion(model.skew_lambda,
                                       std::uniform_real_distribution<double>(0.0, kPi)(rng));
    }
    delta = model.distance_delta;
  }
  Vec2 perceive(Vec2 v, std::mt19937_64& rng) const {
    if (reflect) v.y = -v.y;
    v = v.rotated(rotation);
    const double d = v.norm();
    if (d == 0.0) return v;
    double perceived_d = d;
    if (delta > 0.0) perceived_d = d * (1.0 + std::uniform_real_distribution<double>(-delta, delta)(rng));
    return geom::unit(distortion.apply(v.angle())) * perceived_d;
  }
  Vec2 intent_to_global(Vec2 v) const {
    const double d = v.norm();
    if (d == 0.0) return {0.0, 0.0};
    v = (geom::unit(distortion.invert(v.angle())) * d).rotated(-rotation);
    if (reflect) v.y = -v.y;
    return v;
  }
  double rotation = 0.0;
  bool reflect = false;
  SymmetricDistortion distortion;
  double delta = 0.0;
};

void expect_same_bits(Vec2 got, Vec2 want, int trial, int i) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.x), std::bit_cast<std::uint64_t>(want.x))
      << "trial " << trial << " neighbour " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.y), std::bit_cast<std::uint64_t>(want.y))
      << "trial " << trial << " neighbour " << i;
}

/// The model of trial `trial`: every mix of rotation, reflection and
/// distance error, with the given skew.
ErrorModel trial_model(int trial, double skew) {
  ErrorModel model;
  model.random_rotation = trial % 4 != 3;
  model.allow_reflection = trial % 3 == 0;
  model.skew_lambda = skew;
  model.distance_delta = trial % 2 == 0 ? 0.0 : 0.2;
  return model;
}

/// Skewed frames keep the polar Look: bit for bit the reference above.
TEST(LocalFrame, PerceiveIsBitIdenticalToRotatedFormula) {
  std::mt19937_64 pick(21);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 400; ++trial) {
    const ErrorModel model = trial_model(trial, 0.45);
    const auto seed = static_cast<std::uint64_t>(trial) * 7919 + 3;
    std::mt19937_64 rng(seed), ref_rng(seed);
    const LocalFrame frame = LocalFrame::sample(model, rng);
    const ReferenceFrame ref(model, ref_rng);
    ASSERT_EQ(frame.rotation(), ref.rotation);
    ASSERT_EQ(frame.reflected(), ref.reflect);
    for (int i = 0; i < 16; ++i) {
      const Vec2 offset = i == 0 ? Vec2{0.0, 0.0} : Vec2{u(pick), u(pick)};
      expect_same_bits(frame.perceive(offset, rng), ref.perceive(offset, ref_rng), trial, i);
      expect_same_bits(frame.intent_to_global(offset), ref.intent_to_global(offset), trial, i);
    }
  }
}

/// An unskewed frame reflects, rotates with cos and sin of its rotation,
/// and scales by the drawn distance factor, all in Cartesian form.
TEST(LocalFrame, UnskewedPerceiveIsReflectThenRotateThenScale) {
  std::mt19937_64 pick(22);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 400; ++trial) {
    const ErrorModel model = trial_model(trial, 0.0);
    const auto seed = static_cast<std::uint64_t>(trial) * 7919 + 5;
    std::mt19937_64 rng(seed), ref_rng(seed);
    const LocalFrame frame = LocalFrame::sample(model, rng);
    const ReferenceFrame ref(model, ref_rng);
    const double c = std::cos(ref.rotation), s = std::sin(ref.rotation);
    for (int i = 1; i < 16; ++i) {
      Vec2 want{u(pick), u(pick)};
      const Vec2 offset = want;
      if (ref.reflect) want.y = -want.y;
      want = {c * want.x - s * want.y, s * want.x + c * want.y};
      if (ref.delta > 0.0) {
        want *= 1.0 + std::uniform_real_distribution<double>(-ref.delta, ref.delta)(ref_rng);
      }
      expect_same_bits(frame.perceive(offset, rng), want, trial, i);
    }
    EXPECT_EQ(rng, ref_rng) << "trial " << trial;
  }
}

/// A zero offset has no direction to distort: perceive returns it without
/// drawing its distance error, skewed or not.
TEST(LocalFrame, ZeroOffsetDrawsNothing) {
  for (int trial = 0; trial < 8; ++trial) {
    ErrorModel model = trial_model(trial, trial < 4 ? 0.0 : 0.3);
    model.distance_delta = 0.1;
    std::mt19937_64 rng(static_cast<std::uint64_t>(trial) + 40);
    const LocalFrame frame = LocalFrame::sample(model, rng);
    const std::mt19937_64 before = rng;
    const Vec2 seen = frame.perceive({0.0, 0.0}, rng);
    EXPECT_EQ(seen.x, 0.0);
    EXPECT_EQ(seen.y, 0.0);
    EXPECT_EQ(rng, before) << "trial " << trial;
    const Vec2 back = frame.intent_to_global({0.0, 0.0});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.x), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.y), 0u);
  }
}

/// intent_to_global inverts an exact unskewed perceive to within a few
/// ulps of the offset's length, mirrored frames included.
TEST(LocalFrame, UnskewedIntentInvertsPerceiveWithinUlps) {
  std::mt19937_64 pick(23);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 400; ++trial) {
    ErrorModel model = trial_model(trial, 0.0);
    model.distance_delta = 0.0;
    model.allow_reflection = trial % 2 == 0;
    std::mt19937_64 rng(static_cast<std::uint64_t>(trial) + 90);
    const LocalFrame frame = LocalFrame::sample(model, rng);
    for (int i = 0; i < 16; ++i) {
      const Vec2 v{u(pick), u(pick)};
      const Vec2 back = frame.intent_to_global(frame.perceive(v, rng));
      const double ulp = std::numeric_limits<double>::epsilon() * v.norm();
      EXPECT_LE(std::abs(back.x - v.x), 4.0 * ulp) << "trial " << trial << " offset " << i;
      EXPECT_LE(std::abs(back.y - v.y), 4.0 * ulp) << "trial " << trial << " offset " << i;
    }
  }
}

TEST(LocalFrame, SkewPreservesSidedness) {
  // The distortion must preserve perceived sidedness w.r.t. lines through
  // neighbouring points (paper §6.1): relative order of angles is kept.
  ErrorModel model;
  model.skew_lambda = 0.5;
  model.random_rotation = false;
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const LocalFrame f = LocalFrame::sample(model, rng);
    std::uniform_real_distribution<double> u(0.0, kPi - 0.01);
    double a = u(rng), b = u(rng);
    if (a > b) std::swap(a, b);
    const Vec2 pa = f.perceive(geom::unit(a), rng);
    const Vec2 pb = f.perceive(geom::unit(b), rng);
    // ccw order preserved: sweep from pa to pb stays < pi when b - a < pi.
    const double sweep = geom::ccw_sweep(pa.angle(), pb.angle());
    EXPECT_LT(sweep, kPi + 1e-9);
  }
}

TEST(MotionError, ZeroCoeffIsExact) {
  std::mt19937_64 rng(12);
  const Vec2 end = apply_motion_error({0.0, 0.0}, {1.0, 1.0}, 0.0, 1.0, rng);
  EXPECT_TRUE(geom::almost_equal(end, {1.0, 1.0}));
}

TEST(MotionError, QuadraticBound) {
  std::mt19937_64 rng(13);
  const double coeff = 0.5, v = 1.0;
  for (int i = 0; i < 1000; ++i) {
    std::uniform_real_distribution<double> u(-0.2, 0.2);
    const Vec2 start{0.0, 0.0};
    const Vec2 planned{u(rng), u(rng)};
    const Vec2 realized = apply_motion_error(start, planned, coeff, v, rng);
    const double d = planned.distance_to(start);
    EXPECT_LE(realized.distance_to(planned), coeff * d * d / v + 1e-12);
  }
}

TEST(MotionError, NilMoveUnaffected) {
  std::mt19937_64 rng(14);
  const Vec2 end = apply_motion_error({1.0, 2.0}, {1.0, 2.0}, 0.9, 1.0, rng);
  EXPECT_TRUE(geom::almost_equal(end, {1.0, 2.0}));
}

TEST(ErrorModel, ExactPredicate) {
  ErrorModel m;
  EXPECT_TRUE(m.exact());
  m.distance_delta = 0.01;
  EXPECT_FALSE(m.exact());
}

}  // namespace
}  // namespace cohesion::core
