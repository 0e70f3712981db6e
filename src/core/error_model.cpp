#include "core/error_model.hpp"

#include <cmath>
#include <stdexcept>

#include "geometry/angles.hpp"

namespace cohesion::core {

using geom::Vec2;

SymmetricDistortion::SymmetricDistortion(double lambda, double phase)
    : lambda_(lambda), phase_(phase) {
  if (lambda < 0.0 || lambda >= 1.0) {
    throw std::invalid_argument("SymmetricDistortion: skew must be in [0, 1)");
  }
}

double SymmetricDistortion::apply(double theta) const {
  if (lambda_ == 0.0) return theta;
  return theta + (lambda_ / 2.0) * std::sin(2.0 * (theta - phase_));
}

double SymmetricDistortion::invert(double psi) const {
  if (lambda_ == 0.0) return psi;
  double theta = psi;
  for (int it = 0; it < 50; ++it) {
    const double f = apply(theta) - psi;
    const double fp = 1.0 + lambda_ * std::cos(2.0 * (theta - phase_));
    const double step = f / fp;
    theta -= step;
    if (std::abs(step) < 1e-15) break;
  }
  return theta;
}

LocalFrame LocalFrame::sample(const ErrorModel& model, std::mt19937_64& rng) {
  LocalFrame f;
  if (model.random_rotation) {
    std::uniform_real_distribution<double> ang(0.0, geom::kTwoPi);
    f.rotation_ = ang(rng);
    f.cos_ = std::cos(f.rotation_);
    f.sin_ = std::sin(f.rotation_);
  }
  if (model.allow_reflection) {
    f.reflect_ = (rng() & 1u) != 0;
  }
  if (model.skew_lambda > 0.0) {
    std::uniform_real_distribution<double> ph(0.0, geom::kPi);
    f.distortion_ = SymmetricDistortion(model.skew_lambda, ph(rng));
  }
  f.distance_delta_ = model.distance_delta;
  return f;
}

LocalFrame LocalFrame::identity() { return LocalFrame{}; }

Vec2 LocalFrame::distort(Vec2 v, std::mt19937_64& rng) const {
  if (distortion_.skew() == 0.0) {
    // Only the distance error acts: scale the Cartesian vector, no polar form.
    std::uniform_real_distribution<double> noise(-distance_delta_, distance_delta_);
    return v * (1.0 + noise(rng));
  }
  const double d = v.norm();
  double theta = v.angle();
  theta = distortion_.apply(theta);
  double perceived_d = d;
  if (distance_delta_ > 0.0) {
    std::uniform_real_distribution<double> noise(-distance_delta_, distance_delta_);
    perceived_d = d * (1.0 + noise(rng));
  }
  return geom::unit(theta) * perceived_d;
}

Vec2 LocalFrame::intent_to_global(Vec2 local_destination) const {
  Vec2 v = local_destination;
  if (v.x == 0.0 && v.y == 0.0) return {0.0, 0.0};
  if (distortion_.skew() != 0.0) {
    const double d = v.norm();
    v = geom::unit(distortion_.invert(v.angle())) * d;
  }
  // The inverse rotation, v.rotated(-rotation_)'s arithmetic with the
  // frame's cos and sin (cos is even and sin odd, bit for bit).
  v = {cos_ * v.x + sin_ * v.y, cos_ * v.y - sin_ * v.x};
  if (reflect_) v.y = -v.y;
  return v;
}

Vec2 apply_motion_error(Vec2 start, Vec2 end, double coeff, double v, std::mt19937_64& rng) {
  if (coeff == 0.0 || v <= 0.0) return end;
  const Vec2 d = end - start;
  const double len = d.norm();
  if (len == 0.0) return end;
  const double max_dev = coeff * len * len / v;
  std::uniform_real_distribution<double> noise(-max_dev, max_dev);
  return end + d.normalized().perp() * noise(rng);
}

}  // namespace cohesion::core
