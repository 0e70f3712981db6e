// Perception and motion imprecision (paper §2.3.3 and §6.1).
//
// The pipeline for one Look is:
//   global position -> true local frame (rotation + optional reflection)
//                   -> symmetric angle distortion mu with skew <= lambda
//                   -> multiplicative distance error within [1-delta, 1+delta]
// and for the Move, the intended local destination passes back through the
// *inverse* of the frame (the robot acts in the same distorted coordinate
// system it perceives in), after which a relative motion error that grows
// quadratically with the travelled distance may deflect the endpoint.
//
// Only the skew acts on the angle. A frame without skew therefore maps a
// vector in Cartesian form: rotate (and reflect) with the frame's cached
// cos and sin, then scale by the drawn distance factor; its inverse is the
// transposed rotation. Only a skewed frame goes through polar form
// (hypot, atan2, then sin and cos of the distorted angle).
#pragma once

#include <cstdint>
#include <random>

#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Symmetric distortion of a local coordinate system:
///   mu(theta) = theta + (lambda/2) * sin(2 * (theta - phase))
/// Continuous bijection with mu(theta+pi) = mu(theta) + pi and derivative in
/// [1 - lambda, 1 + lambda] — exactly the paper's "skew bounded by lambda".
class SymmetricDistortion {
 public:
  SymmetricDistortion() = default;
  SymmetricDistortion(double lambda, double phase);

  [[nodiscard]] double apply(double theta) const;
  /// Inverse by Newton iteration (derivative >= 1 - lambda > 0).
  [[nodiscard]] double invert(double psi) const;
  [[nodiscard]] double skew() const { return lambda_; }

 private:
  double lambda_ = 0.0;
  double phase_ = 0.0;
};

/// Adversarial/random imprecision parameters for a whole simulation.
struct ErrorModel {
  double distance_delta = 0.0;   ///< |perceived d / true d - 1| <= delta
  double skew_lambda = 0.0;      ///< angle distortion skew bound (< 1)
  double motion_quad_coeff = 0.0;  ///< endpoint deviation <= coeff * d^2 / V
  bool random_rotation = true;   ///< local frames rotated arbitrarily
  bool allow_reflection = false; ///< local frames may be mirrored (no chirality)

  [[nodiscard]] bool exact() const {
    return distance_delta == 0.0 && skew_lambda == 0.0 && motion_quad_coeff == 0.0;
  }
};

/// A robot's private coordinate system for one activation, plus the sampled
/// perception noise. Frames are resampled every activation (the paper allows
/// inconsistent frames across robots and across activations of one robot).
class LocalFrame {
 public:
  /// Sample a frame according to `model` using `rng`.
  static LocalFrame sample(const ErrorModel& model, std::mt19937_64& rng);

  /// Identity frame with no distortion (exact perception).
  static LocalFrame identity();

  /// Map a true global displacement (neighbour - self) into perceived local
  /// coordinates, applying rotation/reflection, angle distortion and a fresh
  /// per-observation distance error drawn from `rng`. A zero offset is
  /// returned as is, without a draw.
  [[nodiscard]] geom::Vec2 perceive(geom::Vec2 true_offset, std::mt19937_64& rng) const;

  /// Map an intended local destination back to a true global displacement.
  /// Distance is preserved; the angle passes through the inverse distortion
  /// and inverse rotation/reflection. (Motion error is applied separately by
  /// the engine because it depends on the realized travel distance.)
  [[nodiscard]] geom::Vec2 intent_to_global(geom::Vec2 local_destination) const;

  [[nodiscard]] double rotation() const { return rotation_; }
  [[nodiscard]] bool reflected() const { return reflect_; }

 private:
  double rotation_ = 0.0;
  double cos_ = 1.0;  ///< std::cos(rotation_), computed once per frame
  double sin_ = 0.0;  ///< std::sin(rotation_)
  bool reflect_ = false;
  SymmetricDistortion distortion_;
  double distance_delta_ = 0.0;
};

/// Deflect the realized endpoint of a motion of length d by a perpendicular
/// offset of magnitude at most coeff * d^2 / v (paper §6.1: quadratic
/// relative motion error is tolerable; linear is not). The sign/magnitude is
/// sampled from `rng`.
geom::Vec2 apply_motion_error(geom::Vec2 start, geom::Vec2 end, double coeff, double v,
                              std::mt19937_64& rng);

}  // namespace cohesion::core
