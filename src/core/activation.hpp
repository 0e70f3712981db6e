// Activation scheduling records and the committed-move trace entries.
#pragma once

#include "core/segment.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// One Look-Compute-Move activity interval, as proposed by a scheduler.
///
/// Invariants (checked by the engine):
///   t_look <= t_move_start <= t_move_end   (Look instantaneous, Compute and
///                                           Move of finite duration)
///   t_look >= the robot's previous t_move_end (activity intervals of one
///                                              robot never overlap)
///   realized_fraction in (0, 1]            (xi-rigid motion, paper §2.3.2)
struct Activation {
  RobotId robot = kInvalidRobot;
  Time t_look = 0.0;
  Time t_move_start = 0.0;
  Time t_move_end = 0.0;
  /// Fraction of the planned trajectory the adversary lets the robot
  /// realize. The engine treats a nil movement as trivially complete.
  double realized_fraction = 1.0;
};

/// A committed activation: what actually happened.
struct ActivationRecord {
  Activation activation;
  geom::Vec2 from;          ///< position at t_look (== at t_move_start)
  geom::Vec2 planned;       ///< intended global destination after frame mapping
  geom::Vec2 realized;      ///< endpoint actually reached at t_move_end
  std::size_t seen = 0;     ///< number of visible neighbours in the snapshot

  [[nodiscard]] Time start() const { return activation.t_look; }
  [[nodiscard]] Time end() const { return activation.t_move_end; }
  /// The committed move, whose Segment::at gives this robot's position at
  /// every time from t_look until its next activation's Look.
  [[nodiscard]] Segment segment() const {
    return {from, realized, activation.t_move_start, activation.t_move_end};
  }
};

}  // namespace cohesion::core
