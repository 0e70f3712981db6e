// A robot's committed trajectory segment and the one function that
// evaluates a position on it.
//
// Every tier that answers "where is robot r at time t" — the Trace's full
// history, KinematicState's current segment, IncrementalGrid's inline cell
// entries — evaluates through Segment::at, so they agree to the last bit by
// construction rather than by keeping copies of the arithmetic in step.
#pragma once

#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// The move of one activation: the robot sits at `from` until
/// `t_move_start`, interpolates linearly to `realized` until `t_move_end`,
/// and rests at `realized` from then on.
struct Segment {
  geom::Vec2 from;
  geom::Vec2 realized;
  Time t_move_start = 0.0;
  Time t_move_end = 0.0;

  /// Position at `t`. A zero-length move (t_move_start == t_move_end)
  /// jumps to `realized` at its end time.
  [[nodiscard]] geom::Vec2 at(Time t) const {
    if (t >= t_move_end) return realized;
    if (t >= t_move_start) {
      const Time span = t_move_end - t_move_start;
      const double frac = span > 0.0 ? (t - t_move_start) / span : 1.0;
      return geom::lerp(from, realized, frac);
    }
    return from;
  }
};

/// A Segment with the Look time from which it is its robot's current one
/// (0 for the initial rest segment, which holds at every time).
struct TimedSegment {
  Segment segment;
  Time t_look = 0.0;
};

}  // namespace cohesion::core
