// Incremental per-robot kinematic state: the robot's *current* trajectory
// segment, updated on every commit.
//
// The engine's hot path needs every robot's position at the current Look
// time. Reconstructing that from the Trace costs a binary search over the
// robot's full activation history per query; but because activations commit
// in non-decreasing Look order, only the most recent segment of each robot
// can ever matter at or after its own Look time. KinematicState keeps
// exactly that segment (a TimedSegment) per robot, so position_at(robot, t)
// is O(1) for any t >= segment_start(robot) — and is bit-identical to
// Trace::position there, because both evaluate Segment::at on the same
// committed values. Queries
// before the current segment's Look (possible only through the scheduler's
// 1e-12 look-ordering slack) must fall back to the Trace — or, when the
// engine keeps no Trace (EngineConfig::record_history = false), to the
// *previous* segment retained by set_keep_previous(true): the slack only
// ever reaches one segment back unless a robot completes two full activity
// cycles within 1e-12, which position_bounded rejects loudly.
#pragma once

#include <vector>

#include "core/activation.hpp"
#include "core/segment.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

class KinematicState {
 public:
  KinematicState() = default;
  explicit KinematicState(const std::vector<geom::Vec2>& initial);

  /// Replace `rec.activation.robot`'s current segment. Records must arrive
  /// in the engine's commit order (non-decreasing t_look).
  void commit(const ActivationRecord& rec);

  /// Position of `robot` at `t`. Exact (bit-identical to Trace::position)
  /// for t >= segment_start(robot); undefined earlier.
  [[nodiscard]] geom::Vec2 position_at(RobotId robot, Time t) const {
    return segments_[robot].segment.at(t);
  }

  /// Retain each robot's previous segment across commits, making
  /// position_bounded answer one segment further back. Enable before the
  /// first commit; the reference paths leave it off and pay nothing.
  void set_keep_previous(bool on);
  [[nodiscard]] bool keep_previous() const { return keep_previous_; }

  /// Position of `robot` at `t` from the current segment when
  /// t >= segment_start(robot), else from the retained previous segment.
  /// Bit-identical to Trace::position wherever it answers. Requires
  /// set_keep_previous(true); throws std::logic_error when `t` predates the
  /// previous segment's Look too (history the bounded mode no longer has).
  [[nodiscard]] geom::Vec2 position_bounded(RobotId robot, Time t) const;

  /// Look time of the robot's current segment (0 before any activation; the
  /// initial segment is valid at every time).
  [[nodiscard]] Time segment_start(RobotId robot) const {
    return segments_[robot].t_look;
  }

  /// The robot's current segment: what the engine files in its
  /// IncrementalGrid right after each commit.
  [[nodiscard]] const Segment& segment(RobotId robot) const {
    return segments_[robot].segment;
  }

  [[nodiscard]] std::size_t robot_count() const { return segments_.size(); }

 private:
  std::vector<TimedSegment> segments_;
  std::vector<TimedSegment> previous_;  // keep_previous_ only: segment before current
  bool keep_previous_ = false;
};

}  // namespace cohesion::core
