#include "core/kinematics.hpp"

#include <stdexcept>
#include <string>

namespace cohesion::core {

using geom::Vec2;

KinematicState::KinematicState(const std::vector<Vec2>& initial)
    : segments_(initial.size()) {
  for (std::size_t r = 0; r < initial.size(); ++r) segments_[r].segment = {initial[r], initial[r]};
}

void KinematicState::set_keep_previous(bool on) {
  keep_previous_ = on;
  if (on) {
    // The "previous" segment of a never-activated robot is its initial rest
    // segment (Look time 0, already settled), so position_bounded answers
    // any t >= 0 for it — matching Trace::position's initial fallback.
    previous_ = segments_;
  } else {
    previous_.clear();
  }
}

void KinematicState::commit(const ActivationRecord& rec) {
  TimedSegment& s = segments_.at(rec.activation.robot);
  if (keep_previous_) previous_[rec.activation.robot] = s;
  s = {rec.segment(), rec.activation.t_look};
  if (track_dirty_) dirty_.push_back(rec.activation.robot);
}

Vec2 KinematicState::position_bounded(RobotId robot, Time t) const {
  if (t >= segments_[robot].t_look) return segments_[robot].segment.at(t);
  const TimedSegment& prev = previous_.at(robot);
  if (t >= prev.t_look) return prev.segment.at(t);
  throw std::logic_error(
      "KinematicState::position_bounded: query at t=" + std::to_string(t) + " for robot " +
      std::to_string(robot) + " predates the retained previous segment (Look " +
      std::to_string(prev.t_look) +
      ") — with record_history=false the engine keeps no older history");
}

}  // namespace cohesion::core
