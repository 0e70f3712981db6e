#include "core/trace.hpp"

#include <algorithm>

namespace cohesion::core {

using geom::Vec2;

Vec2 Trace::position(RobotId robot, Time t) const {
  const auto& idx = per_robot_.at(robot);
  // Find the last activation of this robot with t_look <= t. Only that one
  // determines the position: earlier activations of the same robot ended
  // before its look (activity intervals of one robot never overlap).
  const auto it = std::upper_bound(idx.begin(), idx.end(), t, [&](Time time, std::size_t i) {
    return time < records_[i].activation.t_look;
  });
  if (it == idx.begin()) return initial_.at(robot);
  return records_[*(it - 1)].segment().at(t);
}

std::vector<Vec2> Trace::configuration(Time t) const {
  std::vector<Vec2> out(initial_.size());
  for (RobotId r = 0; r < initial_.size(); ++r) out[r] = position(r, t);
  return out;
}

std::vector<Time> Trace::round_boundaries() const {
  std::vector<Time> bounds{0.0};
  const std::size_t n = initial_.size();
  std::vector<bool> done(n, false);
  std::size_t remaining = n;
  Time round_end = 0.0;  // max move-end among the cycles counted this round
  for (const ActivationRecord& rec : records_) {
    const RobotId r = rec.activation.robot;
    if (rec.activation.t_look < bounds.back()) continue;  // started before round
    if (!done[r]) {
      done[r] = true;
      round_end = std::max(round_end, rec.activation.t_move_end);
      if (--remaining == 0) {
        bounds.push_back(round_end);
        std::fill(done.begin(), done.end(), false);
        remaining = n;
        round_end = bounds.back();
      }
    }
  }
  return bounds;
}

}  // namespace cohesion::core
