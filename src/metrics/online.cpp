#include "metrics/online.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "geometry/convex_hull.hpp"

namespace cohesion::metrics {

using core::RobotId;
using core::Time;
using geom::Vec2;

namespace {

/// The engine admits Looks up to this far before the frontier; a pending
/// sample at T is closed only by a record provably beyond that reach.
constexpr double kLookSlack = 1e-12;

}  // namespace

ConvergenceAccumulator::ConvergenceAccumulator(const std::vector<Vec2>& initial, double v,
                                               double epsilon, bool track_min_pairwise)
    : n_(initial.size()),
      initial_pairs_(initial, v),
      epsilon_(epsilon),
      cur_(n_),
      prev_(n_),
      done_(n_, false),
      remaining_(n_),
      per_robot_activations_(n_, 0),
      track_min_pairwise_(track_min_pairwise) {
  for (std::size_t r = 0; r < n_; ++r) {
    cur_[r].segment = {initial[r], initial[r]};
  }
  prev_ = cur_;
  initial_diameter_ = geom::set_diameter(initial);
  // The batch path samples every round boundary, and round_boundaries()
  // always starts with t = 0 — open it here so a zero-duration move at
  // time 0 (which teleports a robot at the sampled instant) lands in it.
  open_sample(0.0);
}

Vec2 ConvergenceAccumulator::position_at(RobotId robot, Time t) const {
  if (t >= cur_[robot].t_look) return cur_[robot].segment.at(t);
  if (t >= prev_[robot].t_look) return prev_[robot].segment.at(t);
  throw std::logic_error(
      "ConvergenceAccumulator: robot " + std::to_string(robot) +
      " completed two activity cycles within the scheduler's 1e-12 look slack around sample t=" +
      std::to_string(t) + " — single-pass analysis keeps only two segments of history");
}

void ConvergenceAccumulator::open_sample(Time t) {
  PendingSample s;
  s.t = t;
  s.positions.resize(n_);
  for (RobotId r = 0; r < n_; ++r) s.positions[r] = position_at(r, t);
  pending_.push_back(std::move(s));
}

double ConvergenceAccumulator::fold_sample(const std::vector<Vec2>& cfg) {
  const double diam = geom::set_diameter(cfg);
  if (rounds_to_halve_ == 0 && sample_index_ > 0 && diam <= initial_diameter_ / 2.0) {
    rounds_to_halve_ = sample_index_;
  }
  const double stretch = initial_pairs_.worst_stretch(cfg);
  worst_stretch_ = std::max(worst_stretch_, stretch);
  if (stretch > 1.0 + 1e-9) cohesive_ = false;
  if (!first_converged_sample_ && diam <= epsilon_) first_converged_sample_ = sample_index_;
  if (track_min_pairwise_) {
    const double mp = min_pairwise_distance(cfg);
    windowed_min_pairwise_ = any_sample_folded_ ? std::min(windowed_min_pairwise_, mp) : mp;
    any_sample_folded_ = true;
  }
  ++sample_index_;
  return diam;
}

void ConvergenceAccumulator::finalize_front() {
  fold_sample(pending_.front().positions);
  pending_.pop_front();
}

void ConvergenceAccumulator::add(const core::ActivationRecord& rec) {
  const core::Activation& a = rec.activation;
  const RobotId r = a.robot;
  if (finished_) throw std::logic_error("ConvergenceAccumulator::add called after finish");
  if (r >= n_) throw std::logic_error("ConvergenceAccumulator: bad robot id");

  // A Look beyond a pending sample's slack window proves no future record
  // can move anything at that sample — fold it into the report.
  while (!pending_.empty() && a.t_look > pending_.front().t + kLookSlack) finalize_front();

  prev_[r] = cur_[r];
  cur_[r] = {rec.segment(), a.t_look};

  // This record is now r's latest with t_look <= s.t at every pending
  // sample it reaches — exactly the record Trace::position would pick.
  for (PendingSample& s : pending_) {
    if (a.t_look <= s.t) s.positions[r] = cur_[r].segment.at(s.t);
  }

  // Round-boundary state machine (mirrors Trace::round_boundaries).
  if (a.t_look >= last_bound_) {
    if (!done_[r]) {
      done_[r] = true;
      round_end_ = std::max(round_end_, a.t_move_end);
      if (--remaining_ == 0) {
        last_bound_ = round_end_;
        ++rounds_;
        open_sample(last_bound_);
        std::fill(done_.begin(), done_.end(), false);
        remaining_ = n_;
        round_end_ = last_bound_;
      }
    }
  }

  end_time_ = std::max(end_time_, a.t_move_end);
  ++activations_;
  ++per_robot_activations_[r];
}

ConvergenceReport ConvergenceAccumulator::finish() {
  if (finished_) throw std::logic_error("ConvergenceAccumulator::finish called twice");
  finished_ = true;
  while (!pending_.empty()) finalize_front();

  // The batch path appends one sample past the end of all committed motion.
  const Time t_end = end_time_ + 1.0;
  std::vector<Vec2> cfg(n_);
  for (RobotId r = 0; r < n_; ++r) cfg[r] = cur_[r].segment.at(t_end);
  const double end_diameter = fold_sample(cfg);

  ConvergenceReport rep;
  rep.activations = activations_;
  rep.initial_diameter = initial_diameter_;
  rep.rounds = rounds_;
  rep.rounds_to_halve = rounds_to_halve_;
  rep.worst_stretch = worst_stretch_;
  rep.cohesive = cohesive_;
  rep.final_diameter = end_diameter;
  rep.converged = rep.final_diameter <= epsilon_;

  // Free the O(n + E) fold state: a live sink's accumulator can outlive its
  // run, e.g. alongside a replay accumulator.
  cur_ = {};
  prev_ = {};
  done_ = {};
  initial_pairs_ = {};
  return rep;
}

}  // namespace cohesion::metrics
