#include "sched/synchronous.hpp"

#include <stdexcept>

namespace cohesion::sched {

using core::Activation;
using core::SimulationView;

FSyncScheduler::FSyncScheduler(std::size_t robot_count) : n_(robot_count) {}

std::optional<Activation> FSyncScheduler::next(const SimulationView&) {
  if (cursor_ == n_) {
    cursor_ = 0;
    ++round_;
  }
  const double t0 = static_cast<double>(round_);
  Activation a;
  a.robot = cursor_++;
  a.t_look = t0;
  a.t_move_start = t0 + 0.25;
  a.t_move_end = t0 + 0.75;
  a.realized_fraction = 1.0;
  return a;
}

SSyncScheduler::SSyncScheduler(std::size_t robot_count) : SSyncScheduler(robot_count, Params{}) {}

SSyncScheduler::SSyncScheduler(std::size_t robot_count, Params params)
    : n_(robot_count), params_(params), rng_(params.seed), idle_rounds_(robot_count, 0) {
  if (!(params.xi > 0.0 && params.xi <= 1.0)) {
    throw std::invalid_argument("SSyncScheduler: xi must be in (0, 1]");
  }
  plan_round();
}

void SSyncScheduler::plan_round() {
  active_.clear();
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (core::RobotId r = 0; r < n_; ++r) {
    const bool forced = idle_rounds_[r] + 1 >= params_.fairness_window;
    if (forced || coin(rng_) < params_.activation_probability) {
      active_.push_back(r);
      idle_rounds_[r] = 0;
    } else {
      ++idle_rounds_[r];
    }
  }
  cursor_ = 0;
}

std::optional<Activation> SSyncScheduler::next(const SimulationView&) {
  while (cursor_ == active_.size()) {
    ++round_;
    plan_round();
  }
  const double t0 = static_cast<double>(round_);
  std::uniform_real_distribution<double> frac(params_.xi, 1.0);
  Activation a;
  a.robot = active_[cursor_++];
  a.t_look = t0;
  a.t_move_start = t0 + 0.25;
  a.t_move_end = t0 + 0.75;
  a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);
  return a;
}

}  // namespace cohesion::sched
