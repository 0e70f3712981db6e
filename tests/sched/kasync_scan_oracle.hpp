// Test oracle for KAsyncScheduler's open-interval bookkeeping: the same
// ready-time heap selection and RNG draw order, but with the k-bound
// enforced by a flat scan over every open interval, each carrying a dense
// per-robot Look-count vector (O(n) allocation per proposal, O(n^2) live
// memory). It applies the Look-by-Look definition directly — no own-look
// rings, no prefix-max, no clamp of large k — so production must match it
// bit for bit.
#pragma once

#include <algorithm>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "core/scheduler.hpp"
#include "sched/asynchronous.hpp"

namespace cohesion::sched::oracle {

class ScanKAsyncScheduler final : public core::Scheduler {
 public:
  ScanKAsyncScheduler(std::size_t robot_count, KAsyncScheduler::Params params)
      : n_(robot_count), params_(params), rng_(params.seed), next_ready_(robot_count, 0.0) {
    std::uniform_real_distribution<double> jitter(0.0, params.min_duration);
    for (auto& t : next_ready_) t = jitter(rng_);
    for (core::RobotId r = 0; r < n_; ++r) ready_heap_.emplace(next_ready_[r], r);
  }

  std::optional<core::Activation> next(const core::SimulationView& view) override {
    const core::RobotId best = ready_heap_.top().second;
    ready_heap_.pop();
    double look = std::max(next_ready_[best], view.frontier());
    if (params_.k != static_cast<std::size_t>(-1)) look = postpone(best, look);

    std::uniform_real_distribution<double> dur(params_.min_duration, params_.max_duration);
    std::uniform_real_distribution<double> gap(params_.min_gap, params_.max_gap);
    std::uniform_real_distribution<double> compute_frac(0.1, 0.5);
    std::uniform_real_distribution<double> frac(params_.xi, 1.0);

    const double duration = dur(rng_);
    core::Activation a;
    a.robot = best;
    a.t_look = look;
    a.t_move_start = look + compute_frac(rng_) * duration;
    a.t_move_end = look + duration;
    a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);
    commit(best, a);

    next_ready_[best] = a.t_move_end + gap(rng_);
    ready_heap_.emplace(next_ready_[best], best);
    return a;
  }

  [[nodiscard]] std::string_view name() const override { return "k-Async (scan oracle)"; }

 private:
  static constexpr double kIntervalEps = 1e-12;

  struct Committed {
    core::RobotId robot;
    double start, end;
    std::vector<std::size_t> looks_inside;  // per-robot Look counts in (start, end)
  };

  double postpone(core::RobotId best, double look) const {
    bool moved = true;
    while (moved) {
      moved = false;
      for (const Committed& c : open_) {
        if (c.robot == best) continue;
        if (look > c.start + kIntervalEps && look < c.end - kIntervalEps &&
            c.looks_inside[best] >= params_.k) {
          look = c.end;  // postpone past the saturated interval
          moved = true;
        }
      }
    }
    return look;
  }

  void commit(core::RobotId best, const core::Activation& a) {
    const double look = a.t_look;
    for (Committed& c : open_) {
      if (c.robot != best && look > c.start + kIntervalEps && look < c.end - kIntervalEps) {
        ++c.looks_inside[best];
      }
    }
    open_.push_back({best, a.t_look, a.t_move_end, std::vector<std::size_t>(n_, 0)});
    std::erase_if(open_, [&](const Committed& c) { return c.end <= look + kIntervalEps; });
  }

  std::size_t n_;
  KAsyncScheduler::Params params_;
  std::mt19937_64 rng_;
  std::vector<double> next_ready_;
  std::priority_queue<std::pair<double, core::RobotId>,
                      std::vector<std::pair<double, core::RobotId>>, std::greater<>>
      ready_heap_;
  std::vector<Committed> open_;
};

}  // namespace cohesion::sched::oracle
