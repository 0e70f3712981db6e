// Asynchronous schedulers (paper §2.3.1, Fig. 2).
//
//  * KAsyncScheduler — randomized Async with the k-bound enforced *online*:
//    the most-starved robot Y is proposed next, and its activation is
//    postponed past the end of any open interval of X that already contains
//    k Looks of Y. k = SIZE_MAX gives unrestricted Async; so does any k too
//    large for the durations to ever saturate an interval.
//  * KNestAScheduler — k-NestA: rounds of pair-blocks; the outer robot's
//    interval spans the round, the inner robot performs up to k activations
//    nested inside a sub-slot, sub-slots pairwise disjoint. Roles rotate for
//    fairness.
//  * ScriptedScheduler — replays an explicit activation list (used by the
//    Fig. 4 and Section-7 counterexamples).
#pragma once

#include <deque>
#include <queue>
#include <random>
#include <vector>

#include "core/scheduler.hpp"

namespace cohesion::sched {

class KAsyncScheduler final : public core::Scheduler {
 public:
  struct Params {
    std::size_t k = 1;                ///< asynchrony bound (SIZE_MAX = Async; so is
                                      ///< any k the durations cannot saturate)
    double min_duration = 0.2;        ///< min activity-interval length
    double max_duration = 3.0;        ///< max activity-interval length
    double min_gap = 0.05;            ///< min inactivity between own intervals
    double max_gap = 1.0;             ///< max inactivity (fairness bound)
    double xi = 1.0;                  ///< min realized move fraction
    std::uint64_t seed = 11;
  };

  /// Throws std::invalid_argument naming the offending field unless
  /// robot_count >= 1, k >= 1, 0 < min_duration <= max_duration and
  /// 0 <= min_gap <= max_gap (all finite) and 0 < xi <= 1; also when the
  /// look rings (robot_count * k entries, k after the unrestricted clamp)
  /// would exceed 2^24 entries.
  explicit KAsyncScheduler(std::size_t robot_count);
  KAsyncScheduler(std::size_t robot_count, Params params);

  std::optional<core::Activation> next(const core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return "k-Async"; }

 private:
  // Open-interval bookkeeping. Two observations turn the per-proposal walks
  // over every open interval into O(log n) queries:
  //
  //  * Counts are derivable from the looking robot's own history. An
  //    interval X holds >= k looks of Y exactly when Y's k-th most recent
  //    committed look lies strictly inside it — and since all of Y's looks
  //    precede the proposal being placed, "inside" reduces to "after the
  //    interval's start". So each robot keeps a ring of its own last k look
  //    times instead of every open interval keeping per-robot counts.
  //  * Committed look times are non-decreasing (the Scheduler contract), so
  //    the open-interval list in creation order is sorted by start. The
  //    saturated intervals for Y are then a *prefix* of the list (start
  //    before Y's k-th recent look) found by binary search, and the
  //    postponement target is the prefix's maximum end — an append-only
  //    prefix-max array. The candidate set does not depend on the proposal
  //    time, so the postponement fixed point is one max lookup.
  //
  // Expired intervals are compacted away once the list exceeds twice the
  // robot count (at most one interval per robot is open, so compaction
  // halves it — amortized O(1) per proposal). Schedules are bit-identical
  // to a flat scan over every open interval (the oracle in
  // tests/sched/kasync_scan_oracle.hpp) up to ties between interval end
  // times closer than 1e-12, which the continuous random durations do not
  // produce.
  struct OpenInterval {
    double start, end;
  };

  double postpone(core::RobotId best, double look);
  void commit(core::RobotId best, const core::Activation& a);

  std::size_t n_;
  Params params_;
  std::mt19937_64 rng_;
  std::vector<double> next_ready_;  // earliest allowed next look per robot
  // Robots ordered by ready time (ties by id): the most-starved robot is
  // proposed next. A robot's entry is re-pushed with its new ready time
  // after each of its commits, so entries are never stale.
  std::priority_queue<std::pair<double, core::RobotId>,
                      std::vector<std::pair<double, core::RobotId>>, std::greater<>>
      ready_heap_;
  std::vector<OpenInterval> intervals_;  // open intervals, sorted by start
  std::vector<double> prefix_max_end_;   // prefix max of intervals_[i].end
  std::vector<double> own_looks_;        // n x k ring of own committed looks
  std::vector<std::uint64_t> own_look_count_;
};

class KNestAScheduler final : public core::Scheduler {
 public:
  struct Params {
    std::size_t k = 2;     ///< nested activations per outer interval
    double xi = 1.0;
    std::uint64_t seed = 13;
  };

  explicit KNestAScheduler(std::size_t robot_count);
  KNestAScheduler(std::size_t robot_count, Params params);

  std::optional<core::Activation> next(const core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return "k-NestA"; }

 private:
  void plan_round();

  std::size_t n_;
  Params params_;
  std::mt19937_64 rng_;
  std::size_t round_ = 0;
  std::deque<core::Activation> pending_;
};

class ScriptedScheduler final : public core::Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<core::Activation> script);

  std::optional<core::Activation> next(const core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return "scripted"; }

 private:
  std::vector<core::Activation> script_;
  std::size_t cursor_ = 0;
};

}  // namespace cohesion::sched
