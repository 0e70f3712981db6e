// KAsyncScheduler's open-interval bookkeeping (own-look rings + start-sorted
// interval list with prefix-max ends, large k clamped to unrestricted) must
// reproduce the flat-scan oracle bit for bit: both select from the same
// ready-time heap, draw RNG identically and resolve the same postponement
// fixed point, so entire schedules — and hence entire engine traces — must
// match.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/validators.hpp"
#include "sched/asynchronous.hpp"
#include "kasync_scan_oracle.hpp"

namespace cohesion::sched {
namespace {

using core::Activation;

struct InertView final : core::SimulationView {
  std::size_t n = 0;
  core::Time front = 0.0;
  [[nodiscard]] std::size_t robot_count() const override { return n; }
  [[nodiscard]] core::Time busy_until(core::RobotId) const override { return 0.0; }
  [[nodiscard]] core::Time frontier() const override { return front; }
  [[nodiscard]] geom::Vec2 position(core::RobotId, core::Time) const override { return {}; }
  [[nodiscard]] std::size_t activations_of(core::RobotId) const override { return 0; }
};

KAsyncScheduler::Params params_of(std::size_t k, std::uint64_t seed) {
  KAsyncScheduler::Params p;
  p.k = k;
  p.seed = seed;
  return p;
}

std::vector<Activation> schedule_of(core::Scheduler& sched, std::size_t n, std::size_t steps) {
  InertView view;
  view.n = n;
  std::vector<Activation> out;
  out.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto a = sched.next(view);
    out.push_back(*a);
    view.front = a->t_look;  // the engine's frontier is the last look time
  }
  return out;
}

std::vector<Activation> schedule_of(std::size_t n, const KAsyncScheduler::Params& p,
                                    std::size_t steps) {
  KAsyncScheduler sched(n, p);
  return schedule_of(sched, n, steps);
}

std::vector<Activation> oracle_schedule_of(std::size_t n, const KAsyncScheduler::Params& p,
                                           std::size_t steps) {
  oracle::ScanKAsyncScheduler sched(n, p);
  return schedule_of(sched, n, steps);
}

void expect_identical(const std::vector<Activation>& a, const std::vector<Activation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].robot, b[i].robot) << "step " << i;
    ASSERT_EQ(a[i].t_look, b[i].t_look) << "step " << i;
    ASSERT_EQ(a[i].t_move_start, b[i].t_move_start) << "step " << i;
    ASSERT_EQ(a[i].t_move_end, b[i].t_move_end) << "step " << i;
    ASSERT_EQ(a[i].realized_fraction, b[i].realized_fraction) << "step " << i;
  }
}

class KAsyncIndexEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(KAsyncIndexEquivalence, SchedulesAreBitIdentical) {
  const auto [n, k, seed] = GetParam();
  expect_identical(schedule_of(n, params_of(k, seed), 2000),
                   oracle_schedule_of(n, params_of(k, seed), 2000));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KAsyncIndexEquivalence,
    ::testing::Values(std::tuple<std::size_t, std::size_t, std::uint64_t>{3, 1, 11},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{6, 2, 17},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, 3, 23},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, 8, 29},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{64, 2, 31},
                      // unrestricted Async: postponement disabled, pruning only
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, SIZE_MAX, 37},
                      // default durations: B = floor(3.0 / 0.25) + 1 = 13 Looks
                      // fit in one interval; k = 13 keeps the rings, k = 14 is
                      // clamped to unrestricted while the oracle still scans
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, 13, 43},
                      std::tuple<std::size_t, std::size_t, std::uint64_t>{16, 14, 47}));

TEST(KAsyncIndex, UnrestrictedAsyncSkipsBookkeepingButStaysSane) {
  // With k = SIZE_MAX the k-bound can never bind, so the scheduler tracks
  // nothing at all; the schedule must still be a valid non-decreasing-look
  // Async schedule identical to the oracle's (covered by the parameterized
  // sweep above) over a long run.
  const auto sched = schedule_of(128, params_of(SIZE_MAX, 41), 20000);
  for (std::size_t i = 1; i < sched.size(); ++i) {
    ASSERT_GE(sched[i].t_look, sched[i - 1].t_look);
  }
}

struct Durations {
  double min_duration, max_duration, min_gap, max_gap;
  std::size_t looks_bound;  // B = floor(max_duration / (min_duration + min_gap)) + 1
};

TEST(KAsyncClamp, KAtAndAboveTheLookBoundEqualsUnrestricted) {
  // No k >= B can ever postpone (own Looks are min_duration + min_gap apart,
  // intervals last at most max_duration). k = B still runs the rings, so
  // matching k = SIZE_MAX bit for bit checks the bound itself; k = B + 1 is
  // the first clamped k.
  //
  // The narrow (1.0, 2.5) set has B = 3 and short own gaps, so k = B - 1
  // does postpone: B is the exact threshold, and a clamp one unit lower
  // would change schedules.
  const Durations sets[] = {{0.2, 3.0, 0.05, 1.0, 13},
                            {1.0, 4.0, 0.05, 1.0, 4},
                            {1.0, 8.0, 0.05, 1.0, 8},
                            {0.2, 12.0, 0.01, 0.05, 58},  // validators_oracle_test
                            {1.0, 2.5, 0.0, 0.05, 3}};
  bool below_bound_postpones = false;
  for (const Durations& d : sets) {
    ASSERT_EQ(static_cast<std::size_t>(std::floor(d.max_duration / (d.min_duration + d.min_gap))) + 1,
              d.looks_bound);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      KAsyncScheduler::Params p = params_of(SIZE_MAX, seed);
      p.min_duration = d.min_duration;
      p.max_duration = d.max_duration;
      p.min_gap = d.min_gap;
      p.max_gap = d.max_gap;
      const auto unrestricted = schedule_of(8, p, 3000);
      for (const std::size_t k : {d.looks_bound, d.looks_bound + 1}) {
        SCOPED_TRACE("B = " + std::to_string(d.looks_bound) + ", k = " + std::to_string(k) +
                     ", seed " + std::to_string(seed));
        p.k = k;
        expect_identical(schedule_of(8, p, 3000), unrestricted);
        expect_identical(oracle_schedule_of(8, p, 3000), unrestricted);
      }
      p.k = d.looks_bound - 1;
      const auto below = schedule_of(8, p, 3000);
      expect_identical(below, oracle_schedule_of(8, p, 3000));
      for (std::size_t i = 0; i < below.size(); ++i) {
        if (below[i].t_look != unrestricted[i].t_look) below_bound_postpones = true;
      }
    }
  }
  EXPECT_TRUE(below_bound_postpones);
}

TEST(KAsyncClamp, HugeFiniteKAtScaleRunsUnrestricted) {
  // n * k = 2^52 look-ring entries if k were taken literally; the clamp
  // makes it unrestricted Async instead.
  const std::size_t n = 4096;
  const auto huge = schedule_of(n, params_of(std::size_t{1} << 40, 53), 10000);
  expect_identical(huge, schedule_of(n, params_of(SIZE_MAX, 53), 10000));
}

}  // namespace
}  // namespace cohesion::sched
