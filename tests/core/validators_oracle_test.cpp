// Differential check of the sweep-line interval validators against the
// quadratic pair loops in validators_oracle.hpp: seeded random traces built
// around the ε boundaries, real traces from every scheduler family, and the
// 1e-12 backward-slack Look script.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "core/engine.hpp"
#include "core/validators.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"
#include "validators_oracle.hpp"

namespace cohesion::core {
namespace {

/// Records how often each validator disagreed with its oracle.
struct Agreement {
  std::size_t traces = 0;
  std::size_t k_mismatches = 0;
  std::size_t nest_mismatches = 0;
  std::size_t crossing_traces = 0;  // oracle verdict "not nested"
  std::size_t nonzero_k_traces = 0;

  void check(const Trace& t, const std::string& label) {
    ++traces;
    const std::size_t k = max_activations_within_interval(t);
    const std::size_t k_ref = oracle::max_activations_within_interval(t);
    const bool nested = is_nested_activation(t);
    const bool nested_ref = oracle::is_nested_activation(t);
    if (k != k_ref && k_mismatches++ == 0) {
      ADD_FAILURE() << label << ": max_activations_within_interval " << k << ", oracle " << k_ref;
    }
    if (nested != nested_ref && nest_mismatches++ == 0) {
      ADD_FAILURE() << label << ": is_nested_activation " << nested << ", oracle " << nested_ref;
    }
    if (!nested_ref) ++crossing_traces;
    if (k_ref > 0) ++nonzero_k_traces;
  }
};

ActivationRecord rec(RobotId r, Time look, Time end) {
  ActivationRecord out;
  out.activation = {r, look, look, end, 1.0};
  return out;
}

/// A small trace whose endpoints sit on, just inside and just outside each
/// other's ε windows: times are drawn from a few anchors and from earlier
/// endpoints, then shifted by 0, ±0.5e-9, ±1e-9 or ±2e-9. Lengths include
/// zero, sub-ε and (rarely) negative values; robots are drawn
/// independently, so one robot's intervals may overlap.
Trace random_boundary_trace(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](const auto& values) { return values[rng() % values.size()]; };
  static const std::vector<Time> kAnchors{0.0, 1.0, 2.0, 3.0, 0.1, 0.7, 1000.0};
  static const std::vector<Time> kOffsets{0.0,     0.0,    0.0,   1e-9, -1e-9,
                                          0.5e-9, -0.5e-9, 2e-9, -2e-9};
  static const std::vector<Time> kLengths{0.0, 0.0,  1e-9, 0.5e-9, 2e-9, 0.5,
                                          1.0, 2.0, 3.0,  -1e-9,  -0.5};

  const std::size_t n = 1 + rng() % 5;
  const std::size_t count = rng() % 41;
  Trace t{std::vector<geom::Vec2>(n)};
  std::vector<Time> endpoints;
  for (std::size_t i = 0; i < count; ++i) {
    const RobotId robot = rng() % n;
    const bool reuse_start = !endpoints.empty() && rng() % 2 == 0;
    const Time start = (reuse_start ? pick(endpoints) : pick(kAnchors)) + pick(kOffsets);
    const bool reuse_end = !endpoints.empty() && rng() % 3 == 0;
    const Time end = reuse_end ? pick(endpoints) + pick(kOffsets) : start + pick(kLengths);
    t.record(rec(robot, start, end));
    endpoints.push_back(start);
    endpoints.push_back(end);
  }
  return t;
}

TEST(ValidatorsOracle, RandomEpsilonBoundaryTracesAgree) {
  Agreement agree;
  for (std::uint64_t seed = 0; seed < 40000; ++seed) {
    agree.check(random_boundary_trace(seed), "seed " + std::to_string(seed));
  }
  EXPECT_EQ(agree.k_mismatches, 0u);
  EXPECT_EQ(agree.nest_mismatches, 0u);
  // The generator must exercise both verdicts, not only trivial traces.
  EXPECT_GT(agree.crossing_traces, agree.traces / 10);
  EXPECT_GT(agree.traces - agree.crossing_traces, agree.traces / 10);
  EXPECT_GT(agree.nonzero_k_traces, agree.traces / 4);
}

/// The validators sort only traces that are out of Look order. The same
/// records in Look order (the sort skipped) and shuffled (the sort run)
/// give the oracle's verdicts.
TEST(ValidatorsOracle, ShuffledAndOrderedTracesAgree) {
  Agreement agree;
  std::mt19937_64 shuffle(7);
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    const Trace t = random_boundary_trace(seed);
    std::vector<ActivationRecord> records = t.records();
    std::ranges::stable_sort(records, {}, &ActivationRecord::start);
    Trace ordered{t.initial_configuration()};
    for (const ActivationRecord& r : records) ordered.record(r);
    std::ranges::shuffle(records, shuffle);
    Trace shuffled{t.initial_configuration()};
    for (const ActivationRecord& r : records) shuffled.record(r);
    const std::string label = "seed " + std::to_string(seed);
    agree.check(ordered, label + " in order");
    agree.check(shuffled, label + " shuffled");
    EXPECT_EQ(max_activations_within_interval(ordered), max_activations_within_interval(shuffled))
        << label;
    EXPECT_EQ(is_nested_activation(ordered), is_nested_activation(shuffled)) << label;
  }
  EXPECT_EQ(agree.k_mismatches, 0u);
  EXPECT_EQ(agree.nest_mismatches, 0u);
}

TEST(ValidatorsOracle, HandWrittenBoundaryCasesAgree) {
  // Looks exactly at outer.start + 1e-9 and outer.end - 1e-9 (the window's
  // excluded edges) and one ulp inside them.
  const Time s = 1.0;
  const Time e = 4.0;
  const Time lo = s + kScheduleEps;
  const Time hi = e - kScheduleEps;
  Agreement agree;
  for (const Time look : {lo, std::nextafter(lo, 2.0), hi, std::nextafter(hi, 2.0),
                          std::nextafter(hi, 0.0), s, e}) {
    Trace t{std::vector<geom::Vec2>(2)};
    t.record(rec(0, s, e));
    t.record(rec(1, look, look + 10.0));
    agree.check(t, "look " + std::to_string(look));
  }
  // Crossing thresholds of the nesting predicate, each side at +-1 ulp.
  for (const Time b_start : {lo, std::nextafter(lo, 2.0), std::nextafter(lo, 0.0)}) {
    for (const Time b_end : {e + kScheduleEps, std::nextafter(e + kScheduleEps, 9.0),
                             std::nextafter(e + kScheduleEps, 0.0)}) {
      Trace t{std::vector<geom::Vec2>(2)};
      t.record(rec(0, s, e));
      t.record(rec(1, b_start, b_end));
      agree.check(t, "b = [" + std::to_string(b_start) + ", " + std::to_string(b_end) + "]");
    }
  }
  EXPECT_EQ(agree.k_mismatches, 0u);
  EXPECT_EQ(agree.nest_mismatches, 0u);
}

Trace run_null(Scheduler& sched, std::size_t n, std::size_t steps) {
  const algo::NullAlgorithm null;
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  Engine engine(metrics::line_configuration(n, 0.5), null, sched, cfg);
  engine.run(steps);
  return engine.trace();
}

TEST(ValidatorsOracle, SchedulerFamilyTracesAgree) {
  // Every family the scheduler certification suite builds, over a few seeds.
  using Make = std::function<std::unique_ptr<Scheduler>(std::uint64_t seed)>;
  struct Family {
    std::string name;
    std::size_t n, steps;
    Make make;
  };
  std::vector<Family> families{
      {"fsync", 4, 40, [](std::uint64_t) { return std::make_unique<sched::FSyncScheduler>(4); }},
      {"ssync", 6, 300,
       [](std::uint64_t seed) {
         sched::SSyncScheduler::Params p;
         p.activation_probability = 0.4;
         p.fairness_window = 5;
         p.xi = 0.5;
         p.seed = seed;
         return std::make_unique<sched::SSyncScheduler>(6, p);
       }},
      {"kasync-unbounded", 4, 800,
       [](std::uint64_t seed) {
         sched::KAsyncScheduler::Params p;
         p.k = static_cast<std::size_t>(-1);
         p.min_duration = 0.2;
         p.max_duration = 12.0;
         p.min_gap = 0.01;
         p.max_gap = 0.05;
         p.seed = seed;
         return std::make_unique<sched::KAsyncScheduler>(4, p);
       }},
      {"knesta-single-robot", 1, 10,
       [](std::uint64_t) { return std::make_unique<sched::KNestAScheduler>(1); }},
      {"scripted", 2, 100,
       [](std::uint64_t) {
         return std::make_unique<sched::ScriptedScheduler>(
             std::vector<Activation>{{0, 0.0, 0.1, 0.5, 1.0}, {1, 0.2, 0.3, 0.7, 1.0}});
       }},
  };
  for (const std::size_t k : {1, 2, 3, 5, 8}) {
    for (const bool long_intervals : {false, true}) {
      families.push_back(
          {"kasync k=" + std::to_string(k) + (long_intervals ? " long" : ""), 6, 600,
           [=](std::uint64_t seed) {
             sched::KAsyncScheduler::Params p;
             p.k = k;
             if (long_intervals) {
               p.min_duration = 1.0;
               p.max_duration = 4.0;
             }
             p.seed = seed;
             return std::make_unique<sched::KAsyncScheduler>(6, p);
           }});
    }
  }
  for (const std::size_t k : {1, 2, 3, 6}) {
    families.push_back({"knesta k=" + std::to_string(k), 7, 700, [=](std::uint64_t seed) {
                          sched::KNestAScheduler::Params p;
                          p.k = k;
                          p.seed = seed;
                          return std::make_unique<sched::KNestAScheduler>(7, p);
                        }});
  }

  Agreement agree;
  for (const Family& f : families) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto sched = f.make(seed);
      agree.check(run_null(*sched, f.n, f.steps), f.name + " seed " + std::to_string(seed));
    }
  }
  EXPECT_EQ(agree.k_mismatches, 0u);
  EXPECT_EQ(agree.nest_mismatches, 0u);
  EXPECT_GT(agree.crossing_traces, 0u);
  EXPECT_GT(agree.nonzero_k_traces, 0u);
}

TEST(ValidatorsOracle, BackwardSlackScriptAgrees) {
  // The script of OnlineMetrics.BackwardLookWithinSlackMatchesOracle: Looks
  // up to 1.8e-12 before the frontier, so the trace is not sorted by Look.
  const algo::CogAlgorithm cog;
  const std::vector<geom::Vec2> initial{{0.0, 0.0}, {0.6, 0.0}, {0.3, 0.5}, {-0.4, 0.2}};
  const double eps = 5e-13;
  const std::vector<Activation> script{
      {0, 1.0, 1.1, 1.6, 1.0},
      {1, 1.0 - eps, 1.0, 1.4, 1.0},
      {2, 1.0 - eps / 2, 1.2, 1.5, 0.7},
      {3, 2.0, 2.1, 2.4, 1.0},
      {0, 3.0, 3.0, 3.3, 1.0},
      {1, 3.0 - eps, 3.1, 3.2, 1.0},
      {2, 4.0, 4.0, 4.0, 1.0},
      {3, 4.0, 4.2, 4.6, 1.0},
      {0, 5.0, 5.1, 5.2, 1.0},
      {1, 5.0 - 9e-13, 5.0, 5.1, 1.0},
      {2, 5.0 - 1.8e-12, 5.3, 5.4, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;
  sched::ScriptedScheduler sched(script);
  Engine engine(initial, cog, sched, cfg);
  ASSERT_EQ(engine.run(script.size()), script.size());

  Agreement agree;
  agree.check(engine.trace(), "backward-slack script");
  EXPECT_EQ(agree.k_mismatches, 0u);
  EXPECT_EQ(agree.nest_mismatches, 0u);
}

}  // namespace
}  // namespace cohesion::core
