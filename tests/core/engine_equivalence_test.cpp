// Both grid snapshot paths (SnapshotPath::kRebuild, kIncremental) must be
// indistinguishable from the brute-force reference scan (kScan): same seeds
// -> same ActivationRecords, to the bit — in memory mode and in the
// bounded-memory mode (record_history = false) stream runs use. This holds
// because every path examines the same visible set through the same
// predicate and draws RNG in the same (ascending-id) order; these tests
// sweep schedulers, error models and visibility variants to pin that down.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/trace_sink.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

void expect_identical_records(const std::vector<ActivationRecord>& grid,
                              const std::vector<ActivationRecord>& brute, std::uint64_t seed) {
  ASSERT_EQ(grid.size(), brute.size()) << "seed " << seed;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ActivationRecord& g = grid[i];
    const ActivationRecord& b = brute[i];
    EXPECT_EQ(g.activation.robot, b.activation.robot) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_look, b.activation.t_look) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_move_start, b.activation.t_move_start)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.t_move_end, b.activation.t_move_end)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.activation.realized_fraction, b.activation.realized_fraction)
        << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.from, b.from) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.planned, b.planned) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.realized, b.realized) << "seed " << seed << " rec " << i;
    EXPECT_EQ(g.seen, b.seen) << "seed " << seed << " rec " << i;
  }
}

void expect_identical_traces(const Trace& grid, const Trace& brute, std::uint64_t seed) {
  expect_identical_records(grid.records(), brute.records(), seed);
}

/// Materializing sink for the bounded-memory engines: collects the record
/// stream the way Trace would, without the engine keeping history.
class CollectingSink final : public TraceSink {
 public:
  void append(const ActivationRecord& rec) override { records_.push_back(rec); }
  [[nodiscard]] const std::vector<ActivationRecord>& records() const { return records_; }

 private:
  std::vector<ActivationRecord> records_;
};

constexpr SnapshotPath kGridPaths[] = {SnapshotPath::kIncremental, SnapshotPath::kRebuild};

std::unique_ptr<Scheduler> make_scheduler(std::uint64_t seed, std::size_t n) {
  switch (seed % 4) {
    case 0:
      return std::make_unique<sched::FSyncScheduler>(n);
    case 1: {
      sched::SSyncScheduler::Params p;
      p.seed = seed;
      p.xi = seed % 3 == 0 ? 0.5 : 1.0;
      return std::make_unique<sched::SSyncScheduler>(n, p);
    }
    case 2: {
      sched::KAsyncScheduler::Params p;
      p.seed = seed;
      p.k = 1 + seed % 3;
      return std::make_unique<sched::KAsyncScheduler>(n, p);
    }
    default: {
      sched::KNestAScheduler::Params p;
      p.seed = seed;
      p.k = 1 + seed % 2;
      return std::make_unique<sched::KNestAScheduler>(n, p);
    }
  }
}

std::vector<Vec2> make_initial(std::uint64_t seed, std::size_t n, double v) {
  switch (seed % 3) {
    case 0:
      return metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), v, seed + 1);
    case 1:
      // Spacing exactly v: every chain edge sits on the closed-ball boundary.
      return metrics::line_configuration(n, v);
    default:
      return metrics::grid_configuration(n, 0.8 * v);
  }
}

EngineConfig make_config(std::uint64_t seed, std::size_t n, SnapshotPath path) {
  EngineConfig cfg;
  cfg.seed = seed * 7919 + 13;
  cfg.snapshot_path = path;
  cfg.visibility.radius = 1.0;
  cfg.visibility.open_ball = (seed / 2) % 2 == 1;
  cfg.visibility.multiplicity_detection = (seed / 4) % 2 == 1;
  if (seed % 5 == 4) {
    // Heterogeneous sensing (§6.2): per-robot radii around the common V.
    std::mt19937_64 radii_rng(seed);
    std::uniform_real_distribution<double> u(0.6, 1.7);
    for (std::size_t r = 0; r < n; ++r) cfg.visibility.per_robot_radii.push_back(u(radii_rng));
  }
  switch (seed % 6) {
    case 0:
      cfg.error.random_rotation = false;  // exact perception, identity frames
      break;
    case 1:
      break;  // random rotation only
    case 2:
      cfg.error.distance_delta = 0.05;  // per-neighbour RNG draws in the Look
      break;
    case 3:
      cfg.error.skew_lambda = 0.3;
      break;
    case 4:
      cfg.error.motion_quad_coeff = 0.1;
      break;
    default:
      cfg.error.allow_reflection = true;
      cfg.error.distance_delta = 0.02;
      break;
  }
  return cfg;
}

TEST(EngineEquivalence, AllIndexModesProduceIdenticalTraces) {
  // Three engines per seed — brute scan, rebuild grid, incremental grid —
  // over randomized schedulers (FSync / SSync / k-Async / k-NestA), error
  // models, visibility variants and initial configurations. All three must
  // commit bit-identical traces. Seeds from 160 start from a ring (a
  // regular polygon of side 0.9) whose cell box exceeds 4n + 64 cells, so
  // both grids must coarsen their cell array.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const algo::AndoAlgorithm ando(1.0);
  for (std::uint64_t seed = 0; seed < 172; ++seed) {
    const bool ring = seed >= 160;
    const std::size_t n = ring ? 128 : 2 + seed % 31;
    const auto initial =
        ring ? metrics::regular_polygon_configuration(n, 0.9) : make_initial(seed, n, 1.0);
    const Algorithm& algorithm = seed % 2 == 0 ? static_cast<const Algorithm&>(kknps)
                                               : static_cast<const Algorithm&>(ando);

    const auto sched_inc = make_scheduler(seed, n);
    Engine inc(initial, algorithm, *sched_inc, make_config(seed, n, SnapshotPath::kIncremental));
    const auto sched_grid = make_scheduler(seed, n);
    Engine grid(initial, algorithm, *sched_grid, make_config(seed, n, SnapshotPath::kRebuild));
    const auto sched_brute = make_scheduler(seed, n);
    Engine brute(initial, algorithm, *sched_brute, make_config(seed, n, SnapshotPath::kScan));

    if (seed % 7 == 3) {  // fail-stop robots ride along unchanged
      inc.crash(n / 2);
      grid.crash(n / 2);
      brute.crash(n / 2);
    }

    const std::size_t steps = 150;
    const std::size_t done_brute = brute.run(steps);
    ASSERT_EQ(grid.run(steps), done_brute) << "seed " << seed;
    ASSERT_EQ(inc.run(steps), done_brute) << "seed " << seed;
    expect_identical_traces(grid.trace(), brute.trace(), seed);
    expect_identical_traces(inc.trace(), brute.trace(), seed);
    EXPECT_EQ(grid.current_diameter(), brute.current_diameter()) << "seed " << seed;
    EXPECT_EQ(inc.current_diameter(), brute.current_diameter()) << "seed " << seed;
    const auto cfg_grid = grid.current_configuration();
    const auto cfg_inc = inc.current_configuration();
    const auto cfg_brute = brute.current_configuration();
    ASSERT_EQ(cfg_grid.size(), cfg_brute.size());
    ASSERT_EQ(cfg_inc.size(), cfg_brute.size());
    for (std::size_t r = 0; r < cfg_grid.size(); ++r) {
      EXPECT_EQ(cfg_grid[r], cfg_brute[r]) << "seed " << seed << " robot " << r;
      EXPECT_EQ(cfg_inc[r], cfg_brute[r]) << "seed " << seed << " robot " << r;
    }
  }
}

// The SoaEquivalence suite name predates SnapshotPath; its two remaining
// tests now cover the grid paths and keep their names for test history.

TEST(SoaEquivalence, BoundedMemoryStreamModeMatchesMemoryPath) {
  // record_history = false: the engine keeps no Trace and feeds a TeeSink
  // instead (the engine a stream-mode spec runs). On both grid paths, across
  // all four scheduler families, the record stream must equal the same
  // path's memory-mode twin and the brute-force reference.
  const algo::KknpsAlgorithm kknps({.k = 2});
  for (std::uint64_t seed = 1000; seed < 1120; ++seed) {
    const std::size_t n = 3 + seed % 23;
    const auto initial = make_initial(seed, n, 1.0);
    const auto sched_brute = make_scheduler(seed, n);
    Engine brute(initial, kknps, *sched_brute, make_config(seed, n, SnapshotPath::kScan));
    const std::size_t steps = 100;
    const std::size_t done = brute.run(steps);

    for (const SnapshotPath path : kGridPaths) {
      EngineConfig stream_cfg = make_config(seed, n, path);
      stream_cfg.record_history = false;
      const auto sched_stream = make_scheduler(seed, n);
      Engine stream(initial, kknps, *sched_stream, stream_cfg);
      CollectingSink collected;
      CollectingSink collected_copy;
      TeeSink tee({&collected, &collected_copy});
      stream.set_trace_sink(&tee);

      const auto sched_mem = make_scheduler(seed, n);
      Engine memory(initial, kknps, *sched_mem, make_config(seed, n, path));

      ASSERT_EQ(memory.run(steps), done) << "seed " << seed;
      ASSERT_EQ(stream.run(steps), done) << "seed " << seed;
      expect_identical_records(collected.records(), memory.trace().records(), seed);
      expect_identical_records(collected.records(), brute.trace().records(), seed);
      expect_identical_records(collected.records(), collected_copy.records(), seed);
      EXPECT_EQ(stream.current_diameter(), memory.current_diameter()) << "seed " << seed;
      EXPECT_EQ(stream.end_time(), memory.end_time()) << "seed " << seed;
    }
  }
}

TEST(EngineEquivalence, LargeSwarmSpotCheck) {
  // One production-sized configuration: the grid path crosses many cells and
  // the per-look rebuild is reused across a whole synchronous round, while
  // the incremental path re-buckets one robot per commit.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 512;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 42);

  sched::FSyncScheduler sched_inc(n);
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  Engine inc(initial, kknps, sched_inc, cfg);

  sched::FSyncScheduler sched_grid(n);
  cfg.snapshot_path = SnapshotPath::kRebuild;
  Engine grid(initial, kknps, sched_grid, cfg);

  sched::FSyncScheduler sched_brute(n);
  cfg.snapshot_path = SnapshotPath::kScan;
  Engine brute(initial, kknps, sched_brute, cfg);

  const std::size_t steps = n * 4;
  const std::size_t done = brute.run(steps);
  ASSERT_EQ(grid.run(steps), done);
  ASSERT_EQ(inc.run(steps), done);
  expect_identical_traces(grid.trace(), brute.trace(), 42);
  expect_identical_traces(inc.trace(), brute.trace(), 42);
  EXPECT_EQ(grid.current_diameter(), brute.current_diameter());
  EXPECT_EQ(inc.current_diameter(), brute.current_diameter());
}

TEST(EngineEquivalence, UnrestrictedAsyncLongRunIncrementalVsRebuild) {
  // The regime the incremental index exists for: unrestricted Async
  // (k-Async with the bound removed) gives every Look a distinct time, so
  // the rebuild path re-indexes all n robots per activation while the
  // incremental path re-buckets only the just-moved one. A longer run than
  // the fuzz harness's, across several seeds and swarm sizes.
  const algo::KknpsAlgorithm kknps({.k = 2});
  for (const std::uint64_t seed : {3u, 17u, 90u}) {
    const std::size_t n = 32 + (seed % 3) * 48;
    const auto initial =
        metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, seed);
    sched::KAsyncScheduler::Params p;
    p.k = std::numeric_limits<std::size_t>::max();  // Async: no asynchrony bound
    p.seed = seed * 31 + 1;

    sched::KAsyncScheduler sched_inc(n, p);
    EngineConfig cfg;
    cfg.visibility.radius = 1.0;
    cfg.error.distance_delta = 0.03;  // per-neighbour RNG draws pin the Look order
    Engine inc(initial, kknps, sched_inc, cfg);

    sched::KAsyncScheduler sched_grid(n, p);
    cfg.snapshot_path = SnapshotPath::kRebuild;
    Engine grid(initial, kknps, sched_grid, cfg);

    const std::size_t steps = 2500;
    ASSERT_EQ(inc.run(steps), grid.run(steps)) << "seed " << seed;
    expect_identical_traces(inc.trace(), grid.trace(), seed);
    EXPECT_EQ(inc.current_diameter(), grid.current_diameter()) << "seed " << seed;
  }
}

/// Replay `script` on both grid paths in bounded-memory mode; each record
/// stream must equal the brute-force engine's in-memory trace.
void expect_bounded_grid_paths_match(const std::vector<Vec2>& initial, const Algorithm& algorithm,
                                     const std::vector<Activation>& script, EngineConfig cfg,
                                     const Trace& brute) {
  cfg.record_history = false;
  for (const SnapshotPath path : kGridPaths) {
    cfg.snapshot_path = path;
    sched::ScriptedScheduler sched(script);
    Engine bounded(initial, algorithm, sched, cfg);
    CollectingSink collected;
    bounded.set_trace_sink(&collected);
    ASSERT_EQ(bounded.run(script.size()), brute.records().size());
    expect_identical_records(collected.records(), brute.records(),
                             static_cast<std::uint64_t>(path));
  }
}

TEST(EngineEquivalence, ZeroDurationMovesInvalidateSameTimeGrid) {
  // A zero-duration move (t_move_end == t_look) relocates the robot *at*
  // its Look time, so a grid built at that time must not be reused by later
  // same-time Looks. Several robots commit instantaneous moves at t = 1 and
  // observe each other at t = 1; grid and brute traces must still agree.
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}, {0.9, 0.3}, {0.2, 0.6}};
  const std::vector<Activation> script{
      {0, 1.0, 1.0, 1.0, 1.0},  // instantaneous
      {1, 1.0, 1.0, 1.0, 0.5},  // instantaneous, xi-truncated
      {2, 1.0, 1.1, 1.4, 1.0},  // ordinary move proposed at the same Look time
      {3, 1.0, 1.0, 1.0, 1.0},  // instantaneous, after the ordinary one
      {0, 2.0, 2.0, 2.0, 1.0},
      {1, 2.0, 2.3, 2.5, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;

  sched::ScriptedScheduler sched_inc(script);
  Engine inc(initial, cog, sched_inc, cfg);
  sched::ScriptedScheduler sched_grid(script);
  cfg.snapshot_path = SnapshotPath::kRebuild;
  Engine grid(initial, cog, sched_grid, cfg);
  sched::ScriptedScheduler sched_brute(script);
  cfg.snapshot_path = SnapshotPath::kScan;
  Engine brute(initial, cog, sched_brute, cfg);

  const std::size_t done = brute.run(script.size());
  ASSERT_EQ(grid.run(script.size()), done);
  ASSERT_EQ(inc.run(script.size()), done);
  expect_identical_traces(grid.trace(), brute.trace(), 0);
  expect_identical_traces(inc.trace(), brute.trace(), 0);
  // Robot 1 at t=1 must have seen robot 0 at its *post-teleport* position.
  EXPECT_EQ(grid.trace().records()[1].from, brute.trace().records()[1].from);
  expect_bounded_grid_paths_match(initial, cog, script, cfg, brute.trace());
}

TEST(EngineEquivalence, BackwardLookWithinSchedulerSlackStaysExact) {
  // The Scheduler contract allows a Look up to 1e-12 *before* the current
  // frontier. The incremental path cannot serve such a query from its
  // forward-maintained buckets (positions then live on already-replaced
  // segments), so it must fall back to the reference scan for that Look —
  // and resume incremental service afterwards. All three paths must agree,
  // in memory and in bounded-memory mode (where the fallback reads the
  // retained previous segment instead of the Trace).
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.6, 0.0}, {0.3, 0.5}, {-0.4, 0.2}};
  const double eps = 5e-13;  // within the 1e-12 ordering slack
  const std::vector<Activation> script{
      {0, 1.0, 1.1, 1.6, 1.0},
      {1, 1.0 - eps, 1.0, 1.4, 1.0},        // backward Look: robot 0 not yet moved
      {2, 1.0 - eps / 2, 1.2, 1.5, 0.7},    // forward again, still before t = 1
      {3, 2.0, 2.1, 2.4, 1.0},              // normal forward service resumes
      {0, 3.0, 3.0, 3.3, 1.0},
      {1, 3.0 - eps, 3.1, 3.2, 1.0},        // backward again after real motion
      {2, 4.0, 4.0, 4.0, 1.0},              // zero-duration move after a fallback
      {3, 4.0, 4.2, 4.6, 1.0},
      // Chained sub-slack regression: each Look within 1e-12 of the
      // *previous* one (the engine's frontier), though the last is more
      // than 1e-12 below the first — legal per the engine contract.
      {0, 5.0, 5.1, 5.2, 1.0},
      {1, 5.0 - 9e-13, 5.0, 5.1, 1.0},
      {2, 5.0 - 1.8e-12, 5.3, 5.4, 1.0},
  };
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.error.random_rotation = false;

  sched::ScriptedScheduler sched_inc(script);
  Engine inc(initial, cog, sched_inc, cfg);
  sched::ScriptedScheduler sched_grid(script);
  cfg.snapshot_path = SnapshotPath::kRebuild;
  Engine grid(initial, cog, sched_grid, cfg);
  sched::ScriptedScheduler sched_brute(script);
  cfg.snapshot_path = SnapshotPath::kScan;
  Engine brute(initial, cog, sched_brute, cfg);

  const std::size_t done = brute.run(script.size());
  ASSERT_EQ(done, script.size());
  ASSERT_EQ(grid.run(script.size()), done);
  ASSERT_EQ(inc.run(script.size()), done);
  expect_identical_traces(grid.trace(), brute.trace(), 0);
  expect_identical_traces(inc.trace(), brute.trace(), 0);
  expect_bounded_grid_paths_match(initial, cog, script, cfg, brute.trace());
}

TEST(SoaEquivalence, ZeroDurationAndBackwardSlackScriptsStayExact) {
  // The engine's two scheduler-slack subtleties interleaved, on both grid
  // paths in memory and bounded-memory mode vs the brute reference: a
  // zero-duration move must invalidate the same-time grid, and a Look within
  // the 1e-12 ordering slack *before* the frontier must be served by the
  // scan fallback.
  const algo::CogAlgorithm cog;
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.6, 0.0}, {0.3, 0.5}, {-0.4, 0.2}};
  const double eps = 5e-13;
  const std::vector<Activation> script{
      {0, 1.0, 1.0, 1.0, 1.0},        // instantaneous move at the Look
      {1, 1.0, 1.0, 1.0, 0.5},        // instantaneous, xi-truncated
      {2, 1.0, 1.1, 1.4, 1.0},        // ordinary move at the same Look time
      {3, 2.0 - eps, 2.0, 2.3, 1.0},  // backward Look within the slack
      {0, 2.0, 2.0, 2.0, 1.0},        // zero-duration after the fallback
      {1, 3.0, 3.1, 3.4, 1.0},
      {2, 3.0 - eps, 3.0, 3.2, 0.7},  // backward again after real motion
      {3, 4.0, 4.2, 4.6, 1.0},
  };
  EngineConfig base;
  base.visibility.radius = 1.0;
  base.error.random_rotation = false;

  auto brute_cfg = base;
  brute_cfg.snapshot_path = SnapshotPath::kScan;
  sched::ScriptedScheduler sched_brute(script);
  Engine brute(initial, cog, sched_brute, brute_cfg);
  const std::size_t done = brute.run(script.size());
  ASSERT_EQ(done, script.size());

  for (const SnapshotPath path : kGridPaths) {
    auto cfg = base;
    cfg.snapshot_path = path;
    sched::ScriptedScheduler sched_grid(script);
    Engine grid(initial, cog, sched_grid, cfg);
    ASSERT_EQ(grid.run(script.size()), done);
    expect_identical_traces(grid.trace(), brute.trace(), static_cast<std::uint64_t>(path));
  }
  expect_bounded_grid_paths_match(initial, cog, script, base, brute.trace());
}

TEST(EngineEquivalence, ViewPositionsAgreeMidRun) {
  // SimulationView::position (consumed by omniscient schedulers) must agree
  // between the cache tier and the trace tier at past and future times.
  const algo::KknpsAlgorithm kknps({.k = 1});
  const std::size_t n = 24;
  const auto initial =
      metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 5);
  sched::KAsyncScheduler sched(n, {.seed = 5});
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  Engine engine(initial, kknps, sched, cfg);
  for (int chunk = 0; chunk < 20; ++chunk) {
    engine.run(10);
    for (RobotId r = 0; r < n; ++r) {
      for (double dt : {-2.0, -0.5, 0.0, 0.7, 5.0}) {
        const Time t = engine.frontier() + dt;
        if (t < 0.0) continue;
        const Vec2 via_view = engine.position(r, t);
        const Vec2 via_trace = engine.trace().position(r, t);
        EXPECT_EQ(via_view.x, via_trace.x) << "robot " << r << " t " << t;
        EXPECT_EQ(via_view.y, via_trace.y) << "robot " << r << " t " << t;
      }
    }
  }
}

}  // namespace
}  // namespace cohesion::core
