// E13 — spatial-index scaling: engine throughput across the three snapshot
// paths (EngineConfig::snapshot_path) — brute-force reference (kScan),
// per-Look-time grid rebuild (kRebuild, what run::instantiate picks for
// synchronous schedulers) and incremental cell maintenance (kIncremental,
// picked for asynchronous ones) — across swarm sizes n in {16, 64, 256,
// 1024, 4096}. All three produce bit-identical traces (see
// tests/core/engine_equivalence_test.cpp); only the work per Look differs:
//
//   brute        O(n log k) per snapshot
//   rebuild      O(n) per *distinct Look time* — amortizes to O(1)-ish per
//                Look under FSync (one rebuild serves a whole round), but
//                stays O(n) per activation under async schedulers
//   incremental  O(segment cells) per commit + O(candidates) per query,
//                regardless of how Look times are distributed
//
// The interesting axis is therefore incremental-vs-rebuild under KAsync,
// where every Look has a distinct time and the scheduler's proposal is
// O(log n) (ready-time heap + interval index). The brute-force series stops
// at 1024 — beyond that a single reference run dominates the whole bench.
//
// BM_GridQuery/<layout> times SpatialGrid alone — one rebuild plus one
// closed-ball query (r = V) per robot, n = 4096 — on layouts whose cell
// bounding box is compact (0: lattice), spread along a curve (1: circle of
// side 0.9 V, 2: L-shaped chain) or stretched by one far robot (3: lattice
// plus a robot 5n V away, 4: ... 1e9 V away), i.e. the inputs that take the
// grid's coarsened-cell and outlier paths. BM_IncrementalQuery/<layout>
// times IncrementalGrid the same way — one reset (which fits its cell
// array by the same rule) plus one r = V visible_near per robot — on the
// same five layouts.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/spatial_index.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

using namespace cohesion;

namespace {

constexpr std::size_t kActivationsPerRobot = 8;

using Mode = core::SnapshotPath;

core::EngineConfig config_for(Mode mode) {
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.snapshot_path = mode;
  return cfg;
}

void run_fsync(benchmark::State& state, Mode mode) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial =
      metrics::grid_configuration(n, 0.75);
  const std::size_t activations = n * kActivationsPerRobot;
  for (auto _ : state) {
    state.PauseTiming();
    sched::FSyncScheduler sched(n);
    core::Engine engine(initial, algo, sched, config_for(mode));
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(activations));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(activations));
}

void run_kasync(benchmark::State& state, Mode mode) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial =
      metrics::grid_configuration(n, 0.75);
  const std::size_t activations = n * kActivationsPerRobot;
  for (auto _ : state) {
    state.PauseTiming();
    sched::KAsyncScheduler sched(n, {.seed = 11});
    core::Engine engine(initial, algo, sched, config_for(mode));
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(activations));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(activations));
}

// "Grid" keeps naming continuity with the PR 1/PR 2 trajectory in
// bench/out/BENCH_engine.json: it was the rebuild-per-Look-time path then
// and still measures exactly that path.
void BM_FSyncGrid(benchmark::State& state) { run_fsync(state, Mode::kRebuild); }
void BM_FSyncIncremental(benchmark::State& state) { run_fsync(state, Mode::kIncremental); }
void BM_FSyncBrute(benchmark::State& state) { run_fsync(state, Mode::kScan); }
void BM_KAsyncGrid(benchmark::State& state) { run_kasync(state, Mode::kRebuild); }
void BM_KAsyncIncremental(benchmark::State& state) { run_kasync(state, Mode::kIncremental); }
void BM_KAsyncBrute(benchmark::State& state) { run_kasync(state, Mode::kScan); }
std::vector<geom::Vec2> query_layout(std::int64_t layout, std::size_t n) {
  std::vector<geom::Vec2> pts;
  switch (layout) {
    case 1:
      return metrics::regular_polygon_configuration(n, 0.9);
    case 2:
      for (std::size_t i = 0; i < n / 2; ++i) pts.push_back({0.9 * double(i), 0.0});
      for (std::size_t i = 1; i <= n - n / 2; ++i) pts.push_back({0.0, 0.9 * double(i)});
      return pts;
    case 3:
    case 4:
      pts = metrics::grid_configuration(n - 1, 0.75);
      pts.push_back({layout == 3 ? 5.0 * double(n) : 1e9, 0.0});
      return pts;
    default:
      return metrics::grid_configuration(n, 0.75);
  }
}

void BM_GridQuery(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  const std::vector<geom::Vec2> pts = query_layout(state.range(0), kN);
  core::SpatialGrid grid(1.0);
  std::vector<std::size_t> out;
  std::size_t found = 0;
  for (auto _ : state) {
    grid.rebuild(pts);
    for (const geom::Vec2 p : pts) {
      grid.neighbors_within(p, 1.0, /*open_ball=*/false, out);
      found += out.size();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pts.size()));
  state.counters["found_per_query"] =
      static_cast<double>(found) / static_cast<double>(state.iterations() * pts.size());
}

void BM_IncrementalQuery(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  const std::vector<geom::Vec2> pts = query_layout(state.range(0), kN);
  const core::VisibilityBall ball(1.0, /*open_ball=*/false);
  core::IncrementalGrid grid;
  std::vector<core::VisibleRobot> out;
  std::size_t found = 0;
  for (auto _ : state) {
    grid.reset(1.0, pts);
    for (const geom::Vec2 p : pts) {
      grid.visible_near(p, 1.0, ball, 0.0, out);
      found += out.size();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pts.size()));
  state.counters["found_per_query"] =
      static_cast<double>(found) / static_cast<double>(state.iterations() * pts.size());
}

BENCHMARK(BM_FSyncGrid)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FSyncIncremental)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FSyncBrute)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncGrid)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncIncremental)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KAsyncBrute)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GridQuery)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IncrementalQuery)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

}  // namespace
