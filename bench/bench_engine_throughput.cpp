// E12 — engineering throughput: activations/second of the simulation engine
// as a function of swarm size and scheduler (google-benchmark).
#include <benchmark/benchmark.h>

#include <array>
#include <numbers>
#include <random>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

using namespace cohesion;

namespace {

void BM_FSyncEngine(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 1);
  for (auto _ : state) {
    state.PauseTiming();
    sched::FSyncScheduler sched(n);
    core::EngineConfig cfg;
    cfg.visibility.radius = 1.0;
    core::Engine engine(initial, algo, sched, cfg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(n * 20));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 20);
}
BENCHMARK(BM_FSyncEngine)->Arg(8)->Arg(32)->Arg(128);

void BM_KAsyncEngine(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const algo::KknpsAlgorithm algo({.k = k});
  const auto initial = metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), 1.0, 2);
  for (auto _ : state) {
    state.PauseTiming();
    sched::KAsyncScheduler::Params p;
    p.k = k;
    sched::KAsyncScheduler sched(n, p);
    core::EngineConfig cfg;
    cfg.visibility.radius = 1.0;
    core::Engine engine(initial, algo, sched, cfg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(n * 20));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 20);
}
BENCHMARK(BM_KAsyncEngine)->Args({8, 1})->Args({32, 2})->Args({128, 4});

// Compute-only KKNPS on fixed snapshots of m neighbours. Layout 0: uniform
// in a square (the historical series). Layouts 1-3 take the three exits of
// the stay-put certificate: 1 surrounded, directions all round (octants);
// 2 near-boundary, in an arc of 1.1 pi whose ends are occupied, a gap of
// 0.9 pi (witness triangle); 3 mover, in an arc of 0.6 pi (angle path).
void BM_KknpsCompute(benchmark::State& state) {
  const int layout = static_cast<int>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const algo::KknpsAlgorithm algo({.k = 2});
  core::Snapshot snap;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(-1.0, 1.0), frac(0.0, 1.0), norm(0.3, 1.0);
  const double span = std::array{0.0, 2.0, 1.1, 0.6}[layout] * std::numbers::pi;
  for (std::size_t i = 0; i < m; ++i) {
    if (layout == 0) {
      snap.neighbours.push_back({{u(rng), u(rng)}, false});
    } else {
      // The first two mark the arc's ends at full range, so they are distant.
      const double t = i < 2 ? static_cast<double>(i) : frac(rng);
      snap.neighbours.push_back({geom::unit(span * t) * (i < 2 ? 1.0 : norm(rng)), false});
    }
  }
  state.SetLabel(std::array{"square", "surrounded", "near-boundary", "mover"}[layout]);
  for (auto _ : state) benchmark::DoNotOptimize(algo.compute(snap));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KknpsCompute)
    ->Args({0, 4})
    ->Args({0, 16})
    ->Args({0, 64})
    ->Args({1, 16})
    ->Args({2, 16})
    ->Args({3, 16});

}  // namespace
