#include <gtest/gtest.h>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/visibility.hpp"
#include "geometry/angles.hpp"
#include "metrics/configurations.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::metrics {
namespace {

using geom::Vec2;

TEST(Configurations, Line) {
  const auto pts = line_configuration(5, 0.5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_TRUE(geom::almost_equal(pts[4], {2.0, 0.0}));
  EXPECT_TRUE(core::VisibilityGraph(pts, 0.5).connected());
}

TEST(Configurations, Grid) {
  const auto pts = grid_configuration(9, 1.0);
  ASSERT_EQ(pts.size(), 9u);
  EXPECT_TRUE(core::VisibilityGraph(pts, 1.0).connected());
}

TEST(Configurations, RegularPolygonSideLength) {
  const auto pts = regular_polygon_configuration(6, 1.0);
  ASSERT_EQ(pts.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(pts[i].distance_to(pts[(i + 1) % 6]), 1.0, 1e-9);
  }
  EXPECT_THROW(regular_polygon_configuration(2, 1.0), std::invalid_argument);
}

TEST(Configurations, RandomConnectedIsConnectedAndDeterministic) {
  const auto a = random_connected_configuration(25, 2.5, 1.0, 7);
  const auto b = random_connected_configuration(25, 2.5, 1.0, 7);
  EXPECT_EQ(a.size(), 25u);
  EXPECT_TRUE(core::VisibilityGraph(a, 1.0).connected());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(geom::almost_equal(a[i], b[i], 0.0));
}

TEST(Configurations, TwoClusterConnected) {
  const auto pts = two_cluster_configuration(20, 3, 1.0, 5);
  EXPECT_EQ(pts.size(), 20u);
  EXPECT_TRUE(core::VisibilityGraph(pts, 1.0).connected());
}

TEST(Configurations, SpiralShape) {
  const auto cfg = spiral_configuration(0.3);
  const auto& p = cfg.positions;
  ASSERT_GE(p.size(), 10u);
  // A at origin, C at distance 1, B at distance 1.
  EXPECT_TRUE(geom::almost_equal(p[0], {0.0, 0.0}));
  EXPECT_NEAR(p[1].norm(), 1.0, 1e-9);
  EXPECT_NEAR(p[2].norm(), 1.0, 1e-9);
  // Unit edges along the tail.
  for (std::size_t i = 2; i + 1 < p.size(); ++i) {
    EXPECT_NEAR(p[i].distance_to(p[i + 1]), 1.0, 1e-9);
  }
  // Total chord sweep reached the 3*pi/8 target.
  EXPECT_GE(cfg.total_chord_angle, 3.0 * geom::kPi / 8.0);
  // Chord lengths grow by just under 1 per edge (paper §7.1's recurrence
  // d_i^2 = d_{i-1}^2 + 1 + 2 d_{i-1} cos(psi), d_0 = |AB| = 1), so
  // d_m in ((m+1)(1 - psi^2/2), m+1] for the m-th tail point.
  for (std::size_t i = 3; i < p.size(); ++i) {
    const double di = p[i].norm();
    const double m1 = static_cast<double>(i - 2) + 1.0;
    EXPECT_LE(di, m1 + 1e-9);
    EXPECT_GE(di, m1 * (1.0 - 0.3 * 0.3 / 2.0) - 1e-9);
  }
}

TEST(Configurations, SpiralScaling) {
  const auto cfg = spiral_configuration(0.3, 0.9);
  for (std::size_t i = 2; i + 1 < cfg.positions.size(); ++i) {
    EXPECT_NEAR(cfg.positions[i].distance_to(cfg.positions[i + 1]), 0.9, 1e-9);
  }
}

TEST(Configurations, SpiralRejectsBadPsi) {
  EXPECT_THROW(spiral_configuration(0.0), std::invalid_argument);
  EXPECT_THROW(spiral_configuration(0.6), std::invalid_argument);
}

TEST(Stats, BasicQuantities) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const ConfigurationStats s = configuration_stats(pts, 1.5);
  EXPECT_NEAR(s.diameter, std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(s.hull_perimeter, 4.0, 1e-9);
  EXPECT_NEAR(s.sec_radius, std::sqrt(2.0) / 2.0, 1e-9);
  EXPECT_NEAR(s.min_pairwise, 1.0, 1e-9);
  EXPECT_TRUE(s.connected);
}

TEST(Stats, AnalyzeConvergenceRun) {
  const algo::KknpsAlgorithm algo;
  sched::FSyncScheduler sched(4);
  core::EngineConfig config;
  config.visibility.radius = 1.0;
  config.error.random_rotation = false;
  core::Engine engine(line_configuration(4, 0.6), algo, sched, config);
  engine.run_until_converged(0.01, 100000);
  const ConvergenceReport rep = analyze(engine.trace(), 1.0, 0.01);
  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.cohesive);
  EXPECT_GT(rep.rounds, 0u);
  EXPECT_GT(rep.rounds_to_halve, 0u);
  EXPECT_LE(rep.final_diameter, 0.01);
  EXPECT_NEAR(rep.initial_diameter, 1.8, 1e-9);
  EXPECT_LE(rep.worst_stretch, 1.0 + 1e-9);
}

TEST(Table, PrintAndCsv) {
  Table t({"a", "b"});
  t.add_row(1, 2.5);
  t.add_row("x", "y");
  std::ostringstream ss;
  t.print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  const std::string path = ::testing::TempDir() + "/cohesion_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2.5");
}

// stats_over_time samples the trace at arbitrary times; each sample must
// equal configuration_stats of the configuration at that time.
TEST(Replay, StatsOverTimeMatchesDirectSampling) {
  const algo::KknpsAlgorithm algo({.k = 1});
  const auto initial = line_configuration(5, 0.7);
  sched::KAsyncScheduler sched(initial.size());
  core::EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  core::Engine engine(initial, algo, sched, cfg);
  engine.run(500);

  const std::vector<core::Time> times{0.0, 1.0, 5.0, 20.0, engine.trace().end_time()};
  const auto series = stats_over_time(engine.trace(), times, 1.0);
  ASSERT_EQ(series.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto direct = configuration_stats(engine.trace().configuration(times[i]), 1.0);
    EXPECT_DOUBLE_EQ(series[i].diameter, direct.diameter);
    EXPECT_DOUBLE_EQ(series[i].hull_perimeter, direct.hull_perimeter);
    EXPECT_EQ(series[i].connected, direct.connected);
  }
  // Diameter non-increasing over the sampled times (hull-diminishing).
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i].diameter, series[i - 1].diameter + 1e-9);
  }
}

}  // namespace
}  // namespace cohesion::metrics
