// core::VisiblePairs against the brute-force O(n^2) pair loop it replaces:
// the same pairs in the same (a asc, b asc) order, and bit-identical
// worst_stretch, for seeded random swarms, sizes around the old grid
// threshold (64), pairs sitting exactly on the closed-ball boundary,
// coincident robots, and degenerate radii.
#include "core/visibility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "core/spatial_index.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;
using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

Pairs brute_pairs(const std::vector<Vec2>& pts, double v) {
  Pairs out;
  for (std::size_t a = 0; a < pts.size(); ++a) {
    for (std::size_t b = a + 1; b < pts.size(); ++b) {
      if (pts[a].distance_to(pts[b]) <= v + kVisibilityEpsilon) out.emplace_back(a, b);
    }
  }
  return out;
}

double brute_stretch(const std::vector<Vec2>& initial, const std::vector<Vec2>& later, double v) {
  double worst = 0.0;
  for (const auto& [a, b] : brute_pairs(initial, v)) {
    worst = std::max(worst, later[a].distance_to(later[b]) / v);
  }
  return worst;
}

Pairs pairs_of(const VisiblePairs& vp) {
  Pairs out;
  for (RobotId a = 0; a < vp.robot_count(); ++a) {
    for (const std::uint32_t b : vp.partners(a)) out.emplace_back(a, b);
  }
  return out;
}

std::vector<Vec2> random_swarm(std::mt19937_64& rng, std::size_t n, double v) {
  // Side ~ sqrt(n) * v / 2: a few neighbours per robot, several grid cells.
  const double side = 0.5 * v * std::sqrt(static_cast<double>(n) + 1.0);
  std::uniform_real_distribution<double> u(-side, side);
  std::vector<Vec2> pts(n);
  for (Vec2& p : pts) p = {u(rng), u(rng)};
  return pts;
}

std::vector<Vec2> jitter(std::mt19937_64& rng, std::vector<Vec2> pts, double amount) {
  std::uniform_real_distribution<double> j(-amount, amount);
  for (Vec2& p : pts) p += Vec2{j(rng), j(rng)};
  return pts;
}

void expect_matches_brute(const std::vector<Vec2>& initial, double v, std::mt19937_64& rng,
                          const char* what) {
  const VisiblePairs vp(initial, v);
  const Pairs brute = brute_pairs(initial, v);
  EXPECT_EQ(vp.robot_count(), initial.size()) << what;
  EXPECT_EQ(pairs_of(vp), brute) << what;
  for (const double amount : {0.0, 0.1, 0.6}) {
    const auto later = jitter(rng, initial, amount);
    EXPECT_EQ(vp.worst_stretch(later), brute_stretch(initial, later, v)) << what;
    EXPECT_EQ(worst_initial_pair_stretch(initial, later, v), vp.worst_stretch(later)) << what;
  }
}

TEST(VisiblePairs, MatchesBruteForceAroundTheOldGridThreshold) {
  for (const std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      std::mt19937_64 rng(seed * 1009 + n);
      const double v = 0.4 + 0.2 * static_cast<double>(seed % 5);
      expect_matches_brute(random_swarm(rng, n, v), v, rng, "fixed n");
    }
  }
}

TEST(VisiblePairs, MatchesBruteForceOnRandomSizes) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(seed ^ 0x5eedULL);
    const std::size_t n = rng() % 401;
    const double v = 0.25 + 1.5 * std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    expect_matches_brute(random_swarm(rng, n, v), v, rng, "random n");
  }
}

TEST(VisiblePairs, ClosedBallBoundaryAndCoincidentRobots) {
  const double v = 1.0;
  std::vector<Vec2> pts;
  // Three isolated pairs at d = v, v + 1e-12 and v + 2e-12 along the x axis
  // from the origin of their own block, so each distance is exact.
  pts.push_back({0.0, 0.0});
  pts.push_back({v, 0.0});
  pts.push_back({0.0, 10.0});
  pts.push_back({v + 1e-12, 10.0});
  pts.push_back({0.0, 20.0});
  pts.push_back({v + 2e-12, 20.0});
  // Three coincident robots.
  for (int i = 0; i < 3; ++i) pts.push_back({30.0, 30.0});
  const VisiblePairs vp(pts, v);
  const Pairs expected{{0, 1}, {2, 3}, {6, 7}, {6, 8}, {7, 8}};
  EXPECT_EQ(pairs_of(vp), expected);
  EXPECT_EQ(pairs_of(vp), brute_pairs(pts, v));

  // Padded past the old threshold, so the boundary pairs sit among many.
  std::mt19937_64 rng(99);
  auto padded = random_swarm(rng, 120, v);
  for (Vec2& p : padded) p += Vec2{100.0, 100.0};
  padded.insert(padded.end(), pts.begin(), pts.end());
  expect_matches_brute(padded, v, rng, "padded boundary");
}

TEST(VisiblePairs, DegenerateRadiiMatchTheBruteLoop) {
  // The pair set is the brute loop's for every radius. V <= 0 keeps only
  // (near-)coincident robots; NaN keeps none. The stretch is then whatever
  // the brute loop computes (d / 0 = inf, 0 / 0 = NaN, which max skips).
  std::mt19937_64 rng(7);
  auto pts = random_swarm(rng, 90, 1.0);
  pts.push_back(pts[3]);
  pts.push_back(pts[3]);
  pts.push_back(pts[40]);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {0.0, -0.5, -1e-13, nan}) {
    const VisiblePairs vp(pts, v);
    EXPECT_EQ(pairs_of(vp), brute_pairs(pts, v)) << "v " << v;
    const auto later = jitter(rng, pts, 0.2);
    EXPECT_EQ(vp.worst_stretch(later), brute_stretch(pts, later, v)) << "v " << v;
    EXPECT_EQ(vp.worst_stretch(pts), brute_stretch(pts, pts, v)) << "v " << v;
  }
  EXPECT_EQ(pairs_of(VisiblePairs(pts, nan)).size(), 0u);
  EXPECT_EQ(pairs_of(VisiblePairs(pts, -0.5)).size(), 0u);
  EXPECT_EQ(pairs_of(VisiblePairs(pts, 0.0)).size(), 4u);  // {3, a, b} and {40, c}
  EXPECT_EQ(VisiblePairs(pts, 0.0).worst_stretch(jitter(rng, pts, 0.2)),
            std::numeric_limits<double>::infinity());
}

TEST(VisiblePairs, EmptyListAndPartnerOrder) {
  const VisiblePairs none;
  EXPECT_EQ(none.robot_count(), 0u);
  EXPECT_EQ(none.worst_stretch({}), 0.0);
  const VisiblePairs vp({{0.0, 0.0}, {0.9, 0.0}, {0.5, 0.0}}, 1.0);
  const std::vector<std::uint32_t> of0(vp.partners(0).begin(), vp.partners(0).end());
  EXPECT_EQ(of0, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(vp.partners(2).size(), 0u);
  EXPECT_EQ(vp.worst_stretch({{0.0, 0.0}, {0.5, 0.0}, {2.0, 0.0}}), 2.0);
}

}  // namespace
}  // namespace cohesion::core
