#include "core/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/kinematics.hpp"
#include "core/trace.hpp"
#include "core/visibility.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {
namespace {

using geom::Vec2;

std::vector<std::size_t> brute_neighbors(const std::vector<Vec2>& pts, Vec2 q, double r,
                                         bool open_ball) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double d = q.distance_to(pts[i]);
    const bool vis = open_ball ? (d < r) : (d <= r + kVisibilityEpsilon);
    if (vis) out.push_back(i);
  }
  return out;
}

std::vector<std::pair<RobotId, RobotId>> brute_edges(const std::vector<Vec2>& pts, double v,
                                                     bool open_ball) {
  std::vector<std::pair<RobotId, RobotId>> edges;
  for (RobotId a = 0; a < pts.size(); ++a) {
    for (RobotId b = a + 1; b < pts.size(); ++b) {
      const double d = pts[a].distance_to(pts[b]);
      const bool vis = open_ball ? (d < v) : (d <= v + kVisibilityEpsilon);
      if (vis) edges.emplace_back(a, b);
    }
  }
  return edges;
}

/// Random point set with adversarial structure: exact duplicates and pairs
/// at exactly the query radius (so the closed/open boundary is exercised).
std::vector<Vec2> make_points(std::mt19937_64& rng, std::size_t n, double world, double r) {
  std::uniform_real_distribution<double> u(-world, world);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.push_back({u(rng), u(rng)});
  if (n >= 4) {
    pts[1] = pts[0];                         // exact duplicate
    pts[3] = pts[2] + Vec2{r, 0.0};          // pair at exactly distance r
  }
  return pts;
}

TEST(SpatialGrid, RandomizedEquivalenceHarness1000Seeds) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = seed % 49;  // includes n = 0
    const double r = 0.05 + 2.0 * (seed % 7) / 7.0;
    const double world = 0.5 + 3.0 * (seed % 5) / 5.0;
    const bool open_ball = (seed / 7) % 2 == 0;
    const auto pts = make_points(rng, n, world, r);

    SpatialGrid grid(r);
    grid.rebuild(pts);
    std::vector<std::size_t> got;
    // Query from every indexed point plus a few arbitrary off-grid points.
    std::uniform_real_distribution<double> u(-2.0 * world, 2.0 * world);
    std::vector<Vec2> queries = pts;
    queries.push_back({u(rng), u(rng)});
    queries.push_back({u(rng), u(rng)});
    for (const Vec2 q : queries) {
      grid.neighbors_within(q, r, open_ball, got);
      EXPECT_EQ(got, brute_neighbors(pts, q, r, open_ball)) << "seed " << seed;
    }
  }
}

TEST(SpatialGrid, CellSizeIndependence) {
  // The query radius need not match the cell size: results must be exact for
  // cells far smaller and far larger than the ball.
  std::mt19937_64 rng(99);
  const auto pts = make_points(rng, 200, 3.0, 0.7);
  for (const double cell : {0.05, 0.3, 0.7, 2.5, 100.0}) {
    SpatialGrid grid(cell);
    grid.rebuild(pts);
    std::vector<std::size_t> got;
    for (const Vec2 q : pts) {
      grid.neighbors_within(q, 0.7, false, got);
      EXPECT_EQ(got, brute_neighbors(pts, q, 0.7, false)) << "cell " << cell;
    }
  }
}

TEST(SpatialGrid, DegenerateInputs) {
  SpatialGrid grid(1.0);
  std::vector<std::size_t> got;
  // Query before any rebuild.
  grid.neighbors_within({0.0, 0.0}, 1.0, false, got);
  EXPECT_TRUE(got.empty());
  // Empty point set.
  const std::vector<Vec2> empty;
  grid.rebuild(empty);
  grid.neighbors_within({0.0, 0.0}, 1.0, false, got);
  EXPECT_TRUE(got.empty());
  // Huge coordinates must not trip the cell clamping.
  const std::vector<Vec2> far{{1e200, -1e200}, {1e200, -1e200}, {0.0, 0.0}};
  grid.rebuild(far);
  grid.neighbors_within({1e200, -1e200}, 1.0, false, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 1}));
  // Zero and negative radius behave like the brute predicate.
  grid.neighbors_within({0.0, 0.0}, 0.0, false, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{2}));
  grid.neighbors_within({0.0, 0.0}, 0.0, true, got);
  EXPECT_TRUE(got.empty());
}

/// Every point (and a few off-grid points) queried at each radius and ball
/// kind must match the brute scan; the dense cell array stays O(n).
void expect_grid_exact(const std::vector<Vec2>& pts, double cell, const std::vector<double>& radii,
                       const char* what) {
  SpatialGrid grid(cell);
  grid.rebuild(pts);
  EXPECT_LE(grid.cell_count(), 4 * pts.size() + 64) << what;
  std::vector<Vec2> queries = pts;
  queries.insert(queries.end(), {{0.0, 0.0}, {1e9, 0.0}, {-3.5, 2.25}, {NAN, 0.0}});
  std::vector<std::size_t> got;
  for (const double r : radii) {
    for (const bool open_ball : {false, true}) {
      for (const Vec2 q : queries) {
        grid.neighbors_within(q, r, open_ball, got);
        ASSERT_EQ(got, brute_neighbors(pts, q, r, open_ball))
            << what << " q=" << q << " r=" << r << " open=" << open_ball;
      }
    }
  }
}

TEST(SpatialGrid, DenseArrayStaysExactAndLinearForAnySpread) {
  std::mt19937_64 rng(2026);
  // One robot 1e9 V away from a 400-robot swarm: the bounding box would
  // need ~10^18 cells, so the built cells coarsen until it fits.
  std::vector<Vec2> far = make_points(rng, 400, 8.0, 1.0);
  far.push_back({1e9, 0.0});
  expect_grid_exact(far, 1.0, {1.0, 0.0, 2.5}, "far robot");

  // Far robots must not coarsen a compact lattice: up to 8 per side go to
  // the outlier run and the lattice keeps the cells it has alone. A 9th on
  // one side forces coarsening instead. Exact either way.
  std::vector<Vec2> lattice;
  for (int i = 0; i < 400; ++i) lattice.push_back({0.75 * (i % 20), 0.75 * (i / 20)});
  SpatialGrid alone(1.0);
  alone.rebuild(lattice);
  std::vector<Vec2> ringed = lattice;
  for (int i = 0; i < 8; ++i) {
    ringed.insert(ringed.end(), {{1e9, 1.0 * i}, {-1e9, 1.0 * i}, {1.0 * i, 1e9}, {1.0 * i, -1e6}});
  }
  for (const std::size_t extra : {1u, 32u}) {
    const std::vector<Vec2> pts(ringed.begin(), ringed.begin() + 400 + extra);
    SpatialGrid grid(1.0);
    grid.rebuild(pts);
    EXPECT_EQ(grid.cell_count(), alone.cell_count()) << extra << " far robots";
    expect_grid_exact(pts, 1.0, {1.0, 0.0, 2.5}, "far robots as outliers");
  }
  ringed.push_back({-1e9, 8.0});
  SpatialGrid coarse(1.0);
  coarse.rebuild(ringed);
  EXPECT_NE(coarse.cell_count(), alone.cell_count());  // coarse cells over the whole box
  expect_grid_exact(ringed, 1.0, {1.0, 0.0, 2.5}, "one far robot too many");

  // NaN and +-1e300 coordinates (cells clamp; NaN maps to cell 0).
  std::vector<Vec2> wild = make_points(rng, 60, 3.0, 1.0);
  wild.insert(wild.end(), {{NAN, 1.0}, {1.0, NAN}, {NAN, NAN}, {1e300, -1e300},
                           {-1e300, 1e300}, {1e300, 1e300}, {INFINITY, 0.0}, {0.5, -INFINITY}});
  expect_grid_exact(wild, 1.0, {1.0, 0.0, 1e300, INFINITY}, "non-finite");

  // All points in one cell.
  const std::vector<Vec2> one_cell = make_points(rng, 200, 0.45, 0.3);
  expect_grid_exact(one_cell, 1.0, {0.3, 1.0}, "one cell");

  // An L-shaped chain of 4096 robots at spacing 0.75: the bounding box is
  // ~1536^2 cells for 4096 points, the case the cap exists for.
  std::vector<Vec2> chain;
  for (int i = 0; i < 2048; ++i) chain.push_back({0.75 * i, 0.0});
  for (int i = 1; i <= 2048; ++i) chain.push_back({0.75 * 2047, 0.75 * i});
  SpatialGrid grid(1.0);
  grid.rebuild(chain);
  EXPECT_LE(grid.cell_count(), 4 * chain.size() + 64);
  std::vector<std::size_t> got;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    grid.neighbors_within(chain[i], 1.0, false, got);
    ASSERT_EQ(got, brute_neighbors(chain, chain[i], 1.0, false)) << "chain robot " << i;
  }

  // Query radius far above the cell side, and r = 0.
  const std::vector<Vec2> swarm = make_points(rng, 300, 6.0, 0.25);
  expect_grid_exact(swarm, 0.25, {0.0, 40.0, 5.0}, "radius vs cell");
}

TEST(VisibilityGraph, GridPathMatchesBruteForce) {
  // n above the grid threshold: the constructor takes the grid path; the
  // edge list must be identical (same pairs, same order) to the O(n^2) scan.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 64 + seed % 150;
    const double v = 0.3 + (seed % 9) / 9.0;
    const bool open_ball = seed % 2 == 0;
    const auto pts = make_points(rng, n, 0.4 * std::sqrt(double(n)), v);
    const VisibilityGraph g(pts, v, open_ball);
    EXPECT_EQ(g.edges(), brute_edges(pts, v, open_ball)) << "seed " << seed;
  }
}

TEST(VisibilityGraph, StretchGridPathMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937_64 rng(seed * 31 + 7);
    const std::size_t n = 64 + seed % 120;
    const double v = 0.4 + (seed % 5) / 5.0;
    const auto initial = make_points(rng, n, 0.4 * std::sqrt(double(n)), v);
    std::vector<Vec2> later = initial;
    std::uniform_real_distribution<double> jitter(-0.3, 0.3);
    for (Vec2& p : later) p += Vec2{jitter(rng), jitter(rng)};

    double brute = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (initial[a].distance_to(initial[b]) <= v + kVisibilityEpsilon) {
          brute = std::max(brute, later[a].distance_to(later[b]) / v);
        }
      }
    }
    EXPECT_EQ(worst_initial_pair_stretch(initial, later, v), brute) << "seed " << seed;
  }
}

/// Brute-force oracle for IncrementalGrid::visible_near: every robot's exact
/// position at `t` from its current segment, offset from `q`, filtered by
/// the ball — in id order.
std::vector<VisibleRobot> brute_visible(const KinematicState& kin, Vec2 q,
                                        const VisibilityBall& ball, Time t) {
  std::vector<VisibleRobot> out;
  for (RobotId i = 0; i < kin.robot_count(); ++i) {
    const Vec2 offset = kin.position_at(i, t) - q;
    if (ball.contains(offset)) out.push_back({i, offset});
  }
  return out;
}

/// Ids equal and offsets bitwise equal.
void expect_same_visible(const std::vector<VisibleRobot>& got,
                         const std::vector<VisibleRobot>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].offset.x),
              std::bit_cast<std::uint64_t>(want[i].offset.x))
        << where << " robot " << want[i].id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].offset.y),
              std::bit_cast<std::uint64_t>(want[i].offset.y))
        << where << " robot " << want[i].id;
  }
}

std::vector<std::size_t> ids_of(const std::vector<VisibleRobot>& visible) {
  std::vector<std::size_t> ids;
  for (const VisibleRobot& v : visible) ids.push_back(v.id);
  return ids;
}

/// Commit `rec` to both the kinematic state and the index, as the engine
/// does.
void commit(KinematicState& kin, IncrementalGrid& inc, const ActivationRecord& rec) {
  kin.commit(rec);
  inc.update(rec.activation.robot, kin.segment(rec.activation.robot));
}

TEST(IncrementalGrid, FuzzAdvanceMatchesRebuildAcrossCommitHistories) {
  // Drive an IncrementalGrid through random committed segment histories —
  // the exact inputs the engine feeds it — and after every commit compare,
  // at several non-decreasing query times, visible_near against (a) the
  // brute-force exact-eval + VisibilityBall scan, ids and offsets bitwise,
  // (b) a SpatialGrid rebuilt from scratch over the exact positions and (c)
  // the hypot predicate. Histories include zero-duration moves, degenerate
  // (nil) segments, multi-cell moves, teleports and long idle spans that
  // let settled robots collapse to their end cell; each time also gets a
  // query whose square spans more than 64 cells (the scan-every-cell
  // branch).
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + seed % 24;
    const double cell = 0.3 + (seed % 5) * 0.4;
    const double r = 0.1 + 1.2 * ((seed / 5) % 4) / 4.0;
    const bool open_ball = seed % 2 == 0;
    const VisibilityBall ball(r, open_ball);
    const VisibilityBall everywhere(100.0, open_ball);
    std::uniform_real_distribution<double> u(-4.0, 4.0);

    std::vector<Vec2> initial;
    for (std::size_t i = 0; i < n; ++i) initial.push_back({u(rng), u(rng)});

    KinematicState kin(initial);
    IncrementalGrid inc;
    inc.reset(cell, initial);
    SpatialGrid rebuilt(cell);

    std::vector<Time> busy(n, 0.0);
    Time frontier = 0.0;
    std::uniform_real_distribution<double> dur(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::vector<VisibleRobot> got;
    std::vector<std::size_t> want;
    for (int step = 0; step < 40; ++step) {
      const RobotId rob = pick(rng);
      Activation a;
      a.robot = rob;
      a.t_look = std::max(frontier, busy[rob]) + dur(rng);
      a.t_move_start = a.t_look + dur(rng);
      a.t_move_end = a.t_move_start + (step % 7 == 0 ? 0.0 : dur(rng));
      a.realized_fraction = 1.0;
      const Vec2 from = kin.position_at(rob, a.t_look);
      // Mostly short hops; occasionally a multi-cell lurch or a teleport.
      const double reach = step % 13 == 5 ? 12.0 * cell : step % 11 == 0 ? 3.0 : 0.6 * cell;
      std::uniform_real_distribution<double> hop(-reach, reach);
      const Vec2 realized = from + Vec2{hop(rng), hop(rng)};
      commit(kin, inc, {a, from, realized, realized, 0});
      frontier = a.t_look;
      busy[rob] = a.t_move_end;

      // Query at the commit's Look time, mid-move, and far in the future
      // (all robots settled) — times non-decreasing, as the engine's
      // forward-query contract requires.
      for (const Time t : {frontier, frontier + 0.3, frontier + 50.0}) {
        inc.advance_to(t);
        std::vector<Vec2> exact(n);
        for (RobotId q = 0; q < n; ++q) exact[q] = kin.position_at(q, t);
        rebuilt.rebuild(exact);
        const std::string where =
            "seed " + std::to_string(seed) + " step " + std::to_string(step) + " t " +
            std::to_string(t);
        for (std::size_t qi = 0; qi < n; ++qi) {
          const Vec2 q = exact[qi];
          inc.visible_near(q, r, ball, t, got);
          expect_same_visible(got, brute_visible(kin, q, ball, t), where);
          rebuilt.neighbors_within(q, r, open_ball, want);
          EXPECT_EQ(ids_of(got), want) << where;
          EXPECT_EQ(ids_of(got), brute_neighbors(exact, q, r, open_ball)) << where;
        }
        inc.visible_near(exact[0], 100.0, everywhere, t, got);
        expect_same_visible(got, brute_visible(kin, exact[0], everywhere, t), where + " wide");
      }
      // The far-future advance settled everyone; continue committing past it
      // only with Look times that respect the non-decreasing contract.
      frontier += 50.0;
      for (RobotId q = 0; q < n; ++q) busy[q] = std::max(busy[q], frontier);
    }
  }
}

TEST(IncrementalGrid, TeleportSegmentsStayExactViaOutlierList) {
  // A segment spanning far more cells than any real move (bounded by ~the
  // visibility radius) parks the robot in the always-scanned outlier run;
  // queries must stay exact while it is in flight, after it settles, when
  // a second teleport shares the run, and when a robot leaves the run by
  // recommitting a short move before its teleport settled.
  const std::vector<Vec2> initial{{0.0, 0.0}, {0.5, 0.0}, {100.0, 100.0}, {-3.0, 2.0},
                                  {-80.0, 40.0}};
  IncrementalGrid inc;
  inc.reset(1.0, initial);
  KinematicState kin(initial);
  const VisibilityBall ball(1.0, false);

  const auto activation = [](RobotId r, Time look, Time start, Time end) {
    Activation a;
    a.robot = r;
    a.t_look = look;
    a.t_move_start = start;
    a.t_move_end = end;
    a.realized_fraction = 1.0;
    return a;
  };
  const auto check = [&](Time t) {
    inc.advance_to(t);
    std::vector<VisibleRobot> got;
    for (RobotId q = 0; q < initial.size(); ++q) {
      const Vec2 at = kin.position_at(q, t);
      inc.visible_near(at, 1.0, ball, t, got);
      expect_same_visible(got, brute_visible(kin, at, ball, t),
                          "t " + std::to_string(t) + " q " + std::to_string(q));
    }
  };
  // Robot 2: a 100-cell teleport toward the cluster, settling at t = 5.
  commit(kin, inc, {activation(2, 1.0, 1.0, 5.0), initial[2], {0.25, 0.1}, {0.25, 0.1}, 0});
  // Robot 4: another teleport, toward robot 3, settling at t = 8.
  commit(kin, inc, {activation(4, 1.0, 2.0, 8.0), initial[4], {-3.2, 2.1}, {-3.2, 2.1}, 0});
  for (const Time t : {1.0, 2.5, 5.0}) check(t);
  // Robot 4 recommits at t = 6, mid-teleport, with a short hop: it leaves
  // the outlier run for the cells of the new segment.
  const Vec2 mid = kin.position_at(4, 6.0);
  commit(kin, inc, {activation(4, 6.0, 6.0, 7.0), mid, mid + Vec2{0.3, 0.0},
                    mid + Vec2{0.3, 0.0}, 0});
  for (const Time t : {6.0, 6.5, 9.0}) check(t);
  // Robot 2, settled in its end cell, teleports back out.
  commit(kin, inc, {activation(2, 9.0, 9.0, 12.0), kin.position_at(2, 9.0), {90.0, -90.0},
                    {90.0, -90.0}, 0});
  for (const Time t : {9.0, 10.0, 12.0, 20.0}) check(t);
}

TEST(IncrementalGrid, StaleSettleEntriesAreIgnoredAfterRecommit) {
  // Robot recommits before its previous segment's settle time: the stale
  // queue entry must not collapse the new segment's cells.
  const std::vector<Vec2> initial{{0.0, 0.0}, {2.6, 0.0}};
  IncrementalGrid inc;
  inc.reset(1.0, initial);
  // First segment: long slow move rightward, would settle at t = 10.
  inc.update(0, Segment{{0.0, 0.0}, {1.8, 0.0}, 0.0, 10.0});
  // Recommit at t = 3 (the engine would only do this once the robot is
  // free again; here only queue staleness matters): a slow move near the
  // second robot, from t = 3 to t = 30, across cells 1 and 2.
  const Segment live{{1.8, 0.0}, {2.2, 0.0}, 3.0, 30.0};
  inc.update(0, live);
  // Pops the stale t = 10 entry, which must leave both cells of the live
  // segment filed: at t = 10 the robot is still in cell 1 (x ~ 1.90),
  // which a query from x = 0.95 reaches and cell 2 does not.
  inc.advance_to(10.0);
  const VisibilityBall ball(1.0, false);
  std::vector<VisibleRobot> got;
  inc.visible_near({0.95, 0.0}, 1.0, ball, 10.0, got);
  ASSERT_EQ(ids_of(got), (std::vector<std::size_t>{0}));
  EXPECT_EQ(got[0].offset, live.at(10.0) - Vec2(0.95, 0.0));
  // From t = 30 robot 0 rests at (2.2, 0): visible from robot 1 at
  // distance 0.4.
  inc.advance_to(30.0);
  inc.visible_near({2.6, 0.0}, 1.0, ball, 30.0, got);
  ASSERT_EQ(ids_of(got), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(got[0].offset, Vec2(2.2, 0.0) - Vec2(2.6, 0.0));
  EXPECT_EQ(got[1].offset, Vec2(0.0, 0.0));
}

TEST(KinematicState, MatchesTraceReplayBitExactly) {
  // Replay random committed histories into both tiers and check the cache
  // agrees with the trace wherever the cache is defined (t >= its segment's
  // Look time) — including mid-move interpolation and degenerate segments.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + seed % 8;
    std::uniform_real_distribution<double> u(-5.0, 5.0);
    std::vector<Vec2> initial;
    for (std::size_t r = 0; r < n; ++r) initial.push_back({u(rng), u(rng)});

    Trace trace(initial);
    KinematicState kin(initial);
    std::vector<Time> busy(n, 0.0);
    Time frontier = 0.0;
    std::uniform_real_distribution<double> dur(0.0, 1.5);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (int step = 0; step < 60; ++step) {
      const RobotId r = pick(rng);
      Activation a;
      a.robot = r;
      a.t_look = std::max(frontier, busy[r]) + dur(rng);
      a.t_move_start = a.t_look + dur(rng);
      a.t_move_end = a.t_move_start + dur(rng);  // may be zero-length
      a.realized_fraction = 1.0;
      ActivationRecord rec{a, trace.position(r, a.t_look), {u(rng), u(rng)}, {u(rng), u(rng)}, 0};
      trace.record(rec);
      kin.commit(rec);
      frontier = a.t_look;
      busy[r] = a.t_move_end;

      for (RobotId q = 0; q < n; ++q) {
        for (const Time t : {frontier, frontier + 0.2, a.t_move_start, a.t_move_end,
                             a.t_move_end + 3.0}) {
          if (t < kin.segment_start(q)) continue;  // cache undefined there
          const Vec2 cached = kin.position_at(q, t);
          const Vec2 replayed = trace.position(q, t);
          EXPECT_EQ(cached.x, replayed.x) << "seed " << seed;
          EXPECT_EQ(cached.y, replayed.y) << "seed " << seed;
        }
      }
    }
    EXPECT_EQ(trace.end_time(), [&] {
      Time end = 0.0;
      for (const auto& rec : trace.records()) end = std::max(end, rec.activation.t_move_end);
      return end;
    }());
    for (RobotId r = 0; r < n; ++r) {
      std::size_t count = 0;
      for (const auto& rec : trace.records()) count += rec.activation.robot == r;
      EXPECT_EQ(trace.activation_count(r), count);
    }
  }
}

TEST(KinematicState, DirtyTrackingRecordsCommitsSinceLastDrain) {
  const std::vector<Vec2> initial{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  KinematicState kin(initial);
  const auto commit = [&](RobotId r, Time look) {
    Activation a;
    a.robot = r;
    a.t_look = look;
    a.t_move_start = look;
    a.t_move_end = look + 0.5;
    a.realized_fraction = 1.0;
    kin.commit({a, initial[r], initial[r], initial[r], 0});
  };
  commit(1, 1.0);
  EXPECT_TRUE(kin.dirty().empty());  // off by default: reference paths pay nothing
  kin.set_track_dirty(true);
  commit(2, 2.0);
  commit(0, 3.0);
  commit(2, 4.0);
  EXPECT_EQ(kin.dirty(), (std::vector<RobotId>{2, 0, 2}));  // commit order, repeats kept
  kin.clear_dirty();
  EXPECT_TRUE(kin.dirty().empty());
  commit(1, 5.0);
  EXPECT_EQ(kin.dirty(), (std::vector<RobotId>{1}));
  EXPECT_EQ(kin.segment(1).t_move_end, 5.5);
  EXPECT_EQ(kin.segment(1).from, initial[1]);
  EXPECT_EQ(kin.segment(1).realized, initial[1]);
}

}  // namespace
}  // namespace cohesion::core
