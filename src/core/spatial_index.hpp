// Uniform-grid index for exact fixed-radius neighbor queries, and the exact
// visibility predicate every hot path shares.
//
// Points are bucketed by the integer cell (floor(x / cell), floor(y / cell))
// of a grid whose side is typically the visibility radius V. A query
// enumerates only the cells overlapping the bounding square of the query
// ball — at most 3x3 cells when the query radius is <= the cell side — and
// applies the *exact* visibility predicate (VisibilityBall: closed ball
// d <= r + 1e-12, or open ball d < r, with d = std::hypot of the coordinate
// differences) to each candidate. The grid therefore changes which pairs
// are examined, never the predicate, so results are bit-identical to a
// brute-force scan over all points. Returned ids are sorted ascending
// (sort_by_id), so callers that consume neighbors in id order (e.g. the
// engine's RNG-drawing perception loop) behave identically to the O(n)
// scan they replace.
//
// Both grids file into one CellArray: a dense row-major array of cells over
// the indexed items' cell bounding box, fitted by one rule (at most 4n + 64
// cells: a few far items per side go to an outlier run that every query
// scans, and a box still too large coarsens its cells) and queried through
// one clipped column/row range per axis.
//
// SpatialGrid fills its array by a stable counting sort: each cell's ids
// and positions are contiguous, so a query reads at most one run per row.
// A rebuild is O(n + cells) with no per-rebuild allocation in steady
// state — cheap enough to run once per distinct Look time in the engine
// hot path.
//
// Rebuild-per-time is the right shape for synchronous schedulers (one
// rebuild amortizes over a whole round of Looks), but async schedulers give
// every Look a distinct time, turning it into O(n) per activation.
// IncrementalGrid (below) is the persistently-maintained variant for that
// regime: each robot's *current trajectory segment* — which covers the
// robot's exact position at every time the segment is current — is stored
// inline in the array cells its box overlaps, so the filing changes only on
// commit (O(1) amortized), never per Look time, and a query evaluates
// positions at its own time inside the cell scan.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <queue>
#include <type_traits>
#include <vector>

#include "core/segment.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Closed-ball slack shared by every visibility predicate in the simulator
/// (engine snapshots, visibility graphs, initial-pair stretch).
inline constexpr double kVisibilityEpsilon = 1e-12;

/// Relative half-width of the band around t² inside which a squared
/// distance cannot stand in for std::hypot (HypotCut, NormMaxFilter,
/// Snapshot::furthest_distance).
inline constexpr double kHypotBand = 1e-9;
/// Squares in [kMinBandSquare, kMaxBandSquare] are far from underflow and
/// overflow, so the band argument below holds for them.
inline constexpr double kMinBandSquare = 0x1p-900;
inline constexpr double kMaxBandSquare = 0x1p900;

/// `std::hypot(d.x, d.y) OP t` for a fixed threshold t, decided from
/// d² = d.x·d.x + d.y·d.y; std::hypot is called only when d² lies inside
/// the ±kHypotBand relative band around t². Every answer equals the
/// literal hypot comparison. With u = 2^-53 and D the exact d.x² + d.y²:
/// glibc's hypot is within 1 ulp (<= 2u relative) of sqrt(D); the computed
/// d² is within (2u + u²)·D of D, plus at most 2^-1074 when a square
/// underflows; fl(t²) is within u·t². So d² < fl(t²)(1 - 1e-9) implies
/// sqrt(D) < t(1 - 4.9e-10), i.e. hypot < t, and d² > fl(t²)(1 + 1e-9)
/// implies hypot > t. The argument needs t² in [kMinBandSquare,
/// kMaxBandSquare]; any other t (negative, tiny, huge, infinite, NaN) gets
/// an infinite band, so every comparison goes to hypot. A NaN d² (a NaN
/// coordinate) fails both band tests and goes to hypot too, which matters:
/// hypot(inf, NaN) is inf. An infinite d² (an infinite coordinate, or an
/// overflowed square) means hypot > 2^511 > t, so "above" is right for it.
class HypotCut {
 public:
  explicit HypotCut(double t) : t_(t) {
    const double t2 = t * t;
    if (t > 0.0 && t2 >= kMinBandSquare && t2 <= kMaxBandSquare) {
      below_ = t2 * (1.0 - kHypotBand);
      above_ = t2 * (1.0 + kHypotBand);
    }
  }
  [[nodiscard]] bool less(geom::Vec2 d) const {
    const double d2 = d.norm2();
    if (d2 < below_) return true;
    if (d2 > above_) return false;
    return d.norm() < t_;
  }
  [[nodiscard]] bool less_equal(geom::Vec2 d) const {
    const double d2 = d.norm2();
    if (d2 < below_) return true;
    if (d2 > above_) return false;
    return d.norm() <= t_;
  }
  [[nodiscard]] bool greater(geom::Vec2 d) const {
    const double d2 = d.norm2();
    if (d2 < below_) return false;
    if (d2 > above_) return true;
    return d.norm() > t_;
  }

 private:
  double t_;
  double below_ = -std::numeric_limits<double>::infinity();
  double above_ = std::numeric_limits<double>::infinity();
};

/// The simulator's visibility predicate for radius r, applied to the
/// difference d of two positions: the closed ball hypot(d) <= r + 1e-12,
/// or the open ball hypot(d) < r.
class VisibilityBall {
 public:
  VisibilityBall(double r, bool open_ball)
      : cut_(open_ball ? r : r + kVisibilityEpsilon), open_(open_ball) {}
  [[nodiscard]] bool contains(geom::Vec2 d) const {
    return open_ ? cut_.less(d) : cut_.less_equal(d);
  }

 private:
  HypotCut cut_;
  bool open_;
};

/// Skips the std::hypot calls of a running max over hypot(d), for a stream
/// too long to scan twice (VisiblePairs::worst_stretch). admits(d) is
/// false only when hypot(d) is provably below the hypot of a vector it
/// already admitted (d² under the band of that vector's d², by HypotCut's
/// argument), so a max of any non-decreasing function of hypot over the
/// admitted vectors equals the max over all of them.
class NormMaxFilter {
 public:
  [[nodiscard]] bool admits(geom::Vec2 d) {
    const double d2 = d.norm2();
    if (d2 < cut_) return false;
    if (d2 >= kMinBandSquare && d2 <= kMaxBandSquare) {
      cut_ = std::max(cut_, d2 * (1.0 - kHypotBand));
    }
    return true;
  }

 private:
  double cut_ = -std::numeric_limits<double>::infinity();
};

/// Decides `geom::set_diameter(points) <= epsilon` from the points' bounding
/// box, in one pass and without a hull, whenever the box is clear of the
/// ±kHypotBand relative band around epsilon. The diameter lies between the longer box
/// side and the box diagonal. With u = 2^-53, W = fl(x_max - x_min) is
/// within u·W* of the exact side W* (min and max are exact, and one
/// subtraction rounds once), and likewise H.
/// - W or H above fl(epsilon·(1 + 1e-9)): the threshold is within 2u of
///   epsilon·(1 + 1e-9), so W* > epsilon·(1 + 1e-9)(1 - 2u)/(1 + u) >
///   epsilon: the two points on opposite sides of the box are more than
///   epsilon apart, and so is the diameter. set_diameter, the largest
///   computed distance over the pairs its calipers visit, agrees unless
///   rounding costs the calipers more than 1e-9 of relative length.
/// - fl(fl(W²) + fl(H²)) below fl(fl(epsilon²)·(1 - 1e-9)): W, the squares
///   and the sum each round once, so W*² + H*² < epsilon²·(1 - 1e-9)·
///   (1 + u)³/(1 - u)⁴ < epsilon²·(1 - 9.9e-10), and every pair is closer
///   than epsilon·(1 - 4.9e-10). (An underflowed square adds at most
///   2^-1074, nothing against epsilon² >= 2^-900.) set_diameter returns
///   std::hypot (within 1 ulp, <= 2u relative, as in HypotCut) of
///   one rounded difference of a pair, at most (1 + 3.1u) times that
///   pair's distance: below epsilon.
/// Inside the band, for an epsilon whose square leaves [kMinBandSquare,
/// kMaxBandSquare] (zero, negative, tiny, huge, NaN) and for a non-finite
/// coordinate, decided() is empty and the caller asks set_diameter.
class DiameterCut {
 public:
  explicit DiameterCut(double epsilon);
  void add(geom::Vec2 p) {
    finite_ = finite_ && std::isfinite(p.x) && std::isfinite(p.y);
    min_x_ = std::min(min_x_, p.x);
    max_x_ = std::max(max_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_y_ = std::max(max_y_, p.y);
  }
  /// True or false when the box decides the diameter against epsilon.
  [[nodiscard]] std::optional<bool> decided() const;

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  double above_ = kInf;   ///< box sides above this: diameter > epsilon
  double below_ = -kInf;  ///< squared diagonals below this: diameter <= epsilon
  double min_x_ = kInf, max_x_ = -kInf, min_y_ = kInf, max_y_ = -kInf;
  bool finite_ = true;
};

/// Most items sort_by_id places by rank.
inline constexpr std::size_t kRankPlaceMax = 64;

/// Sorts `items` by ascending `id_of(item)`, an unsigned integer, like
/// std::sort by id. A grid query yields its ids as a few ascending runs in
/// random order, on which insertion sort mispredicts, so up to
/// kRankPlaceMax items with ids below 2^26 go straight to their rank: the
/// count of smaller keys id·64 + input index, counted branch-free in
/// O(k²). The keys are distinct 32-bit integers even where ids repeat, and
/// items of one id keep their input order. Any other input goes to
/// std::sort. Returns true when the items were placed by rank.
template <class T, class IdOf>
bool sort_by_id(std::vector<T>& items, IdOf id_of) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t k = items.size();
  if (k == 0) return true;
  const auto by_id = [&](const T& a, const T& b) { return id_of(a) < id_of(b); };
  if (k > kRankPlaceMax) {
    std::sort(items.begin(), items.end(), by_id);
    return false;
  }
  std::array<std::uint32_t, kRankPlaceMax> key{};
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t id = id_of(items[i]);
    if (id >= (std::uint64_t{1} << 26)) {
      std::sort(items.begin(), items.end(), by_id);
      return false;
    }
    key[i] = static_cast<std::uint32_t>(id << 6 | i);
  }
  // Raw storage: T's default member initializers would cost a fill.
  alignas(T) std::byte placed[kRankPlaceMax * sizeof(T)];
  for (std::size_t i = 0; i < k; ++i) {
    std::uint32_t rank = 0;
    for (std::size_t j = 0; j < k; ++j) rank += key[j] < key[i] ? 1u : 0u;
    std::memcpy(placed + rank * sizeof(T), &items[i], sizeof(T));
  }
  std::memcpy(items.data(), placed, k * sizeof(T));
  return true;
}

/// A dense row-major array of cells over a box of base cells (squares of
/// the grid's cell size): its cells are 2^shift base cells on a side, and
/// column 0 / row 0 hold cells x0 / y0 of that coarser grid. Cell
/// (col, row) is row * width + col.
struct CellArray {
  int shift = 0;
  std::int64_t x0 = 0;
  std::int64_t y0 = 0;
  std::size_t width = 0;
  std::size_t height = 0;
  [[nodiscard]] std::size_t cells() const { return width * height; }
};

class SpatialGrid {
 public:
  SpatialGrid() = default;
  explicit SpatialGrid(double cell_size) { set_cell_size(cell_size); }

  /// Side length of a grid cell; non-positive/non-finite values fall back to
  /// 1.0. Invalidates the current index.
  void set_cell_size(double cell_size);
  [[nodiscard]] double cell_size() const { return cell_; }

  /// Index a copy of `points`, replacing the previous index. O(n) cells at
  /// most: when the points' cell bounding box holds more than 4n + 64
  /// cells, up to 8 extreme points per side move to an outlier run that
  /// every query scans, if that lets the rest use finer cells; the built
  /// cells are then 2^k base cells on a side, for the least k that fits.
  /// Both are exact, since the predicate decides every candidate.
  void rebuild(const std::vector<geom::Vec2>& points);

  /// Ids (ascending) of indexed points within the closed (d <= r + 1e-12)
  /// or open (d < r) ball around `q`. Includes the query point itself when
  /// it is indexed; callers filter self-matches by id. `out` is overwritten.
  void neighbors_within(geom::Vec2 q, double r, bool open_ball,
                        std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  /// Cells in the dense array of the last rebuild (<= 4 * size() + 64).
  [[nodiscard]] std::size_t cell_count() const { return array_.cells(); }

 private:
  double cell_ = 1.0;
  double inv_cell_ = 1.0;

  // Cell c holds ids_/pos_[cell_start_[c], cell_start_[c + 1]), ids
  // ascending; bucket array_.cells() after the last cell is the outlier
  // run.
  CellArray array_;
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> ids_;
  std::vector<geom::Vec2> pos_;
  // Rebuild scratch: base cells and bucket of each point, rank selection.
  std::vector<std::int64_t> base_x_;
  std::vector<std::int64_t> base_y_;
  std::vector<std::size_t> cell_of_point_;
  std::vector<std::int64_t> rank_scratch_;
};

/// A robot within the query ball of IncrementalGrid::visible_near, with its
/// offset from the query point (its exact position minus `q`).
struct VisibleRobot {
  RobotId id;
  geom::Vec2 offset;
};

/// Incrementally-maintained index of the robots' current trajectory
/// segments, for the async engine hot path.
///
/// Where SpatialGrid buckets *positions at one instant* and must be rebuilt
/// whenever the instant changes, IncrementalGrid files each robot under the
/// array cells overlapped by the bounding box of its current trajectory
/// segment (from → realized). A robot's position at *every* time its
/// segment is current — `from` before the move, the lerp during it,
/// `realized` after — lies inside that box, so the filing only has to
/// change when the segment itself changes: once per commit, O(segment
/// cells) ≈ O(1), instead of O(n) per distinct Look time.
///
/// Each cell stores its members' segments inline, so a query reads one
/// contiguous run per cell: it evaluates every member's exact position at
/// the query time with Segment::at — the function KinematicState and the
/// Trace evaluate, so positions agree with theirs to the last bit — and
/// applies the VisibilityBall right there. Members currently elsewhere
/// along their segment fail the predicate like any far robot; results are
/// bit-identical to a brute-force scan, exactly like SpatialGrid's
/// coarsened cells.
///
/// The array is fitted to the robots' segments by SpatialGrid's rule. A
/// segment whose box leaves the array, or spans kMaxSegmentSpan array
/// cells or more on an axis, goes to an outlier run that every query scans
/// (exact KKNPS moves stay inside the initial hull, so a compact swarm has
/// none). Once more than n / 16 segments have entered that run since the
/// last fit, the grid refits the array to the current segments in
/// O(n + cells), so a drifting swarm costs amortized O(1) per update and
/// its outlier run stays short.
///
/// `advance_to(t)` tightens the index as time moves forward: robots whose
/// move ended at or before `t` sit exactly at `realized` forever after, so
/// their multi-cell segment box collapses to the single end cell (a pending
/// min-heap of move-end times makes this O(log in-flight) amortized).
/// Collapsing assumes queries never go back before the collapse time;
/// the engine guards the scheduler's 1e-12 look-ordering slack by serving
/// backward queries through the reference scan instead.
class IncrementalGrid {
 public:
  /// Rebuild from scratch: robot r rests at `initial[r]`, and the array is
  /// fitted to those positions. Non-positive/non-finite cell sizes fall
  /// back to 1.0, mirroring SpatialGrid::set_cell_size.
  void reset(double cell_size, const std::vector<geom::Vec2>& initial);

  /// Replace `robot`'s segment and file it under the cells of the
  /// segment's box, or in the outlier run; from `segment.t_move_end`
  /// onward the robot sits exactly at `segment.realized` and advance_to
  /// may collapse it to the single end cell. May refit the array.
  void update(RobotId robot, const Segment& segment);

  /// Collapse every robot whose move ended at or before `t` to its end
  /// cell. Queries served after this call must be at times >= `t`.
  void advance_to(Time t);

  /// Every robot whose exact position at `t` lies in `ball` around `q`,
  /// ids ascending and unique, with its offset from `q`. `r` is the ball's
  /// radius (it bounds the cells scanned); `t` must be a time at which
  /// every robot's last update() segment is current, and no earlier than
  /// the last advance_to. Includes the robot at `q` itself when it is
  /// indexed; callers filter self-matches by id. `out` is overwritten.
  void visible_near(geom::Vec2 q, double r, const VisibilityBall& ball, Time t,
                    std::vector<VisibleRobot>& out) const;

  [[nodiscard]] std::size_t robot_count() const { return place_.size(); }
  [[nodiscard]] double cell_size() const { return cell_; }
  /// Robots in the outlier run: at most 32 + robot_count() / 16, plus
  /// the segments spanning kMaxSegmentSpan cells at the last fit.
  [[nodiscard]] std::size_t outlier_count() const { return outliers_.size(); }

 private:
  /// Per-axis span, in array cells, from which a segment is an outlier.
  /// Committed moves are bounded by ~the visibility radius (= one cell
  /// side) plus motion error, so real segments span <= 2-3 cells per axis.
  static constexpr std::int64_t kMaxSegmentSpan = 8;

  /// One robot's segment, filed in one cell (or in the outlier run).
  struct Entry {
    Segment segment;
    std::uint32_t robot;
  };
  /// Array columns col..col+w by rows row..row+h.
  struct Box {
    std::uint32_t col = 0;
    std::uint32_t row = 0;
    std::uint8_t w = 0;
    std::uint8_t h = 0;
    [[nodiscard]] bool contains(std::uint32_t c, std::uint32_t r) const {
      return c - col <= std::uint32_t{w} && r - row <= std::uint32_t{h};
    }
  };
  /// Where a robot's entries are: the cells of `box`, or outliers_[outlier].
  struct Place {
    Box box;
    std::int32_t outlier = -1;
    std::uint32_t generation = 0;  ///< bumped per update; tags settle_queue_
    bool settled = false;          ///< filed by `realized` alone (collapsed)
  };

  /// Array cells of the bounding box of `a` and `b`, or nullopt when it
  /// leaves the array or spans kMaxSegmentSpan or more cells on an axis.
  [[nodiscard]] std::optional<Box> cell_box(geom::Vec2 a, geom::Vec2 b) const;
  /// The robot's entry, from its first cell or the outlier run.
  [[nodiscard]] const Entry& entry_of(RobotId robot) const;
  /// Re-file `e` under the cells of `to`, or in the outlier run if nullopt:
  /// overwrite it in the cells both filings share, drop it from the rest.
  void refile(const Entry& e, const std::optional<Box>& to);
  void drop_outlier(RobotId robot);
  void collapse(RobotId robot);
  /// Fit the array to `entries` (every robot's, any order) and file them.
  void refit(const std::vector<Entry>& entries);

  double cell_ = 1.0;
  double inv_cell_ = 1.0;

  CellArray array_;
  // Member entries per array cell, in no particular order.
  std::vector<std::vector<Entry>> cells_;
  std::vector<Place> place_;

  // Pending collapses: (settle_time, robot | generation). A stale entry
  // (robot re-committed since push) is recognized by its generation and
  // skipped on pop.
  std::priority_queue<std::pair<Time, std::uint64_t>,
                      std::vector<std::pair<Time, std::uint64_t>>,
                      std::greater<>>
      settle_queue_;

  // Entries of robots whose segment box is outside the array or too long:
  // always scanned. outliers_added_ counts entries since the last fit.
  std::vector<Entry> outliers_;
  std::size_t outliers_added_ = 0;
};

}  // namespace cohesion::core
