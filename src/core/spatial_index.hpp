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
// brute-force scan over all points. Returned ids are sorted ascending, so
// callers that consume neighbors in id order (e.g. the engine's RNG-drawing
// perception loop) behave identically to the O(n) scan they replace.
//
// SpatialGrid is a dense row-major cell array over the points' cell
// bounding box (less a few far outliers, which every query scans), filled
// by a stable counting sort: each cell's ids and positions are contiguous,
// so a query reads at most one run per row instead of chasing per-cell
// lists. A rebuild is O(n + cells) with no
// per-rebuild allocation in steady state — cheap enough to run once per
// distinct Look time in the engine hot path.
//
// Rebuild-per-time is the right shape for synchronous schedulers (one
// rebuild amortizes over a whole round of Looks), but async schedulers give
// every Look a distinct time, turning it into O(n) per activation.
// IncrementalGrid (below) is the persistently-maintained variant for that
// regime: robots are bucketed by the cells of their *current trajectory
// segment* — which covers the robot's exact position at every time the
// segment is current — so buckets change only on commit (O(1) amortized),
// never per Look time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Closed-ball slack shared by every visibility predicate in the simulator
/// (engine snapshots, visibility graphs, initial-pair stretch).
inline constexpr double kVisibilityEpsilon = 1e-12;

/// Relative half-width of the band around t² inside which a squared
/// distance cannot stand in for std::hypot (HypotCut, NormMaxFilter).
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

/// Skips the std::hypot calls of a running max over hypot(d). admits(d) is
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
  /// cells, up to kOutliersPerSide extreme points per side move to an
  /// outlier run that every query scans, if that lets the rest use finer
  /// cells; the built cells are then 2^k base cells on a side, for the
  /// least k that fits. Both are exact, since the predicate decides every
  /// candidate.
  void rebuild(const std::vector<geom::Vec2>& points);

  /// Ids (ascending) of indexed points within the closed (d <= r + 1e-12)
  /// or open (d < r) ball around `q`. Includes the query point itself when
  /// it is indexed; callers filter self-matches by id. `out` is overwritten.
  void neighbors_within(geom::Vec2 q, double r, bool open_ball,
                        std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  /// Cells in the dense array of the last rebuild (<= 4 * size() + 64).
  [[nodiscard]] std::size_t cell_count() const { return width_ * height_; }

 private:
  /// Column (x) or row (y) of the built array holding `coord`, before
  /// clipping to the array.
  [[nodiscard]] std::int64_t column_of(double coord, std::int64_t origin) const;

  static constexpr std::size_t kOutliersPerSide = 8;

  double cell_ = 1.0;
  double inv_cell_ = 1.0;

  // Built cells are 2^shift_ base cells on a side; column 0 / row 0 hold the
  // built cells x0_ / y0_. Cell (col, row) is row * width_ + col, and its
  // points are ids_/pos_[cell_start_[cell], cell_start_[cell + 1]), ids
  // ascending; bucket width_ * height_ after the last cell is the outlier
  // run.
  int shift_ = 0;
  std::int64_t x0_ = 0;
  std::int64_t y0_ = 0;
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> ids_;
  std::vector<geom::Vec2> pos_;
  // Rebuild scratch: base cells and bucket of each point, rank selection.
  std::vector<std::int64_t> base_x_;
  std::vector<std::int64_t> base_y_;
  std::vector<std::size_t> cell_of_point_;
  std::vector<std::int64_t> rank_scratch_;
};

/// Incrementally-maintained robot→cell index for the async engine hot path.
///
/// Where SpatialGrid buckets *positions at one instant* and must be rebuilt
/// whenever the instant changes, IncrementalGrid buckets each robot by the
/// grid cells overlapped by the bounding box of its current trajectory
/// segment (from → realized). A robot's position at *every* time its
/// segment is current — `from` before the move, the lerp during it,
/// `realized` after — lies inside that box, so the bucket set only has to
/// change when the segment itself changes: once per commit, O(segment
/// cells) ≈ O(1), instead of O(n) per distinct Look time.
///
/// The price is that a query returns *candidates*, not neighbors: a cell
/// can hold robots currently elsewhere along their segment. Callers
/// evaluate each candidate's exact position (O(1) through KinematicState)
/// and apply the exact visibility predicate, so results remain bit-identical
/// to a brute-force scan — the index only ever enlarges the examined set,
/// exactly like SpatialGrid's clamped and coarsened cells.
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
  /// Rebuild from scratch: robot r bucketed at the (degenerate) segment
  /// `initial[r] → initial[r]`. Non-positive/non-finite cell sizes fall
  /// back to 1.0, mirroring SpatialGrid::set_cell_size.
  void reset(double cell_size, const std::vector<geom::Vec2>& initial);

  /// Replace `robot`'s buckets with the cells of the bounding box of the
  /// segment `from → to`; from `settle_time` onward the robot sits exactly
  /// at `to` and advance_to may collapse it to the single end cell.
  /// Segments spanning implausibly many cells (a teleport much longer than
  /// the visibility radius) are kept on an always-scanned outlier list
  /// instead of flooding the table.
  void update(RobotId robot, geom::Vec2 from, geom::Vec2 to, Time settle_time);

  /// Collapse every robot whose `settle_time` is <= `t` to its end cell.
  /// Queries served after this call must be at times >= `t`.
  void advance_to(Time t);

  /// Ids (ascending, unique) of every robot whose bucket cells overlap the
  /// bounding square of the ball around `q` — a superset of the robots
  /// whose exact current position lies within distance r of `q`. The caller
  /// applies the exact visibility predicate. `out` is overwritten.
  void candidates_near(geom::Vec2 q, double r, std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t robot_count() const { return robot_nodes_.size(); }
  [[nodiscard]] double cell_size() const { return cell_; }

 private:
  /// One (robot, cell) membership: a node of the cell's doubly-linked list.
  struct Node {
    std::uint64_t key = 0;
    std::int32_t robot = -1;
    std::int32_t prev = -1;  ///< -1: this node is the chain head
    std::int32_t next = -1;
  };

  [[nodiscard]] std::int64_t cell_of(double coord) const;
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;  ///< live slot or npos
  std::size_t find_or_insert_slot(std::uint64_t key);
  void erase_slot(std::size_t slot);  ///< backward-shift deletion
  void grow_table(std::size_t min_slots);
  void link(RobotId robot, std::uint64_t key);
  void unlink(std::int32_t node);
  void clear_robot(RobotId robot);
  void set_outlier(RobotId robot, bool on);
  void collapse(RobotId robot);

  double cell_ = 1.0;
  double inv_cell_ = 1.0;

  // Open-addressed cell table (linear probing, backward-shift deletion):
  // live slots map a cell key to the head node of that cell's member list.
  std::vector<std::uint64_t> table_key_;
  std::vector<std::int32_t> table_head_;
  std::vector<bool> table_used_;
  std::size_t mask_ = 0;
  std::size_t live_cells_ = 0;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<std::vector<std::int32_t>> robot_nodes_;  ///< robot → its nodes

  // Pending collapses: (settle_time, robot | generation). A stale entry
  // (robot re-committed since push) is recognized by its generation and
  // skipped on pop.
  std::priority_queue<std::pair<Time, std::uint64_t>,
                      std::vector<std::pair<Time, std::uint64_t>>,
                      std::greater<>>
      settle_queue_;
  std::vector<std::uint32_t> generation_;
  std::vector<geom::Vec2> settle_pos_;  ///< end-of-segment position per robot

  // Robots whose segment box exceeded the bucket-span cap: always scanned.
  std::vector<std::uint32_t> outliers_;
  std::vector<std::int32_t> outlier_slot_;  ///< index into outliers_, or -1
};

}  // namespace cohesion::core
