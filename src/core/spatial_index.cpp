#include "core/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cohesion::core {

namespace {

// Cells whose floored coordinate would overflow the packing range are clamped
// onto the boundary cell. Clamping (and IncrementalGrid's 32-bit key packing
// below) may alias distinct far-away cells onto one bucket; that only
// enlarges the candidate set, and the exact distance predicate discards the
// aliases, so query results are unaffected.
constexpr double kMaxCell = 9.0e15;

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t pack_cell_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

// One coordinate→cell mapping shared by both grids.
std::int64_t cell_index(double coord, double inv_cell) {
  double c = std::floor(coord * inv_cell);
  if (std::isnan(c)) c = 0.0;
  c = std::clamp(c, -kMaxCell, kMaxCell);
  return static_cast<std::int64_t>(c);
}

std::size_t mix_cell_key(std::uint64_t key) {
  // splitmix64 finalizer: adjacent cell keys must not cluster in the table.
  key += 0x9e3779b97f4a7c15ULL;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(key ^ (key >> 31));
}

/// Per-axis cap on a segment's bucket span. Committed moves are bounded by
/// ~the visibility radius (= one cell side) plus motion error, so real
/// segments span <= 2-3 cells per axis; anything larger goes to the outlier
/// list rather than flooding the table.
constexpr std::int64_t kMaxSegmentSpan = 8;

}  // namespace

void SpatialGrid::set_cell_size(double cell_size) {
  cell_ = (std::isfinite(cell_size) && cell_size > 0.0) ? cell_size : 1.0;
  inv_cell_ = 1.0 / cell_;
  ids_.clear();
  pos_.clear();
  width_ = height_ = 0;
}

std::int64_t SpatialGrid::column_of(double coord, std::int64_t origin) const {
  // Base cells are clamped to +-9e15, so the shifted difference cannot
  // overflow; >> floors, keeping the mapping monotone in coord.
  return (cell_index(coord, inv_cell_) >> shift_) - origin;
}

void SpatialGrid::rebuild(const std::vector<geom::Vec2>& points) {
  const std::size_t n = points.size();
  ids_.resize(n);
  pos_.resize(n);
  width_ = height_ = 0;
  if (n == 0) return;

  struct Box {
    std::int64_t x_lo, x_hi, y_lo, y_hi;
  };
  Box box{std::numeric_limits<std::int64_t>::max(), std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max(), std::numeric_limits<std::int64_t>::min()};
  base_x_.resize(n);
  base_y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cx = cell_index(points[i].x, inv_cell_);
    const std::int64_t cy = cell_index(points[i].y, inv_cell_);
    base_x_[i] = cx;
    base_y_[i] = cy;
    box = {std::min(box.x_lo, cx), std::max(box.x_hi, cx), std::min(box.y_lo, cy),
           std::max(box.y_hi, cy)};
  }
  // Least shift whose built cells tile `b` in at most 4n + 64 cells.
  const std::size_t cap = 4 * n + 64;
  const auto fit_shift = [cap](const Box& b) {
    for (int shift = 0;; ++shift) {
      const auto w = static_cast<std::size_t>((b.x_hi >> shift) - (b.x_lo >> shift)) + 1;
      const auto h = static_cast<std::size_t>((b.y_hi >> shift) - (b.y_lo >> shift)) + 1;
      if (w <= cap && h <= cap / w) return shift;
    }
  };
  shift_ = fit_shift(box);
  if (const std::size_t m = std::min(kOutliersPerSide, n / 4); shift_ > 0 && m > 0) {
    // A few far points must not coarsen a compact swarm: the box between
    // the m-th smallest and m-th largest cell on each axis leaves at most
    // 4m points out, and those go to the outlier run if that box needs
    // finer cells.
    const auto ranks = [&](const std::vector<std::int64_t>& cells) {
      rank_scratch_ = cells;
      std::nth_element(rank_scratch_.begin(), rank_scratch_.begin() + m, rank_scratch_.end());
      const std::int64_t lo = rank_scratch_[m];
      std::nth_element(rank_scratch_.begin(), rank_scratch_.end() - 1 - m, rank_scratch_.end());
      return std::pair{lo, rank_scratch_[n - 1 - m]};
    };
    const auto [x_lo, x_hi] = ranks(base_x_);
    const auto [y_lo, y_hi] = ranks(base_y_);
    const Box core{x_lo, x_hi, y_lo, y_hi};
    if (const int shift = fit_shift(core); shift < shift_) {
      box = core;
      shift_ = shift;
    }
  }
  x0_ = box.x_lo >> shift_;
  y0_ = box.y_lo >> shift_;
  width_ = static_cast<std::size_t>((box.x_hi >> shift_) - x0_) + 1;
  height_ = static_cast<std::size_t>((box.y_hi >> shift_) - y0_) + 1;

  // Stable counting sort into row-major cell order, with the outliers
  // (points outside `box`; none unless it was trimmed) as one extra bucket
  // after the last cell: count, prefix-sum, then place points in id order
  // (so ids ascend within each bucket), which leaves each cell_start_ entry
  // at the next bucket's start — shift them back.
  const std::size_t cells = width_ * height_;
  cell_start_.assign(cells + 2, 0);
  cell_of_point_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool outlier = base_x_[i] < box.x_lo || base_x_[i] > box.x_hi ||
                         base_y_[i] < box.y_lo || base_y_[i] > box.y_hi;
    const std::size_t cell =
        outlier ? cells
                : static_cast<std::size_t>((base_y_[i] >> shift_) - y0_) * width_ +
                      static_cast<std::size_t>((base_x_[i] >> shift_) - x0_);
    cell_of_point_[i] = cell;
    ++cell_start_[cell + 1];
  }
  for (std::size_t c = 1; c <= cells + 1; ++c) cell_start_[c] += cell_start_[c - 1];
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = cell_start_[cell_of_point_[i]]++;
    ids_[at] = i;
    pos_[at] = points[i];
  }
  for (std::size_t c = cells + 1; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
}

void SpatialGrid::neighbors_within(geom::Vec2 q, double r, bool open_ball,
                                   std::vector<std::size_t>& out) const {
  out.clear();
  if (width_ == 0) return;
  const VisibilityBall ball(r, open_ball);

  // Bounding square of the closed ball (a superset of the open ball too),
  // clipped to the array, which holds every point but the outliers. A NaN
  // bound (q = inf with r = inf, say, where hypot(inf - x, 0) = inf <= inf
  // for every finite x) spans the whole axis.
  const double rq = std::max(r, 0.0) + kVisibilityEpsilon;
  const auto span = [&](double c, std::int64_t origin, std::size_t count) {
    const double lo = c - rq, hi = c + rq;
    const std::int64_t last = static_cast<std::int64_t>(count) - 1;
    if (std::isnan(lo) || std::isnan(hi)) return std::pair<std::int64_t, std::int64_t>{0, last};
    return std::pair{std::max<std::int64_t>(column_of(lo, origin), 0),
                     std::min(column_of(hi, origin), last)};
  };
  const auto scan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      if (ball.contains(q - pos_[j])) out.push_back(ids_[j]);
    }
  };
  // One contiguous run of cells per row, then the outliers.
  const auto [col0, col1] = span(q.x, x0_, width_);
  const auto [row0, row1] = span(q.y, y0_, height_);
  if (col0 <= col1) {
    for (std::int64_t row = row0; row <= row1; ++row) {
      const std::size_t base = static_cast<std::size_t>(row) * width_;
      scan(cell_start_[base + static_cast<std::size_t>(col0)],
           cell_start_[base + static_cast<std::size_t>(col1) + 1]);
    }
  }
  const std::size_t cells = width_ * height_;
  scan(cell_start_[cells], cell_start_[cells + 1]);
  // Ids ascend within a bucket, not across buckets.
  std::sort(out.begin(), out.end());
}

// ---------------------------------------------------------------------------
// IncrementalGrid
// ---------------------------------------------------------------------------

std::int64_t IncrementalGrid::cell_of(double coord) const {
  return cell_index(coord, inv_cell_);
}

std::size_t IncrementalGrid::find_slot(std::uint64_t key) const {
  if (table_key_.empty()) return static_cast<std::size_t>(-1);
  std::size_t i = mix_cell_key(key) & mask_;
  while (table_used_[i]) {
    if (table_key_[i] == key) return i;
    i = (i + 1) & mask_;
  }
  return static_cast<std::size_t>(-1);
}

void IncrementalGrid::grow_table(std::size_t min_slots) {
  const std::size_t want = next_pow2(std::max<std::size_t>(16, min_slots));
  if (want <= table_key_.size()) return;
  const std::vector<std::uint64_t> old_key = std::move(table_key_);
  const std::vector<std::int32_t> old_head = std::move(table_head_);
  const std::vector<bool> old_used = std::move(table_used_);
  table_key_.assign(want, 0);
  table_head_.assign(want, -1);
  table_used_.assign(want, false);
  mask_ = want - 1;
  for (std::size_t s = 0; s < old_key.size(); ++s) {
    if (!old_used[s]) continue;
    std::size_t i = mix_cell_key(old_key[s]) & mask_;
    while (table_used_[i]) i = (i + 1) & mask_;  // keys are unique
    table_used_[i] = true;
    table_key_[i] = old_key[s];
    table_head_[i] = old_head[s];
  }
}

std::size_t IncrementalGrid::find_or_insert_slot(std::uint64_t key) {
  if ((live_cells_ + 1) * 2 > table_key_.size()) grow_table(table_key_.size() * 2);
  std::size_t i = mix_cell_key(key) & mask_;
  while (table_used_[i]) {
    if (table_key_[i] == key) return i;
    i = (i + 1) & mask_;
  }
  table_used_[i] = true;
  table_key_[i] = key;
  table_head_[i] = -1;
  ++live_cells_;
  return i;
}

void IncrementalGrid::erase_slot(std::size_t slot) {
  // Backward-shift deletion (linear probing has no tombstones): pull every
  // displaced successor back over the hole so probe chains stay unbroken.
  table_used_[slot] = false;
  --live_cells_;
  std::size_t hole = slot;
  std::size_t j = slot;
  while (true) {
    j = (j + 1) & mask_;
    if (!table_used_[j]) break;
    const std::size_t home = mix_cell_key(table_key_[j]) & mask_;
    // Move j into the hole iff the hole lies on j's probe path (between its
    // home slot and j, cyclically).
    if (((hole - home) & mask_) < ((j - home) & mask_)) {
      table_used_[hole] = true;
      table_key_[hole] = table_key_[j];
      table_head_[hole] = table_head_[j];
      table_used_[j] = false;
      hole = j;
    }
  }
}

void IncrementalGrid::link(RobotId robot, std::uint64_t key) {
  const std::size_t slot = find_or_insert_slot(key);
  std::int32_t node;
  if (!free_nodes_.empty()) {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    node = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& nd = nodes_[node];
  nd.key = key;
  nd.robot = static_cast<std::int32_t>(robot);
  nd.prev = -1;
  nd.next = table_head_[slot];
  if (nd.next >= 0) nodes_[nd.next].prev = node;
  table_head_[slot] = node;
  robot_nodes_[robot].push_back(node);
}

void IncrementalGrid::unlink(std::int32_t node) {
  const Node nd = nodes_[node];
  if (nd.next >= 0) nodes_[nd.next].prev = nd.prev;
  if (nd.prev >= 0) {
    nodes_[nd.prev].next = nd.next;
  } else {
    const std::size_t slot = find_slot(nd.key);
    table_head_[slot] = nd.next;
    if (nd.next < 0) erase_slot(slot);
  }
  free_nodes_.push_back(node);
}

void IncrementalGrid::clear_robot(RobotId robot) {
  for (const std::int32_t node : robot_nodes_[robot]) unlink(node);
  robot_nodes_[robot].clear();
}

void IncrementalGrid::set_outlier(RobotId robot, bool on) {
  const bool is = outlier_slot_[robot] >= 0;
  if (on == is) return;
  if (on) {
    outlier_slot_[robot] = static_cast<std::int32_t>(outliers_.size());
    outliers_.push_back(static_cast<std::uint32_t>(robot));
  } else {
    const std::int32_t at = outlier_slot_[robot];
    outliers_[at] = outliers_.back();
    outlier_slot_[outliers_.back()] = at;
    outliers_.pop_back();
    outlier_slot_[robot] = -1;
  }
}

void IncrementalGrid::reset(double cell_size, const std::vector<geom::Vec2>& initial) {
  cell_ = (std::isfinite(cell_size) && cell_size > 0.0) ? cell_size : 1.0;
  inv_cell_ = 1.0 / cell_;
  const std::size_t n = initial.size();
  nodes_.clear();
  free_nodes_.clear();
  robot_nodes_.assign(n, {});
  table_key_.clear();
  table_head_.clear();
  table_used_.clear();
  mask_ = 0;
  live_cells_ = 0;
  grow_table(next_pow2(std::max<std::size_t>(16, n * 2)));
  settle_queue_ = {};
  generation_.assign(n, 0);
  settle_pos_ = initial;
  outliers_.clear();
  outlier_slot_.assign(n, -1);
  for (RobotId r = 0; r < n; ++r) {
    link(r, pack_cell_key(cell_of(initial[r].x), cell_of(initial[r].y)));
  }
}

void IncrementalGrid::update(RobotId robot, geom::Vec2 from, geom::Vec2 to, Time settle_time) {
  ++generation_[robot];
  settle_pos_[robot] = to;
  std::int64_t cx0 = cell_of(std::min(from.x, to.x));
  std::int64_t cx1 = cell_of(std::max(from.x, to.x));
  std::int64_t cy0 = cell_of(std::min(from.y, to.y));
  std::int64_t cy1 = cell_of(std::max(from.y, to.y));
  if (cx1 < cx0) std::swap(cx0, cx1);  // NaN coordinates only
  if (cy1 < cy0) std::swap(cy0, cy1);
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(robot) << 32) | generation_[robot];
  if (cx1 - cx0 >= kMaxSegmentSpan || cy1 - cy0 >= kMaxSegmentSpan) {
    // A teleport-length segment: park the robot on the always-scanned
    // outlier list until it settles, rather than bucketing a huge box.
    clear_robot(robot);
    set_outlier(robot, true);
    settle_queue_.emplace(settle_time, tag);
    return;
  }
  set_outlier(robot, false);
  clear_robot(robot);
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      link(robot, pack_cell_key(cx, cy));
    }
  }
  if (cx1 > cx0 || cy1 > cy0) settle_queue_.emplace(settle_time, tag);
}

void IncrementalGrid::collapse(RobotId robot) {
  set_outlier(robot, false);
  clear_robot(robot);
  const geom::Vec2 p = settle_pos_[robot];
  link(robot, pack_cell_key(cell_of(p.x), cell_of(p.y)));
}

void IncrementalGrid::advance_to(Time t) {
  while (!settle_queue_.empty() && settle_queue_.top().first <= t) {
    const std::uint64_t tag = settle_queue_.top().second;
    settle_queue_.pop();
    const RobotId robot = static_cast<RobotId>(tag >> 32);
    if (static_cast<std::uint32_t>(tag) == generation_[robot]) collapse(robot);
  }
}

void IncrementalGrid::candidates_near(geom::Vec2 q, double r,
                                      std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t n = robot_nodes_.size();
  if (n == 0) return;

  // Bounding square of the closed ball (a superset of the open ball too) —
  // identical cell arithmetic to SpatialGrid::neighbors_within.
  const double rq = std::max(r, 0.0) + kVisibilityEpsilon;
  const std::int64_t cx0 = cell_of(q.x - rq), cx1 = cell_of(q.x + rq);
  const std::int64_t cy0 = cell_of(q.y - rq), cy1 = cell_of(q.y + rq);
  const std::uint64_t span_x = static_cast<std::uint64_t>(cx1 - cx0) + 1;
  const std::uint64_t span_y = static_cast<std::uint64_t>(cy1 - cy0) + 1;
  if (span_x > 64 || span_y > 64 || span_x * span_y > n + 9) {
    // Query ball covers more cells than there are robots: every robot is a
    // candidate (trivially a superset; the caller's predicate decides).
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return;
  }

  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      const std::size_t slot = find_slot(pack_cell_key(cx, cy));
      if (slot == static_cast<std::size_t>(-1)) continue;
      for (std::int32_t i = table_head_[slot]; i >= 0; i = nodes_[i].next) {
        out.push_back(static_cast<std::size_t>(nodes_[i].robot));
      }
    }
  }
  for (const std::uint32_t r_out : outliers_) out.push_back(r_out);
  // Multi-cell segments (and clamping/key aliasing) can surface a robot
  // several times; ids must come out ascending and unique so the caller's
  // RNG-drawing perception loop sees the brute-force order.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace cohesion::core
