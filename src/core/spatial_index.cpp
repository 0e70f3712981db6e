#include "core/spatial_index.hpp"

#include <algorithm>
#include <cmath>

namespace cohesion::core {

namespace {

// Cells whose floored coordinate would overflow the packing range are clamped
// onto the boundary cell. Clamping (and the 32-bit key packing below) may
// alias distinct far-away cells onto one bucket; that only enlarges the
// candidate set, and the exact distance predicate discards the aliases, so
// query results are unaffected.
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

// One coordinate→cell mapping shared by both grids: the candidate-superset
// guarantee between the rebuild and incremental paths relies on them
// agreeing bit-for-bit.
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
  points_ = nullptr;
  next_.clear();
}

std::int64_t SpatialGrid::cell_of(double coord) const { return cell_index(coord, inv_cell_); }

std::uint64_t SpatialGrid::cell_key(std::int64_t cx, std::int64_t cy) {
  return pack_cell_key(cx, cy);
}

std::size_t SpatialGrid::hash_key(std::uint64_t key) { return mix_cell_key(key); }

std::size_t SpatialGrid::find_slot(std::uint64_t key) const {
  std::size_t i = hash_key(key) & mask_;
  while (slot_stamp_[i] == stamp_ && slot_key_[i] != key) i = (i + 1) & mask_;
  return i;
}

void SpatialGrid::ensure_capacity(std::size_t point_count) {
  // Keep load factor <= 1/2 relative to the worst case of one cell per point.
  const std::size_t want = next_pow2(std::max<std::size_t>(16, point_count * 2));
  if (slot_key_.size() < want) {
    slot_key_.assign(want, 0);
    slot_head_.assign(want, -1);
    slot_stamp_.assign(want, 0);
    mask_ = want - 1;
    stamp_ = 0;
  }
}

void SpatialGrid::rebuild(const std::vector<geom::Vec2>& points) {
  points_ = &points;
  ensure_capacity(points.size());
  ++stamp_;
  next_.assign(points.size(), -1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t key = cell_key(cell_of(points[i].x), cell_of(points[i].y));
    const std::size_t slot = find_slot(key);
    if (slot_stamp_[slot] != stamp_) {
      slot_stamp_[slot] = stamp_;
      slot_key_[slot] = key;
      slot_head_[slot] = -1;
    }
    next_[i] = slot_head_[slot];
    slot_head_[slot] = static_cast<std::int32_t>(i);
  }
}

void SpatialGrid::neighbors_within(geom::Vec2 q, double r, bool open_ball,
                                   std::vector<std::size_t>& out) const {
  out.clear();
  if (points_ == nullptr || next_.empty()) return;
  const std::vector<geom::Vec2>& pts = *points_;
  const auto visible = [&](std::size_t i) {
    const double d = q.distance_to(pts[i]);
    return open_ball ? (d < r) : (d <= r + kVisibilityEpsilon);
  };

  // Bounding square of the closed ball (a superset of the open ball too).
  const double rq = std::max(r, 0.0) + kVisibilityEpsilon;
  const std::int64_t cx0 = cell_of(q.x - rq), cx1 = cell_of(q.x + rq);
  const std::int64_t cy0 = cell_of(q.y - rq), cy1 = cell_of(q.y + rq);
  const std::uint64_t span_x = static_cast<std::uint64_t>(cx1 - cx0) + 1;
  const std::uint64_t span_y = static_cast<std::uint64_t>(cy1 - cy0) + 1;
  if (span_x > 64 || span_y > 64 || span_x * span_y > pts.size() + 9) {
    // Query ball covers more cells than there are points: a direct scan is
    // cheaper (and trivially exact). Ids come out already ascending.
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (visible(i)) out.push_back(i);
    }
    return;
  }

  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      const std::size_t slot = find_slot(cell_key(cx, cy));
      if (slot_stamp_[slot] != stamp_) continue;
      for (std::int32_t i = slot_head_[slot]; i >= 0; i = next_[i]) {
        if (visible(static_cast<std::size_t>(i))) {
          out.push_back(static_cast<std::size_t>(i));
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  // Key aliasing can route one point through two scanned buckets only if two
  // scanned cells share a slot key; dedupe to keep the contract exact.
  out.erase(std::unique(out.begin(), out.end()), out.end());
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
