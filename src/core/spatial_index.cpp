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

// Key of the cell with column/row cx/cy, or of every cell whose coordinates
// agree with them modulo 2^32.
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

/// Per-axis cap on a segment's cell span. Committed moves are bounded by
/// ~the visibility radius (= one cell side) plus motion error, so real
/// segments span <= 2-3 cells per axis; anything larger goes to the outlier
/// run rather than flooding the table.
constexpr std::int64_t kMaxSegmentSpan = 8;

}  // namespace

DiameterCut::DiameterCut(double epsilon) {
  const double e2 = epsilon * epsilon;
  if (epsilon > 0.0 && e2 >= kMinBandSquare && e2 <= kMaxBandSquare) {
    above_ = epsilon * (1.0 + kHypotBand);
    below_ = e2 * (1.0 - kHypotBand);
  }
}

std::optional<bool> DiameterCut::decided() const {
  if (!finite_) return std::nullopt;
  const double w = max_x_ - min_x_, h = max_y_ - min_y_;
  if (w > above_ || h > above_) return false;
  if (w * w + h * h < below_) return true;
  return std::nullopt;
}

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

std::optional<IncrementalGrid::Box> IncrementalGrid::cell_box(geom::Vec2 a,
                                                             geom::Vec2 b) const {
  std::int64_t cx0 = cell_of(std::min(a.x, b.x));
  std::int64_t cx1 = cell_of(std::max(a.x, b.x));
  std::int64_t cy0 = cell_of(std::min(a.y, b.y));
  std::int64_t cy1 = cell_of(std::max(a.y, b.y));
  if (cx1 < cx0) std::swap(cx0, cx1);  // NaN coordinates only
  if (cy1 < cy0) std::swap(cy0, cy1);
  if (cx1 - cx0 >= kMaxSegmentSpan || cy1 - cy0 >= kMaxSegmentSpan) return std::nullopt;
  return Box{static_cast<std::uint32_t>(cx0), static_cast<std::uint32_t>(cy0),
             static_cast<std::uint8_t>(cx1 - cx0), static_cast<std::uint8_t>(cy1 - cy0)};
}

std::size_t IncrementalGrid::find_slot(std::uint64_t key) const {
  if (table_key_.empty()) return static_cast<std::size_t>(-1);
  std::size_t i = mix_cell_key(key) & mask_;
  while (table_cell_[i] >= 0) {
    if (table_key_[i] == key) return i;
    i = (i + 1) & mask_;
  }
  return static_cast<std::size_t>(-1);
}

void IncrementalGrid::grow_table(std::size_t min_slots) {
  const std::size_t want = next_pow2(std::max<std::size_t>(16, min_slots));
  if (want <= table_key_.size()) return;
  const std::vector<std::uint64_t> old_key = std::move(table_key_);
  const std::vector<std::int32_t> old_cell = std::move(table_cell_);
  table_key_.assign(want, 0);
  table_cell_.assign(want, -1);
  mask_ = want - 1;
  for (std::size_t s = 0; s < old_key.size(); ++s) {
    if (old_cell[s] < 0) continue;
    std::size_t i = mix_cell_key(old_key[s]) & mask_;
    while (table_cell_[i] >= 0) i = (i + 1) & mask_;  // keys are unique
    table_key_[i] = old_key[s];
    table_cell_[i] = old_cell[s];
  }
}

std::size_t IncrementalGrid::find_or_insert_slot(std::uint64_t key) {
  if ((live_cells_ + 1) * 2 > table_key_.size()) grow_table(table_key_.size() * 2);
  std::size_t i = mix_cell_key(key) & mask_;
  while (table_cell_[i] >= 0) {
    if (table_key_[i] == key) return i;
    i = (i + 1) & mask_;
  }
  table_key_[i] = key;
  if (free_cells_.empty()) {
    table_cell_[i] = static_cast<std::int32_t>(cells_.size());
    cells_.emplace_back();
  } else {
    table_cell_[i] = free_cells_.back();
    free_cells_.pop_back();
  }
  ++live_cells_;
  return i;
}

void IncrementalGrid::erase_slot(std::size_t slot) {
  // Backward-shift deletion (linear probing has no tombstones): pull every
  // displaced successor back over the hole so probe chains stay unbroken.
  table_cell_[slot] = -1;
  --live_cells_;
  std::size_t hole = slot;
  std::size_t j = slot;
  while (true) {
    j = (j + 1) & mask_;
    if (table_cell_[j] < 0) break;
    const std::size_t home = mix_cell_key(table_key_[j]) & mask_;
    // Move j into the hole iff the hole lies on j's probe path (between its
    // home slot and j, cyclically).
    if (((hole - home) & mask_) < ((j - home) & mask_)) {
      table_key_[hole] = table_key_[j];
      table_cell_[hole] = table_cell_[j];
      table_cell_[j] = -1;
      hole = j;
    }
  }
}

void IncrementalGrid::join(std::uint64_t key, const Entry& e) {
  const std::size_t slot = find_or_insert_slot(key);
  cells_[static_cast<std::size_t>(table_cell_[slot])].push_back(e);
}

void IncrementalGrid::drop_outlier(RobotId robot) {
  const std::int32_t at = place_[robot].outlier;
  outliers_[at] = outliers_.back();
  place_[outliers_[at].robot].outlier = at;
  outliers_.pop_back();
  place_[robot].outlier = -1;
}

void IncrementalGrid::refile(const Entry& e, const std::optional<Box>& to) {
  Place& p = place_[e.robot];
  const bool was_outlier = p.outlier >= 0;
  if (was_outlier) {
    if (!to) {
      outliers_[p.outlier] = e;
      return;
    }
    drop_outlier(e.robot);
  } else {
    for (std::uint32_t dx = 0; dx <= p.box.w; ++dx) {
      for (std::uint32_t dy = 0; dy <= p.box.h; ++dy) {
        const std::uint32_t x = p.box.x0 + dx, y = p.box.y0 + dy;
        const std::size_t slot = find_slot(pack_cell_key(x, y));
        const auto cell_id = static_cast<std::size_t>(table_cell_[slot]);
        std::vector<Entry>& cell = cells_[cell_id];
        const auto it = std::find_if(cell.begin(), cell.end(),
                                     [&](const Entry& m) { return m.robot == e.robot; });
        if (to && to->contains(x, y)) {
          *it = e;
          continue;
        }
        *it = cell.back();
        cell.pop_back();
        if (cell.empty()) {
          free_cells_.push_back(static_cast<std::int32_t>(cell_id));
          erase_slot(slot);
        }
      }
    }
  }
  if (!to) {
    p.outlier = static_cast<std::int32_t>(outliers_.size());
    outliers_.push_back(e);
    return;
  }
  for (std::uint32_t dx = 0; dx <= to->w; ++dx) {
    for (std::uint32_t dy = 0; dy <= to->h; ++dy) {
      const std::uint32_t x = to->x0 + dx, y = to->y0 + dy;
      if (was_outlier || !p.box.contains(x, y)) join(pack_cell_key(x, y), e);
    }
  }
  p.box = *to;
}

void IncrementalGrid::reset(double cell_size, const std::vector<geom::Vec2>& initial) {
  cell_ = (std::isfinite(cell_size) && cell_size > 0.0) ? cell_size : 1.0;
  inv_cell_ = 1.0 / cell_;
  const std::size_t n = initial.size();
  table_key_.clear();
  table_cell_.clear();
  mask_ = 0;
  live_cells_ = 0;
  grow_table(next_pow2(std::max<std::size_t>(16, n * 2)));
  cells_.clear();
  free_cells_.clear();
  place_.assign(n, {});
  settle_queue_ = {};
  outliers_.clear();
  for (RobotId r = 0; r < n; ++r) {
    const Box box = *cell_box(initial[r], initial[r]);  // one cell: never nullopt
    place_[r].box = box;
    join(pack_cell_key(box.x0, box.y0),
         Entry{Segment{initial[r], initial[r]}, static_cast<std::uint32_t>(r)});
  }
}

void IncrementalGrid::update(RobotId robot, const Segment& segment) {
  const std::uint32_t generation = ++place_[robot].generation;
  const std::optional<Box> box = cell_box(segment.from, segment.realized);
  refile(Entry{segment, static_cast<std::uint32_t>(robot)}, box);
  // A teleport-length segment waits in the outlier run, and a multi-cell
  // one in its whole box, until it settles.
  if (!box || box->w > 0 || box->h > 0) {
    settle_queue_.emplace(segment.t_move_end,
                          (static_cast<std::uint64_t>(robot) << 32) | generation);
  }
}

void IncrementalGrid::collapse(RobotId robot) {
  const Place& p = place_[robot];
  const Entry e = [&] {
    if (p.outlier >= 0) return outliers_[static_cast<std::size_t>(p.outlier)];
    const std::size_t slot = find_slot(pack_cell_key(p.box.x0, p.box.y0));
    const std::vector<Entry>& cell = cells_[static_cast<std::size_t>(table_cell_[slot])];
    return *std::find_if(cell.begin(), cell.end(),
                         [&](const Entry& m) { return m.robot == robot; });
  }();
  refile(e, cell_box(e.segment.realized, e.segment.realized));
}

void IncrementalGrid::advance_to(Time t) {
  while (!settle_queue_.empty() && settle_queue_.top().first <= t) {
    const std::uint64_t tag = settle_queue_.top().second;
    settle_queue_.pop();
    const RobotId robot = static_cast<RobotId>(tag >> 32);
    if (static_cast<std::uint32_t>(tag) == place_[robot].generation) collapse(robot);
  }
}

void IncrementalGrid::visible_near(geom::Vec2 q, double r, const VisibilityBall& ball, Time t,
                                   std::vector<VisibleRobot>& out) const {
  out.clear();
  const std::size_t n = place_.size();
  if (n == 0) return;
  const auto scan = [&](const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      const geom::Vec2 offset = e.segment.at(t) - q;
      if (ball.contains(offset)) out.push_back({e.robot, offset});
    }
  };

  // Bounding square of the closed ball (a superset of the open ball too) —
  // identical cell arithmetic to SpatialGrid::neighbors_within.
  const double rq = std::max(r, 0.0) + kVisibilityEpsilon;
  const std::int64_t cx0 = cell_of(q.x - rq), cx1 = cell_of(q.x + rq);
  const std::int64_t cy0 = cell_of(q.y - rq), cy1 = cell_of(q.y + rq);
  const std::uint64_t span_x = static_cast<std::uint64_t>(cx1 - cx0) + 1;
  const std::uint64_t span_y = static_cast<std::uint64_t>(cy1 - cy0) + 1;
  if (span_x > 64 || span_y > 64 || span_x * span_y > n + 9) {
    // The square covers more cells than there are robots: scan every cell
    // instead (freed cells are empty).
    for (const std::vector<Entry>& cell : cells_) scan(cell);
  } else {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
        const std::size_t slot = find_slot(pack_cell_key(cx, cy));
        if (slot != static_cast<std::size_t>(-1)) {
          scan(cells_[static_cast<std::size_t>(table_cell_[slot])]);
        }
      }
    }
  }
  scan(outliers_);
  // A multi-cell segment (or clamping/key aliasing) can surface a robot
  // in several cells, with the same offset each time; ids must come out
  // ascending and unique so the caller's RNG-drawing perception loop sees
  // the brute-force order.
  std::sort(out.begin(), out.end(),
            [](const VisibleRobot& a, const VisibleRobot& b) { return a.id < b.id; });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const VisibleRobot& a, const VisibleRobot& b) { return a.id == b.id; }),
            out.end());
}

}  // namespace cohesion::core
