#include "core/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cohesion::core {

namespace {

// Base cells whose floored coordinate would overflow the int64 range are
// clamped onto the boundary cell. Clamping may alias distinct far-away
// cells onto one; that only enlarges the candidate set, and the exact
// distance predicate discards the aliases, so query results are unaffected.
constexpr double kMaxCell = 9.0e15;

/// Most items per side of the cell box that a fit leaves to the outlier run.
constexpr std::size_t kOutliersPerSide = 8;

// One coordinate→base-cell mapping shared by both grids.
std::int64_t cell_index(double coord, double inv_cell) {
  double c = std::floor(coord * inv_cell);
  if (std::isnan(c)) c = 0.0;
  c = std::clamp(c, -kMaxCell, kMaxCell);
  return static_cast<std::int64_t>(c);
}

/// Base cells x_lo..x_hi by y_lo..y_hi.
struct CellBox {
  std::int64_t x_lo, x_hi, y_lo, y_hi;
};

/// Base cells of the bounding box of `a` and `b`.
CellBox base_box(geom::Vec2 a, geom::Vec2 b, double inv_cell) {
  const std::int64_t ax = cell_index(a.x, inv_cell), bx = cell_index(b.x, inv_cell);
  const std::int64_t ay = cell_index(a.y, inv_cell), by = cell_index(b.y, inv_cell);
  return {std::min(ax, bx), std::max(ax, bx), std::min(ay, by), std::max(ay, by)};
}

/// The array both grids file n items into, item i covering the base cells
/// box_of(i): the least shift whose cells tile the items' cell bounding box
/// in at most 4n + 64 cells. A few far items must not coarsen a compact
/// swarm: when the whole box needs coarser cells, the box between the m-th
/// smallest and m-th largest bound on each axis (m = min(kOutliersPerSide,
/// n / 4)) leaves at most 4m items out, and the array takes that box if it
/// needs finer cells; the items it leaves out are the caller's outliers.
template <class BoxOf>
CellArray fit_cell_array(std::size_t n, BoxOf box_of, std::vector<std::int64_t>& scratch) {
  if (n == 0) return {};
  constexpr std::int64_t kLow = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kHigh = std::numeric_limits<std::int64_t>::max();
  CellBox box{kHigh, kLow, kHigh, kLow};
  for (std::size_t i = 0; i < n; ++i) {
    const CellBox b = box_of(i);
    box = {std::min(box.x_lo, b.x_lo), std::max(box.x_hi, b.x_hi), std::min(box.y_lo, b.y_lo),
           std::max(box.y_hi, b.y_hi)};
  }
  const std::size_t cap = 4 * n + 64;
  const auto fit_shift = [cap](const CellBox& b) {
    for (int shift = 0;; ++shift) {
      const auto w = static_cast<std::size_t>((b.x_hi >> shift) - (b.x_lo >> shift)) + 1;
      const auto h = static_cast<std::size_t>((b.y_hi >> shift) - (b.y_lo >> shift)) + 1;
      if (w <= cap && h <= cap / w) return shift;
    }
  };
  int shift = fit_shift(box);
  if (const std::size_t m = std::min(kOutliersPerSide, n / 4); shift > 0 && m > 0) {
    scratch.resize(n);
    const auto rank = [&](std::int64_t CellBox::*bound, bool from_top) {
      for (std::size_t i = 0; i < n; ++i) scratch[i] = box_of(i).*bound;
      const auto at = from_top ? scratch.end() - 1 - m : scratch.begin() + m;
      std::nth_element(scratch.begin(), at, scratch.end());
      return *at;
    };
    const CellBox core{rank(&CellBox::x_lo, false), rank(&CellBox::x_hi, true),
                       rank(&CellBox::y_lo, false), rank(&CellBox::y_hi, true)};
    if (const int s = fit_shift(core); s < shift) {
      box = core;
      shift = s;
    }
  }
  CellArray array;
  array.shift = shift;
  array.x0 = box.x_lo >> shift;
  array.y0 = box.y_lo >> shift;
  array.width = static_cast<std::size_t>((box.x_hi >> shift) - array.x0) + 1;
  array.height = static_cast<std::size_t>((box.y_hi >> shift) - array.y0) + 1;
  return array;
}

/// Columns col0..col1 and rows row0..row1 of an array.
struct CellRange {
  std::int64_t col0, col1, row0, row1;
};

/// Array cells that the bounding square of the closed ball of radius r
/// around q (a superset of the open ball too) overlaps, clipped to the
/// array; col0 > col1 or row0 > row1 when it misses the array. A NaN
/// bound (q = inf with r = inf, say, where hypot(inf - x, 0) = inf <= inf
/// for every finite x) spans the whole axis. Base cells are clamped to
/// +-9e15, so the shifted differences cannot overflow; >> floors, keeping
/// the mapping monotone in the coordinate.
CellRange query_range(const CellArray& array, double inv_cell, geom::Vec2 q, double r) {
  const double rq = std::max(r, 0.0) + kVisibilityEpsilon;
  const auto span = [&](double c, std::int64_t origin, std::size_t count) {
    const double lo = c - rq, hi = c + rq;
    const std::int64_t last = static_cast<std::int64_t>(count) - 1;
    if (std::isnan(lo) || std::isnan(hi)) return std::pair<std::int64_t, std::int64_t>{0, last};
    return std::pair{
        std::max<std::int64_t>((cell_index(lo, inv_cell) >> array.shift) - origin, 0),
        std::min((cell_index(hi, inv_cell) >> array.shift) - origin, last)};
  };
  const auto [col0, col1] = span(q.x, array.x0, array.width);
  const auto [row0, row1] = span(q.y, array.y0, array.height);
  return {col0, col1, row0, row1};
}

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
  array_ = {};
}

void SpatialGrid::rebuild(const std::vector<geom::Vec2>& points) {
  const std::size_t n = points.size();
  ids_.resize(n);
  pos_.resize(n);
  base_x_.resize(n);
  base_y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    base_x_[i] = cell_index(points[i].x, inv_cell_);
    base_y_[i] = cell_index(points[i].y, inv_cell_);
  }
  array_ = fit_cell_array(
      n, [&](std::size_t i) { return CellBox{base_x_[i], base_x_[i], base_y_[i], base_y_[i]}; },
      rank_scratch_);
  if (n == 0) return;

  // Stable counting sort into row-major cell order, with the outliers
  // (points outside the array; none unless the fit trimmed the box) as one
  // extra bucket after the last cell: count, prefix-sum, then place points
  // in id order (so ids ascend within each bucket), which leaves each
  // cell_start_ entry at the next bucket's start — shift them back.
  const std::size_t cells = array_.cells();
  const auto width = static_cast<std::int64_t>(array_.width);
  const auto height = static_cast<std::int64_t>(array_.height);
  cell_start_.assign(cells + 2, 0);
  cell_of_point_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t col = (base_x_[i] >> array_.shift) - array_.x0;
    const std::int64_t row = (base_y_[i] >> array_.shift) - array_.y0;
    const bool inside = col >= 0 && col < width && row >= 0 && row < height;
    const std::size_t cell = inside ? static_cast<std::size_t>(row * width + col) : cells;
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
  if (array_.width == 0) return;
  const VisibilityBall ball(r, open_ball);
  const auto scan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      if (ball.contains(q - pos_[j])) out.push_back(ids_[j]);
    }
  };
  // One contiguous run of cells per row, then the outliers.
  const CellRange range = query_range(array_, inv_cell_, q, r);
  if (range.col0 <= range.col1) {
    for (std::int64_t row = range.row0; row <= range.row1; ++row) {
      const std::size_t base = static_cast<std::size_t>(row) * array_.width;
      scan(cell_start_[base + static_cast<std::size_t>(range.col0)],
           cell_start_[base + static_cast<std::size_t>(range.col1) + 1]);
    }
  }
  const std::size_t cells = array_.cells();
  scan(cell_start_[cells], cell_start_[cells + 1]);
  // Ids ascend within a bucket, not across buckets.
  sort_by_id(out, [](std::size_t id) { return id; });
}

// ---------------------------------------------------------------------------
// IncrementalGrid
// ---------------------------------------------------------------------------

std::optional<IncrementalGrid::Box> IncrementalGrid::cell_box(geom::Vec2 a,
                                                             geom::Vec2 b) const {
  const CellBox base = base_box(a, b, inv_cell_);
  const std::int64_t col0 = (base.x_lo >> array_.shift) - array_.x0;
  const std::int64_t col1 = (base.x_hi >> array_.shift) - array_.x0;
  const std::int64_t row0 = (base.y_lo >> array_.shift) - array_.y0;
  const std::int64_t row1 = (base.y_hi >> array_.shift) - array_.y0;
  if (col0 < 0 || row0 < 0 || col1 >= static_cast<std::int64_t>(array_.width) ||
      row1 >= static_cast<std::int64_t>(array_.height) || col1 - col0 >= kMaxSegmentSpan ||
      row1 - row0 >= kMaxSegmentSpan) {
    return std::nullopt;
  }
  return Box{static_cast<std::uint32_t>(col0), static_cast<std::uint32_t>(row0),
             static_cast<std::uint8_t>(col1 - col0), static_cast<std::uint8_t>(row1 - row0)};
}

const IncrementalGrid::Entry& IncrementalGrid::entry_of(RobotId robot) const {
  const Place& p = place_[robot];
  if (p.outlier >= 0) return outliers_[static_cast<std::size_t>(p.outlier)];
  const std::vector<Entry>& cell = cells_[std::size_t{p.box.row} * array_.width + p.box.col];
  return *std::find_if(cell.begin(), cell.end(),
                       [&](const Entry& m) { return m.robot == robot; });
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
    for (std::uint32_t row = p.box.row; row <= p.box.row + p.box.h; ++row) {
      for (std::uint32_t col = p.box.col; col <= p.box.col + p.box.w; ++col) {
        std::vector<Entry>& cell = cells_[std::size_t{row} * array_.width + col];
        const auto it = std::find_if(cell.begin(), cell.end(),
                                     [&](const Entry& m) { return m.robot == e.robot; });
        if (to && to->contains(col, row)) {
          *it = e;
          continue;
        }
        *it = cell.back();
        cell.pop_back();
      }
    }
  }
  if (!to) {
    p.outlier = static_cast<std::int32_t>(outliers_.size());
    outliers_.push_back(e);
    ++outliers_added_;
    return;
  }
  for (std::uint32_t row = to->row; row <= to->row + to->h; ++row) {
    for (std::uint32_t col = to->col; col <= to->col + to->w; ++col) {
      if (was_outlier || !p.box.contains(col, row)) {
        cells_[std::size_t{row} * array_.width + col].push_back(e);
      }
    }
  }
  p.box = *to;
}

void IncrementalGrid::refit(const std::vector<Entry>& entries) {
  // A collapsed robot is filed by its end point alone: every query from
  // here on is at or after its move's end.
  const auto ends = [&](const Entry& e) {
    const Segment& s = e.segment;
    return std::pair{place_[e.robot].settled ? s.realized : s.from, s.realized};
  };
  std::vector<std::int64_t> scratch;
  array_ = fit_cell_array(
      entries.size(),
      [&](std::size_t i) {
        const auto [a, b] = ends(entries[i]);
        return base_box(a, b, inv_cell_);
      },
      scratch);
  cells_.resize(array_.cells());
  for (std::vector<Entry>& cell : cells_) cell.clear();
  outliers_.clear();
  for (const Entry& e : entries) {
    Place& p = place_[e.robot];
    const auto [a, b] = ends(e);
    const std::optional<Box> box = cell_box(a, b);
    p.outlier = box ? -1 : static_cast<std::int32_t>(outliers_.size());
    if (!box) {
      outliers_.push_back(e);
      continue;
    }
    p.box = *box;
    for (std::uint32_t row = box->row; row <= box->row + box->h; ++row) {
      for (std::uint32_t col = box->col; col <= box->col + box->w; ++col) {
        cells_[std::size_t{row} * array_.width + col].push_back(e);
      }
    }
  }
  outliers_added_ = 0;
}

void IncrementalGrid::reset(double cell_size, const std::vector<geom::Vec2>& initial) {
  cell_ = (std::isfinite(cell_size) && cell_size > 0.0) ? cell_size : 1.0;
  inv_cell_ = 1.0 / cell_;
  const std::size_t n = initial.size();
  place_.assign(n, {});
  settle_queue_ = {};
  std::vector<Entry> at_rest(n);
  for (std::size_t r = 0; r < n; ++r) {
    at_rest[r] = {Segment{initial[r], initial[r]}, static_cast<std::uint32_t>(r)};
  }
  refit(at_rest);
}

void IncrementalGrid::update(RobotId robot, const Segment& segment) {
  const std::uint32_t generation = ++place_[robot].generation;
  place_[robot].settled = false;
  const std::optional<Box> box = cell_box(segment.from, segment.realized);
  refile(Entry{segment, static_cast<std::uint32_t>(robot)}, box);
  // A long or out-of-array segment waits in the outlier run, and a
  // multi-cell one in its whole box, until it settles.
  if (!box || box->w > 0 || box->h > 0) {
    settle_queue_.emplace(segment.t_move_end,
                          (static_cast<std::uint64_t>(robot) << 32) | generation);
  }
  if (outliers_added_ > place_.size() / 16) {
    std::vector<Entry> entries;
    entries.reserve(place_.size());
    for (RobotId r = 0; r < place_.size(); ++r) entries.push_back(entry_of(r));
    refit(entries);
  }
}

void IncrementalGrid::collapse(RobotId robot) {
  const Entry e = entry_of(robot);
  place_[robot].settled = true;
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
  if (place_.empty()) return;
  const auto scan = [&](const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      const geom::Vec2 offset = e.segment.at(t) - q;
      if (ball.contains(offset)) out.push_back({e.robot, offset});
    }
  };
  const CellRange range = query_range(array_, inv_cell_, q, r);
  for (std::int64_t row = range.row0; row <= range.row1; ++row) {
    for (std::int64_t col = range.col0; col <= range.col1; ++col) {
      scan(cells_[static_cast<std::size_t>(row) * array_.width + static_cast<std::size_t>(col)]);
    }
  }
  scan(outliers_);
  // A multi-cell segment can surface a robot in several cells, with the
  // same offset each time; ids must come out ascending and unique so the
  // caller's RNG-drawing perception loop sees the brute-force order.
  sort_by_id(out, [](const VisibleRobot& v) { return v.id; });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const VisibleRobot& a, const VisibleRobot& b) { return a.id == b.id; }),
            out.end());
}

}  // namespace cohesion::core
