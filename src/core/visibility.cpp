#include "core/visibility.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/spatial_index.hpp"

namespace cohesion::core {

namespace {

// Below this size the O(n^2) pairwise scan beats building a grid. Both
// paths apply the identical predicate to an identical candidate order, so
// the produced edge lists are the same either way.
constexpr std::size_t kGridThreshold = 64;

}  // namespace

VisibilityGraph::VisibilityGraph(const std::vector<geom::Vec2>& positions, double v,
                                 bool open_ball)
    : n_(positions.size()) {
  if (n_ < kGridThreshold || !(v > 0.0)) {
    const VisibilityBall ball(v, open_ball);
    for (RobotId a = 0; a < n_; ++a) {
      for (RobotId b = a + 1; b < n_; ++b) {
        if (ball.contains(positions[a] - positions[b])) edges_.emplace_back(a, b);
      }
    }
    return;
  }
  // Grid-bucketed construction: O(n + E) expected. neighbors_within returns
  // ascending ids, so edges come out sorted (a asc, then b asc) exactly like
  // the pairwise loop above.
  SpatialGrid grid(v);
  grid.rebuild(positions);
  std::vector<std::size_t> nbrs;
  for (RobotId a = 0; a < n_; ++a) {
    grid.neighbors_within(positions[a], v, open_ball, nbrs);
    for (const std::size_t b : nbrs) {
      if (b > a) edges_.emplace_back(a, b);
    }
  }
}

bool VisibilityGraph::has_edge(RobotId a, RobotId b) const {
  if (a > b) std::swap(a, b);
  return std::binary_search(edges_.begin(), edges_.end(), std::make_pair(a, b));
}

bool VisibilityGraph::connected() const {
  if (n_ == 0) return true;
  std::vector<std::vector<RobotId>> adj(n_);
  for (const auto& [a, b] : edges_) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(n_, false);
  std::vector<RobotId> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const RobotId cur = stack.back();
    stack.pop_back();
    for (const RobotId nxt : adj[cur]) {
      if (!seen[nxt]) {
        seen[nxt] = true;
        ++count;
        stack.push_back(nxt);
      }
    }
  }
  return count == n_;
}

bool VisibilityGraph::subset_of(const VisibilityGraph& later) const {
  return edges_lost(later) == 0;
}

std::size_t VisibilityGraph::edges_lost(const VisibilityGraph& later) const {
  std::size_t lost = 0;
  for (const auto& [a, b] : edges_) {
    if (!later.has_edge(a, b)) ++lost;
  }
  return lost;
}

VisiblePairs::VisiblePairs(const std::vector<geom::Vec2>& positions, double v) : v_(v) {
  const std::size_t n = positions.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("VisiblePairs: robot count " + std::to_string(n) +
                                " exceeds UINT32_MAX (partner ids are 32-bit)");
  }
  offsets_.assign(n + 1, 0);
  // One pass of grid queries: each robot appends its later partners and
  // closes its offset run. neighbors_within applies the closed-ball
  // predicate itself (its cell-size fallback keeps it exact for any V), and
  // returns ascending ids, so each robot's partners are sorted.
  SpatialGrid grid(v);
  grid.rebuild(positions);
  std::vector<std::size_t> nbrs;
  for (std::size_t a = 0; a < n; ++a) {
    grid.neighbors_within(positions[a], v, /*open_ball=*/false, nbrs);
    for (auto it = std::ranges::upper_bound(nbrs, a); it != nbrs.end(); ++it) {
      partners_.push_back(static_cast<std::uint32_t>(*it));
    }
    offsets_[a + 1] = partners_.size();
  }
}

double VisiblePairs::worst_stretch(const std::vector<geom::Vec2>& positions) const {
  // Same a < b orientation and arithmetic as the pairwise loop; max() is
  // order-independent, so the result is bit-identical to it. For V > 0,
  // fl(d / V) is non-decreasing in d, so pairs the filter proves shorter
  // than an evaluated one cannot raise the max and skip their hypot. For
  // V <= 0 every ratio is <= 0, NaN or +inf: max(0, ·) ignores the first
  // two, and a skipped pair's ratio is +inf only if a longer admitted
  // pair's is too.
  double worst = 0.0;
  NormMaxFilter longest;
  for (std::size_t a = 0; a < robot_count(); ++a) {
    const geom::Vec2 pa = positions[a];
    for (std::size_t i = offsets_[a]; i < offsets_[a + 1]; ++i) {
      const geom::Vec2 d = pa - positions[partners_[i]];
      if (!longest.admits(d)) continue;
      worst = std::max(worst, d.norm() / v_);
    }
  }
  return worst;
}

double worst_initial_pair_stretch(const std::vector<geom::Vec2>& initial,
                                  const std::vector<geom::Vec2>& positions, double v) {
  return VisiblePairs(initial, v).worst_stretch(positions);
}

}  // namespace cohesion::core
