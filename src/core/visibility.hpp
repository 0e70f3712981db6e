// Visibility graphs over configurations (paper §2.1) and the edge/
// connectivity predicates used by Cohesive Convergence.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Undirected visibility graph: edge (i, j) iff |P_i P_j| <= V.
class VisibilityGraph {
 public:
  VisibilityGraph(const std::vector<geom::Vec2>& positions, double v, bool open_ball = false);

  [[nodiscard]] bool has_edge(RobotId a, RobotId b) const;
  [[nodiscard]] const std::vector<std::pair<RobotId, RobotId>>& edges() const { return edges_; }
  [[nodiscard]] std::size_t robot_count() const { return n_; }
  [[nodiscard]] bool connected() const;

  /// True iff every edge of *this also exists in `later` — the invariant
  /// E(0) subseteq E(t) of Cohesive Convergence.
  [[nodiscard]] bool subset_of(const VisibilityGraph& later) const;

  /// Number of edges of *this missing from `later`.
  [[nodiscard]] std::size_t edges_lost(const VisibilityGraph& later) const;

 private:
  std::size_t n_;
  std::vector<std::pair<RobotId, RobotId>> edges_;  // a < b, sorted
};

/// The closed-ball (d <= V + kVisibilityEpsilon) visible pairs a < b of one
/// configuration, stored as a CSR list: per-robot offsets into one exactly
/// sized array of 4-byte partner ids (4 B per pair). Built once in O(n + E)
/// expected through SpatialGrid; worst_stretch() is then an O(E) scan, so
/// a run that samples the cohesion stretch many times pays for the
/// neighbour queries only once. The pair set equals the brute-force O(n^2)
/// loop's for every V — V <= 0, infinite or NaN included (NaN: no pairs).
class VisiblePairs {
 public:
  /// No robots, no pairs.
  VisiblePairs() : offsets_(1, 0) {}
  /// Throws std::invalid_argument if positions.size() > UINT32_MAX (partner
  /// ids are 32-bit).
  VisiblePairs(const std::vector<geom::Vec2>& positions, double v);

  [[nodiscard]] std::size_t robot_count() const { return offsets_.size() - 1; }
  /// Partners b > a of robot a, ascending.
  [[nodiscard]] std::span<const std::uint32_t> partners(RobotId a) const {
    return {partners_.data() + offsets_[a], partners_.data() + offsets_[a + 1]};
  }

  /// Max over the pairs of positions[a].distance_to(positions[b]) / V (0 if
  /// there are none): > 1 means some pair is no longer visible. `positions`
  /// holds at least robot_count() entries.
  [[nodiscard]] double worst_stretch(const std::vector<geom::Vec2>& positions) const;

 private:
  double v_ = 0.0;
  std::vector<std::size_t> offsets_;     // robot_count() + 1
  std::vector<std::uint32_t> partners_;  // exactly one entry per pair
};

/// Max over initially-visible pairs of their distance at `positions`,
/// normalized by V: > 1 means some initial visibility was lost. Builds a
/// VisiblePairs per call; callers sampling many times should keep one.
double worst_initial_pair_stretch(const std::vector<geom::Vec2>& initial,
                                  const std::vector<geom::Vec2>& positions, double v);

}  // namespace cohesion::core
