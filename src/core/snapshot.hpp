// The result of a Look phase: an instantaneous, egocentric, possibly
// distorted view of the visible neighbourhood (paper §2.2).
#pragma once

#include <algorithm>
#include <vector>

#include "core/spatial_index.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// One robot as perceived by the observer, in the observer's local
/// (private, possibly distorted) coordinate system. The observer itself is
/// at the origin and is NOT included.
struct ObservedRobot {
  geom::Vec2 position;      ///< perceived local position
  bool multiplicity = false;  ///< >1 robot here (set only with multiplicity detection)
};

/// Input to an activation's Compute phase.
struct Snapshot {
  std::vector<ObservedRobot> neighbours;  ///< visible robots, observer excluded

  [[nodiscard]] bool empty() const { return neighbours.empty(); }
  [[nodiscard]] std::size_t size() const { return neighbours.size(); }

  /// Perceived distance to the furthest visible neighbour — the paper's
  /// working lower bound V_Y on the (unknown) visibility radius. Bitwise
  /// the max of hypot over the neighbours; hypot is evaluated only for
  /// neighbours that NormMaxFilter cannot rule out.
  [[nodiscard]] double furthest_distance() const {
    double best = 0.0;
    NormMaxFilter furthest;
    for (const auto& o : neighbours) {
      if (furthest.admits(o.position)) best = std::max(best, o.position.norm());
    }
    return best;
  }
};

}  // namespace cohesion::core
