// Distant-neighbour sets for KKNPS's stay-put test whose largest angular gap
// lies a chosen distance from pi. They are built from exact positions, so
// the octants each set occupies are known. Shared by the KknpsCertificate
// and KknpsBand tests.
#pragma once

#include <vector>

#include "geometry/vec2.hpp"

namespace cohesion::halfplane_cases {

/// p mirrored in the x axis (if `mirror`), then turned `turns` quarter
/// turns counter-clockwise. Both are exact.
inline geom::Vec2 quarter_turn(geom::Vec2 p, int turns, bool mirror) {
  if (mirror) p.y = -p.y;
  for (int i = 0; i < turns % 4; ++i) p = p.perp();
  return p;
}

/// Six positions, before the turn: (1, -1 + eps) and (-1, 1) bound an empty
/// arc of pi - eps/2 (to first order) over octants 0 and 1, and octant 7
/// too when eps <= 0. The other four positions occupy octants 3 to 6.
inline std::vector<geom::Vec2> near_pi_gap(double eps, int turns, bool mirror) {
  std::vector<geom::Vec2> out;
  for (const geom::Vec2 p : {geom::Vec2{1.0, -1.0 + eps}, geom::Vec2{-1.0, 1.0},
                             geom::Vec2{-1.0, 0.3}, geom::Vec2{-1.0, -0.3},
                             geom::Vec2{-0.3, -1.0}, geom::Vec2{0.3, -1.0}}) {
    out.push_back(quarter_turn(p, turns, mirror));
  }
  return out;
}

}  // namespace cohesion::halfplane_cases
