#include "algo/kknps.hpp"

#include <stdexcept>
#include <vector>

#include "core/spatial_index.hpp"
#include "geometry/angles.hpp"

namespace cohesion::algo {

using core::Snapshot;
using geom::Vec2;

KknpsAlgorithm::KknpsAlgorithm() : KknpsAlgorithm(Params{}) {}

KknpsAlgorithm::KknpsAlgorithm(Params params) : params_(params) {
  if (params.k == 0) throw std::invalid_argument("KknpsAlgorithm: k must be >= 1");
  if (params.distance_delta < 0.0) {
    throw std::invalid_argument("KknpsAlgorithm: negative distance_delta");
  }
  if (params.radius_divisor <= 2.0) {
    // Divisor 2 would allow a planned move of V_Y, trivially unsafe.
    throw std::invalid_argument("KknpsAlgorithm: radius_divisor must exceed 2");
  }
}

Vec2 KknpsAlgorithm::compute(const Snapshot& snapshot) const {
  if (snapshot.empty()) return {0.0, 0.0};

  double v_y = snapshot.furthest_distance();
  // §6.1: guard against distance over-estimation.
  v_y /= (1.0 + params_.distance_delta);
  if (v_y <= 0.0) return {0.0, 0.0};

  std::vector<double> directions;
  directions.reserve(snapshot.size());
  const core::HypotCut half(v_y / 2.0);
  for (const auto& o : snapshot.neighbours) {
    if (half.greater(o.position)) directions.push_back(o.position.angle());
  }
  if (directions.empty()) return {0.0, 0.0};  // cannot happen with delta == 0

  const geom::AngularGap gap = geom::largest_angular_gap(directions);
  if (gap.gap <= geom::kPi + params_.halfplane_tolerance) {
    // Y lies in the convex hull of its distant neighbours: the intersection
    // of safe regions is exactly {Y} — stay put.
    return {0.0, 0.0};
  }

  const double r = safe_radius(v_y);
  // The two distant neighbours bounding the occupied sector are the ones on
  // either side of the largest gap.
  const Vec2 c1 = geom::unit(directions[gap.after]) * r;
  const Vec2 c2 = geom::unit(directions[gap.before]) * r;
  return geom::midpoint(c1, c2);
}

}  // namespace cohesion::algo
