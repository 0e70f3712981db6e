// The paper's convergence algorithm (§3.2 and §5) — we name it KKNPS after
// its authors.
//
// On activation, robot Y:
//   1. sets V_Y = distance to the furthest visible neighbour (the visibility
//      radius V is NOT assumed known);
//   2. classifies neighbours further than V_Y/2 as *distant* (there is
//      always at least one);
//   3. builds, for each distant neighbour X, the 1/k-scaled safe region:
//      the disk of radius r = V_Y/(8k) centred at distance r from Y in the
//      direction of X;
//   4. if no open half-plane through Y contains all distant neighbours
//      (largest angular gap <= pi), stays put — the safe regions intersect
//      only at Y;
//   5. otherwise moves to the midpoint of the safe-region centres of the two
//      distant neighbours bounding the smallest sector that contains all
//      distant neighbours (Fig. 15). With a single distant neighbour this
//      degenerates to the centre of its safe region.
//
// Step 4 is decided first by a certificate on the perceived Cartesian
// positions (stay_certified): octant occupancy, then three positions that
// surround Y with a margin, by cross products. Angles and the sort of step 5 are computed only when the
// certificate cannot decide; a certified stay is exactly the answer of the
// angle test (kknps.cpp has the error argument).
//
// The planned move never exceeds V_Y/8 and lies in every distant
// neighbour's scaled safe region, which is what the visibility-preservation
// theorems (Thm. 3/4) require.
//
// Error tolerance (§6.1): if relative distance error is bounded by delta,
// the perceived V_Y is divided by (1 + delta) so it never overestimates V.
#pragma once

#include <vector>

#include "core/algorithm.hpp"

namespace cohesion::algo {

class KknpsAlgorithm final : public core::Algorithm {
 public:
  struct Params {
    std::size_t k = 1;          ///< asynchrony bound; safe regions scale 1/k
    double distance_delta = 0.0;  ///< assumed bound on relative distance error
    /// Angular slack below pi for the stay-put test. The paper's test is
    /// exact (gap <= pi); a tiny tolerance guards floating-point ties.
    double halfplane_tolerance = 1e-12;
    /// Safe-region radius = V_Y / (radius_divisor * k). The paper uses 8
    /// "mostly for convenience" (footnote 11): anything at least this
    /// cautious works, while substantially larger regions (smaller
    /// divisors) break visibility preservation — see the E13 ablation.
    double radius_divisor = 8.0;
  };

  KknpsAlgorithm();
  explicit KknpsAlgorithm(Params params);

  [[nodiscard]] geom::Vec2 compute(const core::Snapshot& snapshot) const override;
  [[nodiscard]] std::string_view name() const override { return "KKNPS"; }

  [[nodiscard]] const Params& params() const { return params_; }

  /// True only if step 4's test stays put for the distant positions `far`
  /// (the largest gap between their atan2 directions is <= pi + tolerance),
  /// decided without angles. False means "undecided", never "moves". Only
  /// tolerances >= kMinCertifiedTolerance are certified.
  [[nodiscard]] static bool stay_certified(const std::vector<geom::Vec2>& far,
                                           double tolerance);
  static constexpr double kMinCertifiedTolerance = -1e-10;

  /// The scaled safe-region radius for a given working range V_Y.
  [[nodiscard]] double safe_radius(double v_y) const {
    return v_y / (params_.radius_divisor * static_cast<double>(params_.k));
  }

 private:
  Params params_;
};

}  // namespace cohesion::algo
