#include "algo/kknps.hpp"

#include <algorithm>
#include <cmath>
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

// Step 4's literal test stays iff the computed largest gap between the
// atan2 directions of the distant positions is <= pi + tol. stay_certified
// answers true only where that test is sure to stay, so skipping the test
// then changes no bit of any result.
//
// Why: with u = 2^-53, each computed direction (atan2 within 2 ulp, then
// + kTwoPi in normalize_angle) is within 2e-15 of the exact direction of its
// position mod 2pi, and the largest gap of a point set moves by at most 2e
// when each point moves by at most e, so the computed gap (a rounded
// difference, plus kTwoPi across the seam) is within 1e-14 of G, the
// largest gap of the exact directions. Both certificates below prove
// G <= pi - 0.99e-9, so the computed gap is < pi - 0.98e-9 < fl(kPi + tol)
// for every tol >= kMinCertifiedTolerance = -1e-10: the literal test stays.
//
// (i) Octants. octant(p) names a closed sector [o pi/4, (o+1) pi/4] that
// holds p's direction, exactly (signs and |y| >= |x| are exact). An open
// arc free of positions and longer than 3pi/4 contains two whole adjacent
// sectors, so if no two adjacent sectors are empty, G <= 3pi/4.
// (ii) Five adjacent empty sectors make G >= 5pi/4: (iii) cannot certify,
// so it is skipped and the angle path decides (a move unless tol >= pi/4).
// (iii) A triangle of witnesses. If positions p, q, r each lie
// counter-clockwise of the one before (p -> q -> r -> p) by an angle whose
// sine exceeds s, the three steps lie in (asin s, pi - asin s) and sum to
// 2pi, so every gap of {p, q, r} is < pi - asin s; more positions only
// split gaps, so G < pi - asin s. One pass finds the triangle: p = far[0],
// q the position furthest counter-clockwise of p within p's open left
// half-plane, r the furthest clockwise within its right one (a pick that
// rounding spoils only loses the certificate). With no position exactly
// opposite p, q -> r is a gap of the set, so the triangle exists whenever
// G is clearly below pi. The computed cross product c of a and b is within
// 2u|a||b| (plus 2^-1073 from underflow) of the exact one, with or without
// a fused multiply-add, and fl(c*c) and fl(1e-18 * a2 * b2) are within u
// and 7u relative of c² and 1e-18|a|²|b|² (a2, b2: computed squared
// norms). So c > 0 and c*c > 1e-18 * a2 * b2 imply an exact cross product
// above (1e-9 - 3u)|a||b| > 0: s = 0.99e-9.
// Squared norms in [2^-400, 2^400] keep 1e-18 * a2 * b2 >= 2^-860 normal
// and every product finite; any other position (zero, tiny, huge,
// infinite or NaN) disables the certificate.
namespace {

constexpr double kMinCertifiedSquare = 0x1p-400;
constexpr double kMaxCertifiedSquare = 0x1p400;
constexpr double kWitnessMargin = 1e-18;  // on cross² / (|a|² |b|²)

/// A closed octant [o pi/4, (o+1) pi/4] that holds the direction of p != 0.
int octant(Vec2 p) {
  const bool up = p.y >= 0.0, right = p.x >= 0.0;  // -0 counts as 0
  const bool steep = std::abs(p.y) >= std::abs(p.x);
  const int quadrant = up ? (right ? 0 : 1) : (right ? 3 : 2);
  // Counter-clockwise, the steep half comes second in quadrants 0 and 2.
  return 2 * quadrant + (steep == (quadrant % 2 == 0) ? 1 : 0);
}

/// The 8-bit octant mask rotated by one octant.
unsigned rotate_octants(unsigned mask) { return ((mask << 1) | (mask >> 7)) & 0xffu; }

/// b lies counter-clockwise of a by an angle whose sine exceeds 0.99e-9.
bool clearly_ccw(Vec2 a, Vec2 b) {
  const double c = a.cross(b);
  return c > 0.0 && c * c > kWitnessMargin * a.norm2() * b.norm2();
}

}  // namespace

bool KknpsAlgorithm::stay_certified(const std::vector<Vec2>& far, double tolerance) {
  if (!(tolerance >= kMinCertifiedTolerance)) return false;
  unsigned occupied = 0;
  for (const Vec2 p : far) {
    const double n2 = p.norm2();
    if (!(n2 >= kMinCertifiedSquare && n2 <= kMaxCertifiedSquare)) return false;
    occupied |= 1u << octant(p);
  }
  const unsigned empty = ~occupied & 0xffu;
  if ((empty & rotate_octants(empty)) == 0) return true;  // (i)
  unsigned run = empty;  // after the loop, bit o: octants o-4..o all empty
  for (int k = 0; k < 4; ++k) run &= rotate_octants(run);
  if (run != 0) return false;  // (ii)
  // (iii)
  const Vec2 p = far[0];
  const Vec2* q = nullptr;
  const Vec2* r = nullptr;
  for (const Vec2& b : far) {
    const double c = p.cross(b);
    if (c > 0.0 && (q == nullptr || q->cross(b) > 0.0)) q = &b;
    if (c < 0.0 && (r == nullptr || r->cross(b) < 0.0)) r = &b;
  }
  return q != nullptr && r != nullptr && clearly_ccw(p, *q) && clearly_ccw(*q, *r) &&
         clearly_ccw(*r, p);
}

Vec2 KknpsAlgorithm::compute(const Snapshot& snapshot) const {
  if (snapshot.empty()) return {0.0, 0.0};

  double v_y = snapshot.furthest_distance();
  // §6.1: guard against distance over-estimation.
  v_y /= (1.0 + params_.distance_delta);
  if (v_y <= 0.0) return {0.0, 0.0};

  // Per-thread scratch: engines on different threads share one algorithm.
  thread_local std::vector<Vec2> far;
  thread_local std::vector<double> directions;
  far.clear();
  const core::HypotCut half(v_y / 2.0);
  for (const auto& o : snapshot.neighbours) {
    if (half.greater(o.position)) far.push_back(o.position);
  }
  if (far.empty()) return {0.0, 0.0};  // cannot happen with delta == 0
  // Y lies in the convex hull of its distant neighbours: the intersection
  // of safe regions is exactly {Y} — stay put. The certificate settles most
  // such Looks without angles; the gap test below settles the rest.
  if (stay_certified(far, params_.halfplane_tolerance)) return {0.0, 0.0};

  directions.resize(far.size());
  for (std::size_t i = 0; i < far.size(); ++i) directions[i] = far[i].angle();
  const geom::AngularGap gap = geom::largest_angular_gap(directions);
  if (gap.gap <= geom::kPi + params_.halfplane_tolerance) return {0.0, 0.0};

  const double r = safe_radius(v_y);
  // The two distant neighbours bounding the occupied sector are the ones on
  // either side of the largest gap.
  const Vec2 c1 = geom::unit(directions[gap.after]) * r;
  const Vec2 c2 = geom::unit(directions[gap.before]) * r;
  return geom::midpoint(c1, c2);
}

}  // namespace cohesion::algo
