// Differential tests of the squared-distance predicates (core/spatial_index.hpp)
// against the literal std::hypot comparisons they replace: HypotCut and
// VisibilityBall on 10^6 seeded random pairs and on adversarial sets
// (distances a few ulps from the threshold, degenerate radii, signed
// zeros, subnormal, huge, infinite and NaN coordinates); NormMaxFilter and
// Snapshot::furthest_distance as a running max; KknpsAlgorithm::compute
// (its stay-put certificate included), VisiblePairs::worst_stretch and
// geom::largest_angular_gap against verbatim copies of their
// hypot-per-candidate, atan2-per-neighbour (and two-buffer) predecessors.
// Every comparison is bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "../algo/halfplane_cases.hpp"
#include "algo/kknps.hpp"
#include "core/snapshot.hpp"
#include "core/spatial_index.hpp"
#include "core/visibility.hpp"
#include "geometry/angles.hpp"
#include "geometry/convex_hull.hpp"

namespace cohesion {
namespace {

using core::DiameterCut;
using core::HypotCut;
using core::kVisibilityEpsilon;
using core::NormMaxFilter;
using core::VisibilityBall;
using geom::Vec2;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool literal_visible(Vec2 d, double r, bool open_ball) {
  const double h = d.norm();
  return open_ball ? (h < r) : (h <= r + kVisibilityEpsilon);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every HypotCut comparison and both VisibilityBall kinds against hypot.
void expect_cut_matches(Vec2 d, double t) {
  const HypotCut cut(t);
  const double h = d.norm();
  EXPECT_EQ(cut.less(d), h < t) << d << " t=" << t;
  EXPECT_EQ(cut.less_equal(d), h <= t) << d << " t=" << t;
  EXPECT_EQ(cut.greater(d), h > t) << d << " t=" << t;
  for (const bool open_ball : {false, true}) {
    EXPECT_EQ(VisibilityBall(t, open_ball).contains(d), literal_visible(d, t, open_ball))
        << d << " r=" << t << " open=" << open_ball;
  }
}

/// 0x1.6666666666666p-538 = 0.7 * 2^-537: its square, 0.49 * 2^-1074,
/// rounds to 0, so d² of (c, c) is 0 while hypot is 0.99 * 2^-537.
constexpr double kUnderflowingSquare = 0x1.6666666666666p-538;

/// The special values the adversarial sets combine.
const std::vector<double>& special_coordinates() {
  static const std::vector<double> values = {
      0.0,   -0.0,  5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, 1e-170, 1e-160,
      kUnderflowingSquare, 1e-12, 0.5, 1.0, -1.0, 1.3e154, -1.3e154, 1e154, 1e200,
      kInf,  -kInf, kNaN};
  return values;
}

/// Includes thresholds whose squares are subnormal (0.9 * 2^-537) and the
/// edges of the band's validity range.
const std::vector<double>& special_radii() {
  static const std::vector<double> values = {
      0.0,  -1.0, 1e-300, 1e-12, 1.0,   1e150, 1e200, kInf, kNaN, 1e-135, 3e135, 0.5,
      -1e-13, 0x1.ccccccccccccdp-538, 0x1p-450, 0x1p450, std::nextafter(0x1p-450, 0.0),
      std::nextafter(0x1p450, kInf)};
  return values;
}

TEST(VisibilityPredicate, MatchesHypotOnAMillionRandomPairs) {
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  // Every fourth pair spans the whole exponent range, underflowing and
  // overflowing squares included.
  std::uniform_int_distribution<int> exponent(-40, 40);
  std::uniform_int_distribution<int> wide_exponent(-600, 560);
  std::uniform_int_distribution<int> ulps(-6, 6);
  for (int i = 0; i < 1'000'000; ++i) {
    const double scale = std::ldexp(1.0, i % 4 == 3 ? wide_exponent(rng) : exponent(rng));
    const Vec2 p{unit(rng) * scale, unit(rng) * scale};
    const Vec2 q{unit(rng) * scale, unit(rng) * scale};
    const Vec2 d = p - q;
    // Half of the radii sit within a few ulps of the distance itself, so the
    // hypot fallback inside the band is exercised as often as the fast path.
    double r = std::abs(unit(rng)) * 2.0 * scale;
    if (i % 2 == 0) {
      r = d.norm();
      for (int k = ulps(rng); k != 0; k += k > 0 ? -1 : 1) {
        r = std::nextafter(r, k > 0 ? kInf : -kInf);
      }
    }
    for (const bool open_ball : {false, true}) {
      ASSERT_EQ(VisibilityBall(r, open_ball).contains(d), literal_visible(d, r, open_ball))
          << "pair " << i << " d=" << d << " r=" << r << " open=" << open_ball;
    }
  }
}

TEST(VisibilityPredicate, DistancesWithinFourUlpsOfTheThreshold) {
  for (const double t : {1.0 + kVisibilityEpsilon, 1.0, 0.75, 3e-7, 1e-120, 1e120, 7.5,
                         0x1.ccccccccccccdp-538, 0x1p-530, 0x1p-451, 0x1p500}) {
    for (const double theta : {0.0, 0.3, 0.7853981633974483, 1.2, 1.5707963267948966, 2.5}) {
      const Vec2 exact{t * std::cos(theta), t * std::sin(theta)};
      for (int kx = -4; kx <= 4; ++kx) {
        for (int ky = -4; ky <= 4; ++ky) {
          Vec2 d = exact;
          for (int k = 0; k < std::abs(kx); ++k) d.x = std::nextafter(d.x, kx > 0 ? kInf : -kInf);
          for (int k = 0; k < std::abs(ky); ++k) d.y = std::nextafter(d.y, ky > 0 ? kInf : -kInf);
          expect_cut_matches(d, t);
          expect_cut_matches(-d, t);
        }
      }
      // Thresholds k ulps around the exact hypot of a fixed vector.
      double up = exact.norm(), down = up;
      for (int k = 0; k <= 4; ++k) {
        expect_cut_matches(exact, up);
        expect_cut_matches(exact, down);
        up = std::nextafter(up, kInf);
        down = std::nextafter(down, -kInf);
      }
    }
  }
}

TEST(VisibilityPredicate, DegenerateRadiiAndNonFiniteCoordinates) {
  const std::vector<double>& c = special_coordinates();
  for (const double r : special_radii()) {
    for (const double x : c) {
      for (const double y : c) expect_cut_matches({x, y}, r);
    }
  }
  // Differences of special positions, as the engine forms them.
  for (const double r : {1.0, kInf, 0.0}) {
    for (const double a : c) {
      for (const double b : c) {
        expect_cut_matches(Vec2{a, 1.0} - Vec2{b, -0.5}, r);
        expect_cut_matches(Vec2{a, b} - Vec2{b, a}, r);
      }
    }
  }
}

TEST(NormMaxFilter, RunningMaxEqualsTheFullHypotMax) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> size(0, 40);
  std::uniform_int_distribution<std::size_t> pick(0, special_coordinates().size() - 1);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<Vec2> vs(size(rng));
    // Odd trials reach underflowing and overflowing squares.
    const int exponent = trial % 2 == 0 ? trial % 61 - 30 : trial % 117 * 10 - 580;
    const double scale = std::ldexp(1.0, exponent);
    for (Vec2& v : vs) v = {unit(rng) * scale, unit(rng) * scale};
    if (!vs.empty() && trial % 3 == 0) {
      // Ties and near-ties of the max, in any order.
      const Vec2 top = vs[0];
      vs.push_back({top.y, top.x});
      vs.push_back({-top.x, top.y});
      vs.push_back({std::nextafter(top.x, kInf), top.y});
    }
    if (trial % 5 == 0) vs.push_back({special_coordinates()[pick(rng)],
                                      special_coordinates()[pick(rng)]});
    std::shuffle(vs.begin(), vs.end(), rng);

    double literal = 0.0;
    for (const Vec2 v : vs) literal = std::max(literal, v.norm());
    double filtered = 0.0;
    NormMaxFilter filter;
    for (const Vec2 v : vs) {
      if (filter.admits(v)) filtered = std::max(filtered, v.norm());
    }
    ASSERT_TRUE(same_bits(filtered, literal)) << "trial " << trial;
    core::Snapshot snapshot;
    for (const Vec2 v : vs) snapshot.neighbours.push_back({v});
    ASSERT_TRUE(same_bits(snapshot.furthest_distance(), literal)) << "trial " << trial;
  }
  // A subnormal d² may round up (0.6 -> 1 times 2^-1074) and a later one
  // down to 0 (two squares of 0.49 each) while its hypot is the larger:
  // such a d² must never set the cut.
  const Vec2 rounded_up{std::sqrt(0.6) * 0x1p-537, 0.0};
  const Vec2 rounded_down{kUnderflowingSquare, kUnderflowingSquare};
  NormMaxFilter filter;
  EXPECT_TRUE(filter.admits(rounded_up));
  EXPECT_TRUE(filter.admits(rounded_down));
  EXPECT_GT(rounded_down.norm(), rounded_up.norm());
}

// --- KknpsAlgorithm::compute against its hypot-per-neighbour predecessor ---

geom::AngularGap two_buffer_largest_angular_gap(const std::vector<double>& directions) {
  const std::size_t n = directions.size();
  if (n == 1) return geom::AngularGap{geom::kTwoPi, 0, 0};
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> norm(n);
  for (std::size_t i = 0; i < n; ++i) norm[i] = geom::normalize_angle(directions[i]);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (norm[a] != norm[b]) return norm[a] < norm[b];
    return a < b;
  });
  geom::AngularGap best;
  best.gap = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cur = order[i];
    const std::size_t nxt = order[(i + 1) % n];
    double gap = norm[nxt] - norm[cur];
    if (i + 1 == n) gap += geom::kTwoPi;
    if (gap > best.gap) {
      best.gap = gap;
      best.before = cur;
      best.after = nxt;
    }
  }
  return best;
}

Vec2 hypot_kknps(const algo::KknpsAlgorithm::Params& p, const core::Snapshot& snapshot) {
  if (snapshot.empty()) return {0.0, 0.0};
  double v_y = 0.0;
  for (const auto& o : snapshot.neighbours) v_y = std::max(v_y, o.position.norm());
  v_y /= (1.0 + p.distance_delta);
  if (v_y <= 0.0) return {0.0, 0.0};
  std::vector<double> directions;
  for (const auto& o : snapshot.neighbours) {
    if (o.position.norm() > v_y / 2.0) directions.push_back(o.position.angle());
  }
  if (directions.empty()) return {0.0, 0.0};
  const geom::AngularGap gap = two_buffer_largest_angular_gap(directions);
  if (gap.gap <= geom::kPi + p.halfplane_tolerance) return {0.0, 0.0};
  const double r = v_y / (p.radius_divisor * static_cast<double>(p.k));
  return geom::midpoint(geom::unit(directions[gap.after]) * r,
                        geom::unit(directions[gap.before]) * r);
}

void expect_kknps_matches(const algo::KknpsAlgorithm& algo, const core::Snapshot& s,
                          int trial) {
  const Vec2 got = algo.compute(s);
  const Vec2 want = hypot_kknps(algo.params(), s);
  ASSERT_TRUE(same_bits(got.x, want.x) && same_bits(got.y, want.y))
      << "trial " << trial << ": " << got << " vs " << want;
}

std::optional<bool> box_decision(const std::vector<Vec2>& pts, double eps) {
  DiameterCut cut(eps);
  for (const Vec2 p : pts) cut.add(p);
  return cut.decided();
}

/// Sets whose diameter, longer box side or box diagonal sits within a few
/// band widths of epsilon, in every orientation, far from and near the
/// origin: where the box decides, it answers geom::set_diameter(...) <= eps.
TEST(DiameterCut, AgreesWithSetDiameterAtTheEdgeOfTheBand) {
  std::mt19937_64 rng(43);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_real_distribution<double> turn(0.0, geom::kTwoPi);
  std::size_t decided = 0, asked = 0;
  for (int trial = 0; trial < 600; ++trial) {
    // A needle, a pair, or a cloud; turned, then moved off the origin.
    std::vector<Vec2> pts;
    const int shape = trial % 3;
    const std::size_t n = shape == 1 ? 2 : 24;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(shape == 0 ? Vec2{u(rng), 1e-7 * u(rng)} : Vec2{u(rng), u(rng)});
    }
    const double angle = trial % 4 == 0 ? 0.0 : turn(rng);
    const Vec2 at = trial % 5 == 0 ? Vec2{0.0, 0.0} : Vec2{1e3 * u(rng), 1e3 * u(rng)};
    for (Vec2& p : pts) p = p.rotated(angle) + at;

    // epsilon around each quantity the cut compares, at offsets across
    // the 1e-9 band: the diameter, the longer side, the diagonal.
    double min_x = pts[0].x, max_x = pts[0].x, min_y = pts[0].y, max_y = pts[0].y;
    for (const Vec2 p : pts) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    const double w = max_x - min_x, h = max_y - min_y;
    const double d = geom::set_diameter(pts);
    for (const double target : {d, std::max(w, h), std::hypot(w, h)}) {
      for (const double rel : {-0.5, -4e-9, -1.1e-9, -1e-9, -0.9e-9, -1e-12, 0.0, 1e-12, 0.9e-9,
                               1e-9, 1.1e-9, 4e-9, 0.5}) {
        for (const double eps : {target * (1.0 + rel), std::nextafter(target * (1.0 + rel), 0.0),
                                 std::nextafter(target * (1.0 + rel), 2.0 * target)}) {
          const std::optional<bool> box = box_decision(pts, eps);
          if (!box) {
            ++asked;
            continue;
          }
          ++decided;
          ASSERT_EQ(*box, d <= eps) << "trial " << trial << " eps " << eps << " diameter " << d;
        }
      }
    }
  }
  // Both sides of the cut are exercised.
  EXPECT_GT(decided, 0u);
  EXPECT_GT(asked, 0u);
}

TEST(DiameterCut, DecidesClearCasesAndLeavesTheBandToTheHull) {
  const std::vector<Vec2> unit_square{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  EXPECT_EQ(box_decision(unit_square, 0.99), std::optional<bool>(false));  // a longer side
  EXPECT_EQ(box_decision(unit_square, 1.42), std::optional<bool>(true));  // a shorter diagonal
  EXPECT_EQ(box_decision(unit_square, 1.2), std::nullopt);  // between side and diagonal
  EXPECT_EQ(box_decision(unit_square, 1.0), std::nullopt);  // a side inside the band
  EXPECT_EQ(box_decision({{0.5, 0.5}}, 1e-3), std::optional<bool>(true));
  EXPECT_EQ(box_decision({}, 1e-3), std::nullopt);
  // epsilon outside [2^-450, 2^450], or a non-finite point: no decision.
  for (const double eps : {0.0, -1.0, 1e-300, 1e300, std::nan("")}) {
    EXPECT_EQ(box_decision(unit_square, eps), std::nullopt) << eps;
  }
  EXPECT_EQ(box_decision({{0.0, 0.0}, {std::nan(""), 0.0}}, 10.0), std::nullopt);
  EXPECT_EQ(box_decision({{0.0, 0.0}, {HUGE_VAL, 0.0}}, 10.0), std::nullopt);
}

TEST(KknpsBand, ComputeMatchesTheHypotLoopsIncludingNonFinitePositions) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> size(1, 24);
  std::uniform_int_distribution<std::size_t> pick(0, special_coordinates().size() - 1);
  std::vector<algo::KknpsAlgorithm> algos;
  for (const double delta : {0.0, 0.02, 0.3}) {
    for (const std::size_t k : {1u, 3u}) algos.emplace_back(algo::KknpsAlgorithm::Params{k, delta});
  }
  for (int trial = 0; trial < 30000; ++trial) {
    core::Snapshot s;
    const double scale = std::ldexp(1.0, static_cast<int>(trial % 41) - 20);
    for (int i = size(rng); i > 0; --i) {
      s.neighbours.push_back({{unit(rng) * scale, unit(rng) * scale}, false});
    }
    const Vec2 far = s.neighbours[0].position;
    switch (trial % 6) {
      case 0:  // a neighbour exactly at V_Y / 2 (delta = 0), and one an ulp off
        s.neighbours.push_back({far * 0.5, false});
        s.neighbours.push_back({{std::nextafter(far.x * 0.5, kInf), far.y * 0.5}, false});
        break;
      case 1:  // tied furthest neighbours in different directions
        s.neighbours.push_back({{-far.x, -far.y}, false});
        s.neighbours.push_back({{far.y, -far.x}, false});
        break;
      case 2:  // a non-finite or extreme neighbour
        s.neighbours.push_back(
            {{special_coordinates()[pick(rng)], special_coordinates()[pick(rng)]}, false});
        break;
      case 3:  // a single distant direction plus collinear followers
        s.neighbours = {{far, false}, {far * 0.25, false}, {far * 0.75, false}};
        break;
      default:
        break;
    }
    std::shuffle(s.neighbours.begin(), s.neighbours.end(), rng);
    for (const auto& algo : algos) expect_kknps_matches(algo, s, trial);
  }
  // Every pair of special coordinates as a lone or accompanied neighbour.
  int trial = -1;
  for (const double x : special_coordinates()) {
    for (const double y : special_coordinates()) {
      core::Snapshot lone;
      lone.neighbours = {{{x, y}, false}};
      core::Snapshot crowd;
      crowd.neighbours = {{{x, y}, false}, {{1.0, 0.0}, false}, {{-0.4, 0.3}, false},
                          {{y, x}, false}};
      for (const auto& algo : algos) {
        expect_kknps_matches(algo, lone, trial);
        expect_kknps_matches(algo, crowd, trial);
      }
      --trial;
    }
  }
}

TEST(KknpsBand, StayCertificateMatchesTheAngleTestOnBoundaryCases) {
  // Sets where an octant, cross-product or tolerance slip would change the
  // stay-put answer: directions on octant boundaries and axes (signed
  // zeros), exact antipodes, gaps within 1e-12 or 1e-9 of pi, and infinite
  // coordinates, under tolerances on both sides of the certificate's floor.
  std::vector<algo::KknpsAlgorithm> algos;
  for (const double tolerance : {0.0, 1e-12, -1e-11, -1e-9, -0.5, 0.5}) {
    for (const double delta : {0.0, 0.02}) {
      algos.emplace_back(algo::KknpsAlgorithm::Params{
          .k = 1, .distance_delta = delta, .halfplane_tolerance = tolerance});
    }
  }
  const std::vector<Vec2> boundary = {
      {1.0, 0.0},  {1.0, -0.0},  {-1.0, 0.0}, {-1.0, -0.0}, {0.0, 1.0},  {-0.0, 1.0},
      {0.0, -1.0}, {-0.0, -1.0}, {1.0, 1.0},  {-1.0, 1.0},  {-1.0, -1.0}, {1.0, -1.0}};
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> unit(-1.0, 1.0), angle(-geom::kPi, geom::kPi);
  std::uniform_int_distribution<std::size_t> pick_boundary(0, boundary.size() - 1);
  int certified = 0, decided_by_angles = 0;
  for (int trial = 0; trial < 24000; ++trial) {
    std::vector<Vec2> ps;
    switch (trial % 4) {
      case 0:  // octant-boundary and axis directions
        for (int i = 1 + trial % 12; i > 0; --i) ps.push_back(boundary[pick_boundary(rng)]);
        break;
      case 1: {  // exactly antipodal pairs, some with company on one side
        const Vec2 p{unit(rng), unit(rng)};
        ps = {p, -p};
        if (trial % 3 != 0) ps.push_back(p.perp() * 0.9);
        if (trial % 3 == 2) ps.push_back(-p.perp() * 0.8);
        break;
      }
      case 2: {  // gaps pi - 1e-12, pi - 1e-9, pi, pi + 1e-12, pi + 1e-9
        const double eps = std::array{2e-12, 2e-9, 0.0, -2e-12, -2e-9}[trial / 4 % 5];
        ps = halfplane_cases::near_pi_gap(eps, trial / 20 % 4, trial / 80 % 2 == 1);
        // More company on the occupied side, strictly inside it.
        const Vec2 far_side = ps[2] + ps[5];
        for (int i = trial / 160 % 4; i > 0; --i) {
          ps.push_back(geom::unit(far_side.angle() + 0.3 * unit(rng)) * 1.2);
        }
        break;
      }
      default: {  // random half-planes with gaps pi +- 1e-9 or 1e-12
        const double from = angle(rng);
        const double gap = geom::kPi + std::array{1e-9, -1e-9, 1e-12, -1e-12}[trial / 4 % 4];
        ps = {geom::unit(from), geom::unit(from + geom::kTwoPi - gap)};
        for (int i = trial / 16 % 5; i > 0; --i) {
          ps.push_back(geom::unit(from + (0.5 + 0.5 * unit(rng)) * (geom::kTwoPi - gap)));
        }
        break;
      }
    }
    const double scale = std::ldexp(1.0, static_cast<int>(trial % 21) - 10);
    for (Vec2& p : ps) p *= scale;
    if (trial % 7 == 0) {  // an infinite coordinate
      ps[trial % ps.size()].x = trial % 2 == 0 ? kInf : -kInf;
    }
    core::Snapshot s;
    for (const Vec2 p : ps) s.neighbours.push_back({p, false});
    s.neighbours.push_back({ps[0] * 0.25, false});  // a close neighbour
    std::shuffle(s.neighbours.begin(), s.neighbours.end(), rng);
    for (const auto& algo : algos) {
      expect_kknps_matches(algo, s, trial);
      // The distant positions compute() hands the certificate.
      const double v_y = s.furthest_distance() / (1.0 + algo.params().distance_delta);
      std::vector<Vec2> far;
      for (const auto& o : s.neighbours) {
        if (o.position.norm() > v_y / 2.0) far.push_back(o.position);
      }
      if (algo::KknpsAlgorithm::stay_certified(far, algo.params().halfplane_tolerance)) {
        ++certified;
      } else {
        ++decided_by_angles;
      }
    }
  }
  // Both paths carry real weight in this battery.
  EXPECT_GT(certified, 20000);
  EXPECT_GT(decided_by_angles, 20000);
}

TEST(KknpsBand, LargestAngularGapKeepsTheTwoBufferOrderForTiesAndNaN) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> size(1, 30);
  std::uniform_int_distribution<int> slot(0, 11);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<double> dirs(size(rng));
    // Coarse angles force ties (also across the 0 / 2*pi seam); some NaN.
    for (double& d : dirs) {
      const int s = slot(rng);
      d = s == 11 ? kNaN : (s - 5) * geom::kPi / 4.0;
    }
    const geom::AngularGap got = geom::largest_angular_gap(dirs);
    const geom::AngularGap want = two_buffer_largest_angular_gap(dirs);
    ASSERT_TRUE(same_bits(got.gap, want.gap)) << "trial " << trial;
    ASSERT_EQ(got.before, want.before) << "trial " << trial;
    ASSERT_EQ(got.after, want.after) << "trial " << trial;
  }
}

// --- VisiblePairs::worst_stretch against the hypot-per-pair loop ---

TEST(StretchBand, WorstStretchMatchesTheHypotLoop) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, special_coordinates().size() - 1);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 2 + trial % 90;
    const double v = trial % 7 == 0 ? special_radii()[trial / 7 % special_radii().size()] : 1.0;
    const double side = 0.5 * std::sqrt(static_cast<double>(n));
    std::vector<Vec2> initial(n);
    for (Vec2& p : initial) p = {unit(rng) * side, unit(rng) * side};
    std::vector<Vec2> later = initial;
    const double spread = std::ldexp(1.0, trial % 9 - 6);
    for (Vec2& p : later) p += Vec2{unit(rng) * spread, unit(rng) * spread};
    if (trial % 4 == 0) later[trial % n] = {special_coordinates()[pick(rng)],
                                            special_coordinates()[pick(rng)]};
    if (trial % 5 == 0) later[(trial + 1) % n] = later[(trial + 2) % n];

    const core::VisiblePairs pairs(initial, v);
    double literal = 0.0;
    for (core::RobotId a = 0; a < pairs.robot_count(); ++a) {
      for (const std::uint32_t b : pairs.partners(a)) {
        literal = std::max(literal, later[a].distance_to(later[b]) / v);
      }
    }
    ASSERT_TRUE(same_bits(pairs.worst_stretch(later), literal)) << "trial " << trial;
  }
}

TEST(StretchBand, NonPositiveRadiusKeepsTheHypotLoopsResult) {
  // V <= 0 keeps only near-coincident initial pairs; their later ratios are
  // <= 0, NaN or +inf, and the skipped ones must not change the max.
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, special_coordinates().size() - 1);
  for (int trial = 0; trial < 400; ++trial) {
    const double v = std::array{0.0, -0.0, -1e-13, -1.0}[trial % 4];
    const std::size_t n = 2 + trial % 30;
    std::vector<Vec2> initial(n);
    for (std::size_t i = 0; i < n; ++i) initial[i] = {static_cast<double>(i % 3), 0.0};
    std::vector<Vec2> later = initial;
    for (std::size_t i = 0; i < n; ++i) {
      if ((i + trial) % 3 != 0) later[i] += Vec2{unit(rng), unit(rng)};
    }
    if (trial % 5 == 0) later[trial % n] = {special_coordinates()[pick(rng)],
                                            special_coordinates()[pick(rng)]};

    const core::VisiblePairs pairs(initial, v);
    double literal = 0.0;
    for (core::RobotId a = 0; a < pairs.robot_count(); ++a) {
      for (const std::uint32_t b : pairs.partners(a)) {
        literal = std::max(literal, later[a].distance_to(later[b]) / v);
      }
    }
    ASSERT_TRUE(same_bits(pairs.worst_stretch(later), literal)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cohesion
