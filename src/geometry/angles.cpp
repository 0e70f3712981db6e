#include "geometry/angles.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace cohesion::geom {

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

double normalize_angle(double theta) {
  // fmod is exact and returns theta itself when |theta| < 2*pi, so the
  // call is needed only outside that range (and for NaN, which fails it).
  double t = std::abs(theta) < kTwoPi ? theta : std::fmod(theta, kTwoPi);
  if (t < 0.0) t += kTwoPi;
  return t;
}

double normalize_angle_signed(double theta) {
  double t = normalize_angle(theta);
  if (t > kPi) t -= kTwoPi;
  return t;
}

double angle_distance(double a, double b) {
  return std::abs(normalize_angle_signed(a - b));
}

double ccw_sweep(double from, double to) { return normalize_angle(to - from); }

double interior_angle(Vec2 p, Vec2 q, Vec2 r) {
  const Vec2 u = p - q, v = r - q;
  const double nu = u.norm(), nv = v.norm();
  if (nu == 0.0 || nv == 0.0) return 0.0;
  const double c = std::clamp(u.dot(v) / (nu * nv), -1.0, 1.0);
  return std::acos(c);
}

double turn_angle(Vec2 p, Vec2 q, Vec2 r) {
  const Vec2 u = q - p, v = r - q;
  if (u.norm2() == 0.0 || v.norm2() == 0.0) return 0.0;
  return std::atan2(u.cross(v), u.dot(v));
}

AngularGap largest_angular_gap(const std::vector<double>& directions) {
  if (directions.empty()) throw std::invalid_argument("largest_angular_gap: empty input");
  const std::size_t n = directions.size();
  if (n == 1) return AngularGap{kTwoPi, 0, 0};

  // (normalized angle, input index), ordered by angle and then index. A NaN
  // angle compares unordered, so pair's (three-way) < is false both ways.
  // Per-thread scratch: engines on different threads call this concurrently.
  thread_local std::vector<std::pair<double, std::size_t>> sorted;
  sorted.resize(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = {normalize_angle(directions[i]), i};
  std::sort(sorted.begin(), sorted.end());

  AngularGap best;
  best.gap = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cur = sorted[i];
    const auto& nxt = sorted[(i + 1) % n];
    double gap = nxt.first - cur.first;
    if (i + 1 == n) gap += kTwoPi;
    if (gap > best.gap) {
      best.gap = gap;
      best.before = cur.second;
      best.after = nxt.second;
    }
  }
  return best;
}

}  // namespace cohesion::geom
