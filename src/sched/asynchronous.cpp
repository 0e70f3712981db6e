#include "sched/asynchronous.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace cohesion::sched {

using core::Activation;
using core::RobotId;
using core::SimulationView;

namespace {
/// Interval-membership slack of the k-bound bookkeeping.
///
/// Large finite k is clamped to unrestricted Async. A robot's consecutive
/// Looks l_i < l_{i+1} are at least min_duration + min_gap apart (own
/// interval, then own gap), and an interval X = [s, e] lasts at most
/// max_duration. Postponing Y past X needs Y's k-th most recent Look l_1 >
/// s + eps and the proposal L < e - eps, with L - l_1 >= k (min_duration +
/// min_gap); so it needs k (min_duration + min_gap) < max_duration, i.e. k
/// < B = floor(max_duration / (min_duration + min_gap)) + 1. Any k >= B can
/// never postpone. The clamp takes one extra unit, k > B: that leaves a
/// whole min_duration + min_gap of slack against the few ulp(t) that each
/// rounded `look + duration + gap` step and the endpoint of
/// uniform_real_distribution may lose. KAsyncClamp.* checks k = B and k = B
/// + 1 against k = SIZE_MAX bit for bit.
constexpr double kIntervalEps = 1e-12;
/// The look rings cost robot_count * k doubles; 2^24 of them is 128 MiB.
constexpr std::size_t kMaxRingEntries = std::size_t{1} << 24;
constexpr std::size_t kUnrestricted = static_cast<std::size_t>(-1);

bool finite_at_least(double v, double lo) { return std::isfinite(v) && v >= lo; }

void require_xi(double xi, const char* who) {
  if (!(xi > 0.0 && xi <= 1.0)) {
    throw std::invalid_argument(std::string(who) + ": xi must be in (0, 1]");
  }
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("KAsyncScheduler: ") + what);
}
}  // namespace

KAsyncScheduler::KAsyncScheduler(std::size_t robot_count) : KAsyncScheduler(robot_count, Params{}) {}

KAsyncScheduler::KAsyncScheduler(std::size_t robot_count, Params params)
    : n_(robot_count), params_(params), rng_(params.seed), next_ready_(robot_count, 0.0) {
  require(robot_count != 0, "no robots");
  require(params.k != 0, "k must be >= 1");
  require(std::isfinite(params.min_duration) && params.min_duration > 0.0,
          "min_duration must be finite and > 0");
  require(finite_at_least(params.max_duration, params.min_duration),
          "max_duration must be finite and >= min_duration");
  require(finite_at_least(params.min_gap, 0.0), "min_gap must be finite and >= 0");
  require(finite_at_least(params.max_gap, params.min_gap),
          "max_gap must be finite and >= min_gap");
  require_xi(params.xi, "KAsyncScheduler");

  // B of the kIntervalEps comment: no k >= B can postpone; the clamp keeps
  // one unit of rounding margin.
  const double max_looks_inside =
      std::floor(params.max_duration / (params.min_duration + params.min_gap)) + 1.0;
  if (static_cast<double>(params_.k) > max_looks_inside) params_.k = kUnrestricted;
  if (params_.k != kUnrestricted) {
    require(params_.k <= kMaxRingEntries / n_,
            "robot count * k exceeds the 2^24-entry look-ring budget");
    own_looks_.resize(n_ * params_.k, 0.0);
    own_look_count_.resize(n_, 0);
    intervals_.reserve(2 * n_ + 17);
    prefix_max_end_.reserve(2 * n_ + 17);
  }
  // Stagger initial looks so intervals overlap from the start.
  std::uniform_real_distribution<double> jitter(0.0, params.min_duration);
  for (auto& t : next_ready_) t = jitter(rng_);
  for (RobotId r = 0; r < n_; ++r) ready_heap_.emplace(next_ready_[r], r);
}

double KAsyncScheduler::postpone(RobotId best, double look) {
  const std::size_t k = params_.k;
  if (own_look_count_[best] < k) return look;  // fewer than k looks ever committed
  // The oldest of the robot's k most recent looks sits in the ring slot the
  // next look will overwrite.
  const double kth_recent = own_looks_[best * k + own_look_count_[best] % k];
  // An interval is saturated for this robot iff its start admits all k
  // recent looks (start + eps < kth_recent). Starts are non-decreasing, so
  // the candidates are a prefix.
  const auto split = std::partition_point(
      intervals_.begin(), intervals_.end(),
      [&](const OpenInterval& c) { return kth_recent > c.start + kIntervalEps; });
  if (split == intervals_.begin()) return look;
  const double max_end = prefix_max_end_[static_cast<std::size_t>(split - intervals_.begin()) - 1];
  // One step settles the fixed point: the candidate set is look-independent,
  // and after jumping to the max end no candidate can still contain the
  // look. Expired candidates have ends at or below the look and fail the
  // containment test.
  if (look < max_end - kIntervalEps) look = max_end;
  return look;
}

void KAsyncScheduler::commit(RobotId best, const Activation& a) {
  // Record the robot's own committed look in its ring of the last k.
  const std::size_t k = params_.k;
  own_looks_[best * k + own_look_count_[best] % k] = a.t_look;
  ++own_look_count_[best];

  // Amortized compaction: drop expired intervals once the list exceeds
  // twice the robot count. At most one interval per robot is open, so this
  // at least halves the list.
  if (intervals_.size() >= 2 * n_ + 16) {
    const double look = a.t_look;
    std::size_t w = 0;
    for (const OpenInterval& c : intervals_) {
      if (c.end > look + kIntervalEps) intervals_[w++] = c;
    }
    intervals_.resize(w);
    prefix_max_end_.resize(w);
    double running = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < w; ++i) {
      running = std::max(running, intervals_[i].end);
      prefix_max_end_[i] = running;
    }
  }
  // Append the new interval; starts arrive non-decreasing, so creation
  // order keeps the list sorted and the prefix max extends in O(1).
  intervals_.push_back({a.t_look, a.t_move_end});
  prefix_max_end_.push_back(prefix_max_end_.empty()
                                ? a.t_move_end
                                : std::max(prefix_max_end_.back(), a.t_move_end));
}

std::optional<Activation> KAsyncScheduler::next(const SimulationView& view) {
  // Most-starved robot first: ready times only change for the committed
  // robot (re-pushed below), so the heap top is always current. Then the
  // k-bound is enforced by postponement.
  const RobotId best = ready_heap_.top().second;
  ready_heap_.pop();
  double look = std::max(next_ready_[best], view.frontier());
  const bool bounded = params_.k != kUnrestricted;
  if (bounded) look = postpone(best, look);

  std::uniform_real_distribution<double> dur(params_.min_duration, params_.max_duration);
  std::uniform_real_distribution<double> gap(params_.min_gap, params_.max_gap);
  std::uniform_real_distribution<double> compute_frac(0.1, 0.5);
  std::uniform_real_distribution<double> frac(params_.xi, 1.0);

  const double duration = dur(rng_);
  Activation a;
  a.robot = best;
  a.t_look = look;
  a.t_move_start = look + compute_frac(rng_) * duration;
  a.t_move_end = look + duration;
  a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);
  if (bounded) commit(best, a);

  next_ready_[best] = a.t_move_end + gap(rng_);
  ready_heap_.emplace(next_ready_[best], best);
  return a;
}

KNestAScheduler::KNestAScheduler(std::size_t robot_count) : KNestAScheduler(robot_count, Params{}) {}

KNestAScheduler::KNestAScheduler(std::size_t robot_count, Params params)
    : n_(robot_count), params_(params), rng_(params.seed) {
  if (robot_count == 0) throw std::invalid_argument("KNestAScheduler: no robots");
  if (params.k == 0) throw std::invalid_argument("KNestAScheduler: k must be >= 1");
  require_xi(params.xi, "KNestAScheduler");
  plan_round();
}

void KNestAScheduler::plan_round() {
  const double t0 = static_cast<double>(round_);
  std::vector<RobotId> order(n_);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng_);
  std::uniform_real_distribution<double> frac(params_.xi, 1.0);

  std::vector<Activation> acts;
  const std::size_t pairs = n_ / 2;
  // Outer robots (and a possible leftover) span the whole round; equal
  // intervals are mutually nested.
  auto outer_activation = [&](RobotId r) {
    Activation a;
    a.robot = r;
    a.t_look = t0;
    a.t_move_start = t0 + 0.4;
    a.t_move_end = t0 + 1.0;
    a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);
    return a;
  };
  for (std::size_t p = 0; p < pairs; ++p) acts.push_back(outer_activation(order[2 * p]));
  if (n_ % 2 == 1) acts.push_back(outer_activation(order[n_ - 1]));

  // Inner robots: k sequential activations inside a pair-private sub-slot of
  // (t0 + 0.05, t0 + 0.95); sub-slots are pairwise disjoint so all inner
  // intervals are disjoint from each other and strictly nested in every
  // outer interval.
  if (pairs > 0) {
    const double usable = 0.9;
    const double slot = usable / static_cast<double>(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      const RobotId inner = order[2 * p + 1];
      const double s0 = t0 + 0.05 + slot * static_cast<double>(p);
      const double each = slot / static_cast<double>(params_.k);
      for (std::size_t i = 0; i < params_.k; ++i) {
        Activation a;
        a.robot = inner;
        a.t_look = s0 + each * static_cast<double>(i) + 0.05 * each;
        a.t_move_start = a.t_look + 0.3 * each;
        a.t_move_end = a.t_look + 0.8 * each;
        a.realized_fraction = params_.xi >= 1.0 ? 1.0 : frac(rng_);
        acts.push_back(a);
      }
    }
  }

  std::sort(acts.begin(), acts.end(),
            [](const Activation& a, const Activation& b) { return a.t_look < b.t_look; });
  pending_.assign(acts.begin(), acts.end());
  ++round_;
}

std::optional<Activation> KNestAScheduler::next(const SimulationView&) {
  if (pending_.empty()) plan_round();
  Activation a = pending_.front();
  pending_.pop_front();
  return a;
}

ScriptedScheduler::ScriptedScheduler(std::vector<Activation> script) : script_(std::move(script)) {
  // Enforce the same ordering contract the engine does: each look may
  // regress below the *previous* look (the engine's frontier is the last
  // committed Look time, not a running max) only within the 1e-12 slack.
  // (The Section-7 constructions write exactly-sorted scripts; the slack
  // exists so adversarial scripts can exercise the engine's tolerance too.)
  double frontier = -std::numeric_limits<double>::infinity();
  for (const Activation& a : script_) {
    if (a.t_look + 1e-12 < frontier) {
      throw std::invalid_argument("ScriptedScheduler: script must be sorted by t_look");
    }
    frontier = a.t_look;
  }
}

std::optional<Activation> ScriptedScheduler::next(const SimulationView&) {
  if (cursor_ == script_.size()) return std::nullopt;
  return script_[cursor_++];
}

}  // namespace cohesion::sched
