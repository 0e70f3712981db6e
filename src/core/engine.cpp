#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "geometry/convex_hull.hpp"

namespace cohesion::core {

using geom::Vec2;

namespace {

/// Resolution below which two perceived positions count as one robot
/// (paper footnote 4).
constexpr double kColocationEps = 1e-12;

}  // namespace

Engine::Engine(std::vector<Vec2> initial, const Algorithm& algorithm, Scheduler& scheduler,
               EngineConfig config)
    : algorithm_(algorithm),
      scheduler_(scheduler),
      config_(std::move(config)),
      trace_(std::move(initial)),
      kin_(trace_.initial_configuration()),
      busy_until_(trace_.robot_count(), 0.0),
      activation_counts_(trace_.robot_count(), 0),
      crashed_(trace_.robot_count(), false),
      rng_(config_.seed) {
  if (trace_.robot_count() == 0) throw std::invalid_argument("Engine: empty configuration");
  if (!config_.record_history) {
    if (config_.snapshot_path == SnapshotPath::kScan) {
      throw std::invalid_argument(
          "Engine: record_history = false is unavailable on SnapshotPath::kScan — the "
          "reference scan reconstructs positions from the Trace");
    }
    // The scheduler's 1e-12 look-ordering slack can query one segment back;
    // without a Trace that history must live in the kinematic state.
    kin_.set_keep_previous(true);
  }
  double max_radius = config_.visibility.radius;
  if (!config_.visibility.per_robot_radii.empty()) {
    max_radius = *std::max_element(config_.visibility.per_robot_radii.begin(),
                                   config_.visibility.per_robot_radii.end());
  }
  grid_.set_cell_size(max_radius);
  if (config_.snapshot_path == SnapshotPath::kIncremental) {
    kin_.set_track_dirty(true);
    inc_grid_.reset(max_radius, trace_.initial_configuration());
  }
}

Vec2 Engine::history_position(RobotId robot, Time t) const {
  return config_.record_history ? trace_.position(robot, t) : kin_.position_bounded(robot, t);
}

Vec2 Engine::position(RobotId robot, Time t) const {
  if (config_.snapshot_path != SnapshotPath::kScan && t >= kin_.segment_start(robot)) {
    return kin_.position_at(robot, t);
  }
  return history_position(robot, t);
}

void Engine::refresh_grid(Time t) {
  if (grid_valid_ && grid_time_ == t) return;
  const std::size_t n = trace_.robot_count();
  positions_now_.resize(n);
  for (RobotId r = 0; r < n; ++r) {
    // The cache is exact from the current segment's Look onward; the
    // scheduler may propose a Look up to 1e-12 before the frontier, where
    // only the Trace is.
    positions_now_[r] = t >= kin_.segment_start(r) ? kin_.position_at(r, t)
                                                   : history_position(r, t);
  }
  grid_.rebuild(positions_now_);
  grid_time_ = t;
  grid_valid_ = true;
}

void Engine::snapshot_via_grid(RobotId robot, Time t, const LocalFrame& frame, Snapshot& snap) {
  refresh_grid(t);
  const Vec2 self = positions_now_[robot];
  const double v = config_.visibility.radius_of(robot);
  grid_.neighbors_within(self, v, config_.visibility.open_ball, neighbor_ids_);
  snap.neighbours.reserve(neighbor_ids_.size());
  for (const std::size_t other : neighbor_ids_) {
    if (other == robot) continue;
    snap.neighbours.push_back({frame.perceive(positions_now_[other] - self, rng_), false});
  }
}

void Engine::snapshot_via_incremental(RobotId robot, Time t, const LocalFrame& frame,
                                      Snapshot& snap) {
  // Re-file exactly the robots whose segments changed since the last
  // snapshot — between consecutive Look times that is the just-moved robot,
  // not all n.
  for (const RobotId r : kin_.dirty()) inc_grid_.update(r, kin_.segment(r));
  kin_.clear_dirty();

  if (t < inc_time_) {
    // The scheduler's 1e-12 look-ordering slack can place this Look before
    // the previous one, where positions live on segments the index no
    // longer holds (and collapsed robots may still be mid-move). Serve the
    // query through the reference scan; the index remains consistent for
    // the next forward query.
    snapshot_via_scan(robot, t, frame, snap);
    return;
  }
  inc_grid_.advance_to(t);
  inc_time_ = t;

  // Every segment start is <= t (see above), so the kinematic state alone
  // is exact here, and the index evaluates the same segments.
  const Vec2 self = kin_.position_at(robot, t);
  const double v = config_.visibility.radius_of(robot);
  inc_grid_.visible_near(self, v, VisibilityBall(v, config_.visibility.open_ball), t, visible_);
  snap.neighbours.reserve(visible_.size());
  for (const VisibleRobot& other : visible_) {
    if (other.id == robot) continue;
    snap.neighbours.push_back({frame.perceive(other.offset, rng_), false});
  }
}

void Engine::snapshot_via_scan(RobotId robot, Time t, const LocalFrame& frame, Snapshot& snap) {
  // The reference path proper always has a Trace (ctor contract); the
  // incremental path's backward-time fallback may not, and goes through the
  // bounded history instead — bit-identical wherever both can answer.
  const Vec2 self = history_position(robot, t);
  const VisibilityBall ball(config_.visibility.radius_of(robot), config_.visibility.open_ball);
  for (RobotId other = 0; other < trace_.robot_count(); ++other) {
    if (other == robot) continue;
    const Vec2 rel = history_position(other, t) - self;
    if (!ball.contains(rel)) continue;
    snap.neighbours.push_back({frame.perceive(rel, rng_), false});
  }
}

void Engine::resolve_multiplicity(Snapshot& snap) {
  auto& nb = snap.neighbours;
  if (!config_.visibility.multiplicity_detection) {
    // Co-located robots are perceived as a single robot (paper footnote 4):
    // collapse perceived positions closer than a resolution threshold. In
    // place and greedy: a neighbour is kept unless it is close to one kept
    // before it, so the first of a co-located group wins and order holds.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const Vec2 p = nb[i].position;
      const bool dup = std::any_of(nb.begin(), nb.begin() + kept, [&](const ObservedRobot& c) {
        return geom::almost_equal(c.position, p, kColocationEps);
      });
      if (!dup) nb[kept++] = nb[i];
    }
    nb.resize(kept);
    return;
  }
  // Flag every robot that shares its perceived position with another.
  // Sort-and-group: after sorting by (x, y), any almost-equal partner of an
  // element lies in the forward window where the x gap is still <= eps, so
  // one windowed sweep replaces the quadratic count_if per element.
  const std::size_t k = nb.size();
  if (k < 2) return;
  mult_order_.resize(k);
  std::iota(mult_order_.begin(), mult_order_.end(), 0u);
  std::sort(mult_order_.begin(), mult_order_.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Vec2 pa = nb[a].position, pb = nb[b].position;
    return pa.x != pb.x ? pa.x < pb.x : pa.y < pb.y;
  });
  for (std::size_t i = 0; i < k; ++i) {
    const Vec2 pi = nb[mult_order_[i]].position;
    for (std::size_t j = i + 1; j < k; ++j) {
      const Vec2 pj = nb[mult_order_[j]].position;
      if (pj.x - pi.x > kColocationEps) break;
      if (std::abs(pj.y - pi.y) <= kColocationEps) {
        nb[mult_order_[i]].multiplicity = true;
        nb[mult_order_[j]].multiplicity = true;
      }
    }
  }
}

void Engine::honest_snapshot(RobotId robot, Time t, const LocalFrame& frame, Snapshot& snap) {
  snap.neighbours.clear();
  switch (config_.snapshot_path) {
    case SnapshotPath::kIncremental:
      snapshot_via_incremental(robot, t, frame, snap);
      break;
    case SnapshotPath::kRebuild:
      snapshot_via_grid(robot, t, frame, snap);
      break;
    case SnapshotPath::kScan:
      snapshot_via_scan(robot, t, frame, snap);
      break;
  }
  resolve_multiplicity(snap);
}

bool Engine::step() {
  const std::optional<Activation> proposal = scheduler_.next(*this);
  if (!proposal) return false;
  const Activation a = *proposal;

  // --- Contract checks (scheduler bugs should fail loudly). ---
  if (a.robot >= trace_.robot_count()) throw std::logic_error("Engine: bad robot id");
  if (a.t_look + 1e-12 < frontier_) throw std::logic_error("Engine: look time before frontier");
  if (a.t_look + 1e-12 < busy_until_[a.robot]) {
    throw std::logic_error("Engine: robot activated while still active");
  }
  if (!(a.t_look <= a.t_move_start + 1e-12 && a.t_move_start <= a.t_move_end + 1e-12)) {
    throw std::logic_error("Engine: activation phases out of order");
  }
  if (!(a.realized_fraction > 0.0 && a.realized_fraction <= 1.0)) {
    throw std::logic_error("Engine: realized_fraction outside (0, 1]");
  }

  // --- Look ---
  const LocalFrame frame = config_.error.exact() && !config_.error.random_rotation
                               ? LocalFrame::identity()
                               : LocalFrame::sample(config_.error, rng_);
  Snapshot& snap = snap_;
  honest_snapshot(a.robot, a.t_look, frame, snap);
  if (perception_hook_) snap = perception_hook_(a.robot, a.t_look, snap);

  // --- Compute ---
  const Vec2 self = position(a.robot, a.t_look);
  Vec2 local_destination = crashed_[a.robot] ? Vec2{0.0, 0.0} : algorithm_.compute(snap);
  const Vec2 planned = self + frame.intent_to_global(local_destination);

  // --- Move (xi-rigid truncation + motion error) ---
  Vec2 realized = geom::lerp(self, planned, a.realized_fraction);
  realized = apply_motion_error(self, realized, config_.error.motion_quad_coeff,
                                config_.visibility.radius_of(a.robot), rng_);

  ActivationRecord rec{a, self, planned, realized, snap.size()};
  if (config_.record_history) trace_.record(rec);
  kin_.commit(rec);
  if (sink_) sink_->append(rec);
  end_time_ = std::max(end_time_, a.t_move_end);
  // A commit leaves every position at its own Look time unchanged — except
  // a zero-duration move (t_move_end == t_look), which teleports the robot
  // to `realized` at that very instant; a grid built at this Look must not
  // serve later Looks at it then.
  if (grid_valid_ && a.t_move_end <= grid_time_) grid_valid_ = false;
  busy_until_[a.robot] = a.t_move_end;
  frontier_ = a.t_look;
  ++activation_counts_[a.robot];
  return true;
}

std::size_t Engine::run(std::size_t max_activations) {
  std::size_t done = 0;
  while (done < max_activations && step()) ++done;
  return done;
}

bool Engine::run_until(const StopCondition& stop) {
  const std::size_t check_every = std::max<std::size_t>(stop.check_every, 1);
  // A negative epsilon can never match — skip the O(n) diameter scans
  // entirely so fixed-budget runs cost what Engine::run(max) costs.
  const bool check_diameter = stop.epsilon >= 0.0;
  const bool check_time = stop.max_time > 0.0;
  std::size_t done = 0;
  while (done < stop.max_activations) {
    for (std::size_t i = 0; i < check_every && done < stop.max_activations; ++i, ++done) {
      if (!step()) return check_diameter && diameter_at_most(stop.epsilon);
      if (check_time && frontier_ >= stop.max_time) {
        return check_diameter && diameter_at_most(stop.epsilon);
      }
    }
    if (check_diameter && diameter_at_most(stop.epsilon)) return true;
    if (stop.predicate && stop.predicate(*this)) break;
  }
  return check_diameter && diameter_at_most(stop.epsilon);
}

bool Engine::run_until_converged(double epsilon, std::size_t max_activations,
                                 std::size_t check_every) {
  StopCondition stop;
  stop.epsilon = epsilon;
  stop.max_activations = max_activations;
  stop.check_every = check_every;
  return run_until(stop);
}

std::vector<Vec2> Engine::current_configuration() const {
  // Evaluate at the end of all committed motion: the configuration "if
  // nothing further is scheduled". That instant is at or after every
  // committed Look, so the kinematic cache answers in O(n) total.
  const Time t = end_time_ + 1.0;
  if (config_.snapshot_path == SnapshotPath::kScan) return trace_.configuration(t);
  std::vector<Vec2> out(trace_.robot_count());
  for (RobotId r = 0; r < out.size(); ++r) out[r] = kin_.position_at(r, t);
  return out;
}

double Engine::current_diameter() const {
  return geom::set_diameter(current_configuration());
}

bool Engine::diameter_at_most(double epsilon) const {
  // One pass over the positions current_configuration() evaluates; the
  // bounding box decides unless its sides sit in the band around epsilon.
  if (config_.snapshot_path != SnapshotPath::kScan) {
    DiameterCut cut(epsilon);
    const Time t = end_time_ + 1.0;
    for (RobotId r = 0; r < trace_.robot_count(); ++r) cut.add(kin_.position_at(r, t));
    if (const std::optional<bool> decided = cut.decided()) return *decided;
  }
  return current_diameter() <= epsilon;
}

}  // namespace cohesion::core
