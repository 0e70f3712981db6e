#include "adversary/spiral.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "algo/lens_midpoint.hpp"
#include "core/engine.hpp"
#include "core/validators.hpp"
#include "core/visibility.hpp"
#include "geometry/angles.hpp"

namespace cohesion::adversary {

using core::Activation;
using core::RobotId;
using core::SimulationView;
using geom::Vec2;

SliverFlatteningScheduler::SliverFlatteningScheduler(std::size_t robot_count, Params params)
    : n_(robot_count), params_(params) {}

std::optional<Activation> SliverFlatteningScheduler::next(const SimulationView& view) {
  if (done_) return std::nullopt;
  if (issued_ >= params_.max_activations) {
    exhausted_ = true;
    done_ = true;
    return std::nullopt;
  }

  if (!a_committed_) {
    // X_A (robot 0): Look now, Move in the far future. Everything else nests
    // inside this interval.
    a_committed_ = true;
    ++issued_;
    Activation a;
    a.robot = 0;
    a.t_look = 0.0;
    a.t_move_start = params_.far_future;
    a.t_move_end = params_.far_future + 1.0;
    a.realized_fraction = 1.0;
    return a;
  }

  const std::size_t chain_len = n_ - params_.chain_begin;  // X_0 .. X_{chain_len-1}
  const double now = clock_;

  // Find, within the current stage's prefix, the robot with the largest
  // deviation from co-linearity with its chain neighbours; anchor of stage i
  // is P_i (original position, untouched so far).
  while (stage_ < chain_len) {
    RobotId best = core::kInvalidRobot;
    double best_dev = params_.colinearity_tolerance;
    for (std::size_t m = 0; m < stage_; ++m) {
      const RobotId j = params_.chain_begin + m;
      const RobotId prev = (m == 0) ? 0 : j - 1;  // X_0's predecessor is X_A
      const RobotId nxt = j + 1;
      const Vec2 pj = view.position(j, now);
      const Vec2 pp = view.position(prev, now);
      const Vec2 pn = view.position(nxt, now);
      // The victim only moves when it perceives exactly these two
      // neighbours; skip robots whose neighbourhood is off (visibility
      // drifted), rather than activating uselessly.
      if (pj.distance_to(pp) > params_.visibility || pj.distance_to(pn) > params_.visibility) {
        continue;
      }
      const double dev = geom::kPi - geom::interior_angle(pp, pj, pn);
      if (dev > best_dev) {
        best_dev = dev;
        best = j;
      }
    }
    if (best == core::kInvalidRobot) {
      ++stage_;  // stage flattened to tolerance; advance the anchor
      continue;
    }
    ++issued_;
    clock_ += 1.0;
    Activation a;
    a.robot = best;
    a.t_look = now;
    a.t_move_start = now + 0.25;
    a.t_move_end = now + 0.75;
    a.realized_fraction = 1.0;
    return a;
  }

  done_ = true;  // all stages flattened; X_A's pending move closes the run
  return std::nullopt;
}

SpiralExperimentResult run_spiral_experiment(double psi, double edge_scale,
                                             std::size_t max_activations) {
  SpiralExperimentResult result;
  result.psi = psi;
  result.edge_scale = edge_scale;

  const metrics::SpiralConfiguration cfg = metrics::spiral_configuration(psi, edge_scale);
  const std::vector<Vec2>& initial = cfg.positions;
  result.robot_count = initial.size();

  constexpr double kV = 1.0;
  result.initially_connected = core::VisibilityGraph(initial, kV).connected();

  const std::size_t chain_len = initial.size() - cfg.chain_begin;
  const double tolerance = psi / (2.0 * static_cast<double>(chain_len));

  const algo::LensMidpointAlgorithm victim({.colinearity_tolerance = tolerance});
  SliverFlatteningScheduler::Params sparams;
  sparams.chain_begin = cfg.chain_begin;
  sparams.visibility = kV;
  sparams.colinearity_tolerance = tolerance;
  sparams.max_activations = max_activations;
  SliverFlatteningScheduler scheduler(initial.size(), sparams);

  core::EngineConfig config;
  config.visibility.radius = kV;
  config.error.random_rotation = false;  // exact perception; see DESIGN.md §5
  core::Engine engine(initial, victim, scheduler, config);
  engine.run(max_activations + 2);

  const core::Trace& trace = engine.trace();
  result.activations = trace.records().size();

  const auto final_cfg = engine.current_configuration();
  const Vec2 a0 = initial[0];
  result.zeta = final_cfg[0].distance_to(a0);
  result.final_separation_ab = final_cfg[0].distance_to(final_cfg[cfg.chain_begin]);
  result.visibility_broken = result.final_separation_ab > kV + 1e-9;
  result.finally_connected = core::VisibilityGraph(final_cfg, kV).connected();

  // Drift is measured against A's ORIGINAL position: distances to A are the
  // paper's preserved quantity (§7.2.3); A itself only moves at the very end.
  for (std::size_t j = cfg.chain_begin; j < initial.size(); ++j) {
    const double drift = std::abs(final_cfg[j].distance_to(a0) - initial[j].distance_to(a0));
    result.max_chain_drift = std::max(result.max_chain_drift, drift);
  }

  result.schedule_nested = core::is_nested_activation(trace);
  // Nesting depth: activations of other robots whose Look falls strictly
  // inside one of X_A's intervals, in the validators' ε-shrunk window.
  std::vector<std::pair<core::Time, core::Time>> a_windows;
  for (const auto& rec : trace.records()) {
    if (rec.activation.robot == 0) {
      a_windows.emplace_back(rec.start() + core::kScheduleEps, rec.end() - core::kScheduleEps);
    }
  }
  std::size_t depth = 0;
  for (const auto& rec : trace.records()) {
    if (rec.activation.robot == 0) continue;
    const core::Time look = rec.start();
    for (const auto& [lo, hi] : a_windows) {
      if (look > lo && look < hi) {
        ++depth;
        break;
      }
    }
  }
  result.nesting_depth = depth;
  return result;
}

}  // namespace cohesion::adversary
