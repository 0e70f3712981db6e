// The continuous-time Look-Compute-Move simulation engine.
//
// Activations are committed in non-decreasing Look-time order. Because a
// robot's trajectory is fixed at commit time (Compute uses only the
// snapshot; OBLOT robots are oblivious), any later Look can evaluate every
// robot's exact position by piecewise-linear interpolation — which yields
// the Async semantics of the paper: a Look may catch another robot anywhere
// along its current trajectory.
//
// Positions live in two tiers:
//
//  * Trace — the append-only full history. Replay, validators, metrics and
//    serialization consume it; reconstructing a position from it costs a
//    binary search over the robot's activation history.
//  * KinematicState — each robot's *current* trajectory segment, updated on
//    commit. Since commits arrive in non-decreasing Look order, every
//    position the hot path needs (at or after the latest segment's Look) is
//    an O(1) interpolation of that segment, bit-identical to what the Trace
//    would reconstruct.
//
// Snapshots enumerate candidates from a uniform grid (cell side = the
// visibility radius) instead of scanning all n robots, and the grid's upkeep
// follows the paper's split between schedule classes (SnapshotPath):
//
//  * synchronous schedulers (FSync/SSync) put every Look of a round at one
//    instant, so a SpatialGrid rebuilt once per distinct Look time amortizes
//    over the whole round. A commit leaves every position at its own Look
//    time unchanged, except a zero-duration move — which drops the cached
//    grid (see Engine::step);
//  * asynchronous schedulers give every Look its own time, so an
//    IncrementalGrid keeps each robot's current segment in the cells it
//    overlaps, re-files the committing robot right after each commit, and
//    evaluates positions at the Look time inside its cell scan.
//
// run::instantiate derives the path from the scheduler key; it is not a
// spec field. The brute-force scan over the Trace is the third value, kept
// as the reference for equivalence tests and scaling benchmarks (and as the
// incremental path's fallback for Looks inside the scheduler's 1e-12
// backward slack). All paths apply the identical visibility predicate and
// draw RNG in the identical order, so they produce bit-identical traces.
#pragma once

#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "core/activation.hpp"
#include "core/algorithm.hpp"
#include "core/error_model.hpp"
#include "core/kinematics.hpp"
#include "core/scheduler.hpp"
#include "core/spatial_index.hpp"
#include "core/stop_condition.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::core {

/// Visibility semantics (paper §2.1 and §6.2).
struct VisibilityModel {
  double radius = 1.0;                  ///< common visibility range V
  std::vector<double> per_robot_radii;  ///< optional per-robot radii (§6.2)
  bool open_ball = false;               ///< strict < V instead of <= V
  bool multiplicity_detection = false;  ///< co-located robots distinguishable

  [[nodiscard]] double radius_of(RobotId r) const {
    return per_robot_radii.empty() ? radius : per_robot_radii.at(r);
  }
};

/// How the engine enumerates a Look's visible neighbors. All three are
/// bit-identical (docs/architecture.md, contract 3); they differ only in
/// cost.
enum class SnapshotPath {
  /// IncrementalGrid maintained per commit — asynchronous schedulers, whose
  /// Looks never share a time.
  kIncremental,
  /// SpatialGrid rebuilt once per distinct Look time — synchronous
  /// schedulers, where one rebuild serves a whole round.
  kRebuild,
  /// Brute-force scan over the Trace: the test and benchmark reference.
  kScan,
};

struct EngineConfig {
  VisibilityModel visibility;
  ErrorModel error;
  std::uint64_t seed = 1;
  /// run::instantiate picks kRebuild for synchronous scheduler keys and
  /// kIncremental for the rest; the default suits direct Engine users.
  SnapshotPath snapshot_path = SnapshotPath::kIncremental;
  /// Materialize the full activation history in the in-memory Trace. false
  /// selects the bounded-memory mode: the engine keeps only each robot's
  /// current + previous trajectory segment (O(robot count) state, not
  /// O(activation count)); history consumers attach through
  /// set_trace_sink() instead. Not available with SnapshotPath::kScan — the
  /// reference scan reads the Trace by construction.
  bool record_history = true;
};

/// Hook that lets an adversary replace the perceived snapshot of a given
/// robot wholesale (used by the Section-7 impossibility construction, which
/// chooses worst-case in-spec perception). Receives the robot, the look
/// time, and the honestly-perceived snapshot; returns the snapshot actually
/// delivered to the algorithm.
using PerceptionHook =
    std::function<Snapshot(RobotId, Time, const Snapshot&)>;

class Engine final : public SimulationView {
 public:
  Engine(std::vector<geom::Vec2> initial, const Algorithm& algorithm, Scheduler& scheduler,
         EngineConfig config = {});

  // SimulationView:
  [[nodiscard]] std::size_t robot_count() const override { return trace_.robot_count(); }
  [[nodiscard]] Time busy_until(RobotId robot) const override { return busy_until_.at(robot); }
  [[nodiscard]] Time frontier() const override { return frontier_; }
  [[nodiscard]] geom::Vec2 position(RobotId robot, Time t) const override;
  [[nodiscard]] std::size_t activations_of(RobotId robot) const override {
    return activation_counts_.at(robot);
  }

  /// Execute one activation. Returns false iff the scheduler ended the run.
  bool step();

  /// Run until `max_activations` have been committed or the scheduler ends.
  /// Returns the number of activations executed.
  std::size_t run(std::size_t max_activations);

  /// Run until `stop` fires (diameter <= epsilon, predicate true, or budget
  /// exhausted) or the scheduler ends. Returns true iff the final diameter
  /// is <= stop.epsilon.
  bool run_until(const StopCondition& stop);

  /// Convenience overload of run_until for the common diameter-only rule.
  bool run_until_converged(double epsilon, std::size_t max_activations,
                           std::size_t check_every = 64);

  /// Mark a robot crashed (fail-stop, §6.1): from now on its activations
  /// perform the nil movement.
  void crash(RobotId robot) { crashed_.at(robot) = true; }

  /// The materialized history. With record_history = false this holds only
  /// the initial configuration (no records) — consume the sink instead.
  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] std::vector<geom::Vec2> current_configuration() const;
  [[nodiscard]] double current_diameter() const;
  /// current_diameter() <= epsilon, the stop rule's test: decided from the
  /// bounding box in O(n) (DiameterCut), with the hull only inside
  /// its rounding band.
  [[nodiscard]] bool diameter_at_most(double epsilon) const;

  /// Time of the last committed move end (0 before any activation).
  /// Maintained by the engine itself, so it is exact in both history modes.
  [[nodiscard]] Time end_time() const { return end_time_; }

  /// Attach a sink that receives every subsequently-committed
  /// ActivationRecord (after the in-memory Trace, when that is recording).
  /// Non-owning; pass nullptr to detach. The engine never calls finish() —
  /// the owner does, once stepping is over.
  void set_trace_sink(TraceSink* sink) { sink_ = sink; }

  void set_perception_hook(PerceptionHook hook) { perception_hook_ = std::move(hook); }

 private:
  /// Replace `snap` with the honest snapshot of `robot` at time t.
  void honest_snapshot(RobotId robot, Time t, const LocalFrame& frame, Snapshot& snap);
  /// Visible-neighbor enumeration via grid cells (positions through the
  /// kinematic cache, grid rebuilt per distinct look time).
  void snapshot_via_grid(RobotId robot, Time t, const LocalFrame& frame, Snapshot& snap);
  /// Visible-neighbor enumeration via the incrementally-maintained grid:
  /// IncrementalGrid evaluates and filters the segments filed in the cells
  /// near the robot at the Look time, no per-Look-time rebuild.
  void snapshot_via_incremental(RobotId robot, Time t, const LocalFrame& frame, Snapshot& snap);
  /// Reference visible-neighbor enumeration: full scan over Trace positions.
  void snapshot_via_scan(RobotId robot, Time t, const LocalFrame& frame, Snapshot& snap);
  /// Collapse or flag co-located perceived robots (paper footnote 4).
  void resolve_multiplicity(Snapshot& snap);
  /// Ensure positions_now_/grid_ describe time `t`.
  void refresh_grid(Time t);
  /// Position from history for a query the kinematic cache's current
  /// segment cannot answer (t before the segment's Look): the Trace when
  /// recording, else the retained previous segment.
  [[nodiscard]] geom::Vec2 history_position(RobotId robot, Time t) const;

  const Algorithm& algorithm_;
  Scheduler& scheduler_;
  EngineConfig config_;
  Trace trace_;
  KinematicState kin_;
  std::vector<Time> busy_until_;
  std::vector<std::size_t> activation_counts_;
  std::vector<bool> crashed_;
  Time frontier_ = 0.0;
  Time end_time_ = 0.0;  // running max of committed t_move_end
  std::mt19937_64 rng_;
  TraceSink* sink_ = nullptr;
  PerceptionHook perception_hook_;

  std::vector<std::uint32_t> mult_order_;   // multiplicity sort scratch
  Snapshot snap_;                           // the current Look's snapshot

  // Rebuild path (SnapshotPath::kRebuild): every position at grid_time_.
  SpatialGrid grid_;
  std::vector<geom::Vec2> positions_now_;
  std::vector<std::size_t> neighbor_ids_;   // query scratch
  Time grid_time_ = 0.0;
  bool grid_valid_ = false;

  // Incremental path (SnapshotPath::kIncremental): segments filed per
  // commit, positions evaluated inside the index's cell scan.
  IncrementalGrid inc_grid_;
  std::vector<VisibleRobot> visible_;      // query scratch
  Time inc_time_ = 0.0;                   // last incremental query time
};

}  // namespace cohesion::core
