// Single-pass convergence analysis: the same ConvergenceReport analyze()
// computes from a materialized Trace, folded from a forward stream of
// ActivationRecords in bounded memory.
//
// The hard part is that a round boundary T (the paper's rate unit) is only
// *discovered* when the round's last robot completes its cycle — but T is
// the max move-end of the counted cycles, so records arriving after the
// discovery can still have Look times <= T and move robots at T. The
// accumulator therefore keeps each discovered boundary as a *pending
// sample*: an O(n) positions-at-T vector updated by late records, finalized
// (diameter / cohesion-stretch folded into the report) only once a record
// with t_look > T + 1e-12 proves — via the engine's look-ordering contract,
// which admits Looks at most 1e-12 before the frontier — that no future
// record can reach back to T. Finalization order is discovery order, so
// sample indices (and thus rounds_to_halve) match the batch path exactly.
//
// Positions at a pending T are evaluated from each robot's current or
// previous trajectory segment (the same retention trick as
// KinematicState::position_bounded). A robot would escape that window only
// by completing two full activity cycles within the 1e-12 slack; the
// accumulator rejects that loudly rather than silently diverging from the
// reference. Every per-sample position is core::Segment::at, the function
// Trace::position evaluates too, so the resulting report is bit-identical
// to a rescan of the materialized trace (the test oracle in
// tests/metrics/analyze_oracle.hpp).
//
// The cohesion stretch is measured over the pairs visible in the initial
// configuration — a set fixed at t = 0 — so the accumulator builds that
// pair list (core::VisiblePairs) once and scans it in O(E) per sample; it
// keeps no copy of the initial configuration itself.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "core/activation.hpp"
#include "core/types.hpp"
#include "core/visibility.hpp"
#include "geometry/vec2.hpp"
#include "metrics/stats.hpp"

namespace cohesion::metrics {

class ConvergenceAccumulator {
 public:
  /// `v` is the visibility radius (cohesion stretch unit), `epsilon` the
  /// convergence threshold — the same parameters analyze() takes.
  /// `track_min_pairwise` additionally folds the grid-accelerated minimum
  /// pairwise distance at every sample window (the collision indicator of
  /// configuration_stats); off by default so analyze() costs what the
  /// rescan path cost.
  /// Throws std::invalid_argument for more than UINT32_MAX robots (the
  /// pair list's id width).
  ConvergenceAccumulator(const std::vector<geom::Vec2>& initial, double v, double epsilon,
                         bool track_min_pairwise = false);

  /// Fold one committed activation. Records must arrive in the engine's
  /// commit order (non-decreasing Look times up to the 1e-12 slack).
  void add(const core::ActivationRecord& rec);

  /// Finalize remaining samples plus the end-of-run sample and return the
  /// report. Call once, after the last add(); it frees the per-robot fold
  /// state, so a later add() throws. The accessors below stay valid.
  [[nodiscard]] ConvergenceReport finish();

  [[nodiscard]] std::size_t robot_count() const { return n_; }
  [[nodiscard]] std::size_t activations() const { return activations_; }
  [[nodiscard]] core::Time end_time() const { return end_time_; }
  /// Completed activations per robot, maintained as records fold in.
  [[nodiscard]] const std::vector<std::size_t>& per_robot_activations() const {
    return per_robot_activations_;
  }
  /// Index of the first finalized sample whose diameter was <= epsilon
  /// (the convergence-epsilon window), if any yet.
  [[nodiscard]] std::optional<std::size_t> first_converged_sample() const {
    return first_converged_sample_;
  }
  /// Min over finalized sample windows of the configuration's minimum
  /// pairwise distance (metrics::min_pairwise_distance, grid-accelerated).
  /// Requires track_min_pairwise; 0 before any sample finalized.
  [[nodiscard]] double windowed_min_pairwise() const { return windowed_min_pairwise_; }

 private:
  struct PendingSample {
    core::Time t = 0.0;
    std::vector<geom::Vec2> positions;  // configuration at t so far
  };

  [[nodiscard]] geom::Vec2 position_at(core::RobotId robot, core::Time t) const;
  void open_sample(core::Time t);
  void finalize_front();
  /// Fold one sample into the report; returns its diameter.
  double fold_sample(const std::vector<geom::Vec2>& cfg);

  std::size_t n_;
  core::VisiblePairs initial_pairs_;  // E(0), the pairs cohesion must keep
  double epsilon_;

  // Last two trajectory segments per robot (current + previous), the
  // bounded history every pending sample draws from.
  std::vector<core::TimedSegment> cur_;
  std::vector<core::TimedSegment> prev_;

  // Round-boundary state machine, mirroring Trace::round_boundaries.
  std::vector<bool> done_;
  std::size_t remaining_ = 0;
  core::Time round_end_ = 0.0;
  core::Time last_bound_ = 0.0;

  std::deque<PendingSample> pending_;  // discovery order == time order

  // Report fields folded as samples finalize.
  std::size_t sample_index_ = 0;
  std::size_t rounds_ = 0;
  std::size_t rounds_to_halve_ = 0;
  double initial_diameter_ = 0.0;
  double worst_stretch_ = 0.0;
  bool cohesive_ = true;
  std::size_t activations_ = 0;
  core::Time end_time_ = 0.0;
  std::vector<std::size_t> per_robot_activations_;
  std::optional<std::size_t> first_converged_sample_;
  bool track_min_pairwise_ = false;
  double windowed_min_pairwise_ = 0.0;
  bool any_sample_folded_ = false;
  bool finished_ = false;
};

}  // namespace cohesion::metrics
