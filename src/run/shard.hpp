// Process-level sharding for multi-machine sweeps.
//
// The model: every process runs the *same* spec file with a different
// `--shard i/N` argument, writes a partial report, and a final
// `cohesion_merge` invocation combines the N partial reports into the
// exact report a single process would have produced (byte-identical to
// `cohesion_run spec.json --no-timing`). The pieces:
//
//   * ExperimentSpec::expand_shard(i, N) — the deterministic partition of
//     the grid (round-robin over variants; global indices and derived
//     seeds unchanged), declared in run/spec.hpp.
//   * partial_report_json — one shard's deterministic output: experiment
//     echo, shard coordinates, and the shard's outcomes under their
//     global grid indices. Never carries timing (wall numbers go to
//     stderr), so partials are diffable across machines.
//   * merge_partial_reports — validates that the partials belong to the
//     same experiment and jointly cover every grid position exactly once,
//     then reassembles the single-process report. Errors name the missing
//     or conflicting shard, not just "bad input".
//
// Format stability: partial reports carry a "format" marker
// ("cohesion-partial-report/1"); merge rejects anything else with an
// actionable message. Schema details: docs/operations.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/json.hpp"
#include "run/spec.hpp"

namespace cohesion::run {

/// The "format" marker of every partial report.
inline constexpr const char* kPartialReportFormat = "cohesion-partial-report/1";

/// One process's slice of a sweep: shard `index` of `count` (0-based).
struct Shard {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Parse the CLI form "i/N" (e.g. "0/3"). Throws std::runtime_error on
  /// anything else, including i >= N or N == 0.
  static Shard parse(const std::string& text);
};

/// Serialize one shard's result as a partial report (deterministic; no
/// timing block). `total_runs` is the size of the *whole* grid, i.e.
/// ExperimentSpec::expand().size(), which merge uses to prove coverage.
Json partial_report_json(const ExperimentSpec& experiment, const Shard& shard,
                         std::size_t total_runs, const std::vector<RunOutcome>& outcomes);

/// Combine all N partial reports of one sweep into the single-process
/// report (BatchRunner::report_json with include_timing=false, byte for
/// byte). Validates format markers, experiment-echo equality, shard-count
/// agreement, distinct shard indices, and exactly-once coverage of every
/// grid index; throws std::runtime_error naming the offending shard/index
/// otherwise. Order of `partials` does not matter.
Json merge_partial_reports(const std::vector<Json>& partials);

}  // namespace cohesion::run
