// Append-only JSONL checkpoint journal for resumable batches.
//
// File format (one JSON document per '\n'-terminated line):
//
//   line 1   header: {"format": "cohesion-checkpoint/1",
//                     "fingerprint": "<16 hex chars>", "total_runs": N}
//   line 2+  one completed RunOutcome per line (deterministic fields only,
//            i.e. RunOutcome::to_json()); lines appear in *completion*
//            order, which is racy across worker threads — each line carries
//            its global grid index, so the order never matters.
//
// The fingerprint is a 64-bit FNV-1a hash over the dynamics version
// (run::kDynamicsVersion), every expanded run's (index, resolved RunSpec)
// and the early-stop rule, so a checkpoint is bound to the exact grid —
// including derived seeds and any --shard selection — and to the code's
// seeded dynamics that produced it. Resuming against a different spec,
// shard, early-stop rule or dynamics version fails with an error that says
// so, instead of silently mixing incompatible outcomes.
//
// The file discipline — single-write O_APPEND lines, fsync cadence, torn
// tail dropped and truncated on resume, corruption refused by name — is
// run/line_log's; this file is the schema over it.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/line_log.hpp"
#include "run/spec.hpp"

namespace cohesion::run {

/// Hex fingerprint binding a checkpoint to an exact expanded run list +
/// early-stop rule (see file header). Pure function of its arguments.
std::string runs_fingerprint(const std::vector<ExpandedRun>& runs, const EarlyStop& early_stop);

/// Writer/loader for the JSONL journal. Thread-safe appends; one instance
/// per batch. Construction opens (and truncates or validates) the file;
/// destruction fsyncs and closes it.
class CheckpointJournal {
 public:
  struct Loaded {
    std::vector<RunOutcome> outcomes;   ///< complete outcomes found on disk
    std::size_t dropped_tail_bytes = 0; ///< torn final line removed, if any
  };

  /// Start a fresh journal at `path` (an existing file is overwritten).
  /// Throws TransientError when the header cannot be written or fsync'd.
  static std::unique_ptr<CheckpointJournal> create(const std::string& path,
                                                   const std::string& fingerprint,
                                                   std::size_t total_runs,
                                                   std::size_t fsync_every);

  /// Resume: validate an existing journal against (fingerprint, total_runs),
  /// return its completed outcomes via `loaded`, truncate any torn tail, and
  /// open for appending. A missing file or a torn header degrades to
  /// create() — resuming a run that never started is just starting it.
  /// Throws std::runtime_error with an actionable message, leaving the file
  /// untouched, on a foreign file, a malformed header/body or a
  /// fingerprint/total mismatch (stale checkpoint).
  static std::unique_ptr<CheckpointJournal> resume(const std::string& path,
                                                   const std::string& fingerprint,
                                                   std::size_t total_runs,
                                                   std::size_t fsync_every, Loaded& loaded);

  /// Append one completed outcome as a single atomic line write; fsyncs
  /// every `fsync_every` appends (0: only on close). Never throws — it is
  /// called from worker threads, where an escaping exception would
  /// std::terminate the process. A write or fsync failure (disk full,
  /// quota, ...) instead latches error() and turns further appends into
  /// no-ops; the batch itself finishes, and the caller surfaces the error
  /// afterwards.
  void append(const RunOutcome& outcome) noexcept;

  /// First append failure, or empty when the journal is healthy. Check
  /// after the batch: a non-empty value means the file on disk is
  /// incomplete (resuming from it is still safe — missing runs re-run).
  [[nodiscard]] std::string error() const;

 private:
  explicit CheckpointJournal(LineLog log) : log_(std::move(log)) {}

  LineLog log_;        ///< guarded by mutex_
  std::string error_;  ///< first append failure; latched, guarded by mutex_
  mutable std::mutex mutex_;
};

}  // namespace cohesion::run
