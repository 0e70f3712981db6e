// The runner protocol, in one place: how a scheduler launches
// `cohesion_run` for one shard, watches it through its checkpoint journal,
// stops it, and decides what its exit means. Both schedulers use it —
// run/supervisor (cohesion_launch) and serve/worker (cohesion_serve) — so
// the two cannot drift. The journal is the heartbeat: every completed run
// appends one line, so (bytes, lines) growth is progress.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"

namespace cohesion::run {

/// The cohesion_run binary next to the current executable — the right
/// default for the CLIs and the test binary, which live in the same build
/// tree as their runners.
[[nodiscard]] std::string sibling_runner();

/// Cheap heartbeat read: journal size and complete-line count, no parsing.
struct JournalStat {
  std::size_t bytes = 0;
  std::size_t outcome_lines = 0;  ///< complete lines minus the header
};
[[nodiscard]] JournalStat stat_journal(const std::string& path);

/// Read every complete outcome line of a checkpoint journal (header
/// skipped, torn tail ignored) without validating fingerprints — the
/// scheduler's heartbeat/partial-aggregate view of a runner's progress.
/// Returns false when the file is missing/empty. Unparseable complete
/// lines are skipped (a live runner may be mid-write of weird state; the
/// authoritative read is the runner's own resume).
bool read_journal_outcomes(const std::string& path, std::vector<RunOutcome>& outcomes);

/// Incremental heartbeat view of one journal: stat on every poll, re-parse
/// only when the file changed, hand out each outcome once.
class JournalWatch {
 public:
  explicit JournalWatch(std::string path) : path_(std::move(path)) {}
  /// Stat the journal into `stat`; returns the outcomes not handed out by
  /// earlier calls (all of them again if the file shrank — a rewrite).
  std::vector<RunOutcome> poll(JournalStat& stat);

 private:
  std::string path_;
  std::size_t bytes_ = 0;
  std::size_t sent_ = 0;
};

/// One shard invocation of the runner.
struct RunnerCommand {
  std::string runner;     ///< cohesion_run binary
  std::string spec_path;
  std::size_t shard = 0;  ///< i in --shard i/N
  std::size_t of = 1;     ///< N
  std::string stem;       ///< path prefix of the .ckpt/.partial.json/.log triple
  std::size_t threads = 1;
  std::size_t throttle_ms = 0;  ///< fault-harness pacing; 0 = off

  [[nodiscard]] std::string journal_path() const { return stem + ".ckpt"; }
  [[nodiscard]] std::string partial_path() const { return stem + ".partial.json"; }
};

/// What a finished runner means for its shard.
struct RunnerExit {
  enum class Kind { covered, transient, permanent };
  Kind kind = Kind::transient;
  /// Exit code to report for retry decisions (exit_code_retryable agrees
  /// with `kind`): the runner's own code, or kExitTransient for a signal
  /// death or an exit 0 that left no usable partial.
  int exit_code = 0;
  std::string reason;  ///< "exit code 3", "killed by signal 9", ...
};

/// The one exit classifier. `wait_status` is a waitpid status.
///   * A usable partial report for this (shard, of) covers the shard at any
///     exit code — including exit 1 from in-run errors, which the merged
///     report carries exactly like a single process would.
///   * Exit 0 without one is transient (the partial write was lost).
///   * Any other exit follows exit_code_retryable.
///   * A signal death is transient.
/// A partial for another shard, or for another partition width, does not
/// cover.
[[nodiscard]] RunnerExit classify_runner_exit(int wait_status, const std::string& partial_path,
                                              std::size_t shard, std::size_t of);

/// A launched runner. The destructor SIGKILLs and reaps a runner that is
/// still alive, so no child outlives its owner.
class RunnerProcess {
 public:
  /// Delete any stale partial (a partial left by an earlier attempt must
  /// never pass for coverage), then fork/exec `runner spec --shard i/N
  /// --resume <stem>.ckpt --out <stem>.partial.json --threads T
  /// [--throttle-ms M]` with stdout+stderr appended to <stem>.log. A fork
  /// failure is a runner that died at once: poll() reports it as transient.
  explicit RunnerProcess(RunnerCommand command);
  RunnerProcess(const RunnerProcess&) = delete;
  RunnerProcess& operator=(const RunnerProcess&) = delete;
  ~RunnerProcess();

  [[nodiscard]] const RunnerCommand& command() const { return command_; }
  [[nodiscard]] ::pid_t pid() const { return pid_; }

  /// Journal growth since the last call (JournalWatch::poll).
  std::vector<RunOutcome> heartbeat(JournalStat& stat) { return journal_.poll(stat); }
  /// Non-blocking reap: the classified exit once the runner has ended.
  std::optional<RunnerExit> poll();
  /// Deliver `sig` without reaping (fault injection: SIGKILL, SIGSTOP).
  void signal(int sig) const;
  /// SIGKILL and reap; safe on wedged and SIGSTOPped runners alike.
  RunnerExit kill();
  /// Graceful stop: SIGTERM, then SIGCONT — a stopped process acts on
  /// SIGTERM only once continued — then reap. A healthy or stopped runner
  /// flushes its journal and exits kExitInterrupted.
  RunnerExit stop();

 private:
  RunnerExit wait_and_classify();

  RunnerCommand command_;
  JournalWatch journal_;
  ::pid_t pid_ = -1;
  std::optional<RunnerExit> launch_failure_;  ///< fork failed; poll() reports it
};

}  // namespace cohesion::run
