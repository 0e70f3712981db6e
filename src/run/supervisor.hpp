// Fault-tolerant sweep supervision on one host: cohesion_launch's front
// over cohesion_serve's scheduling brain. Supervisor::run() submits the
// resolved spec to an in-process serve::JobTable — which owns leases,
// seeded backoff, poisoning, the attempt-supersedes fold and the degraded
// document — registers min(shards, variants) local worker slots, so the
// partition width stays `shards` whenever shards <= variants, and runs
// each leased shard as one run/runner_process runner. Contract 9 is
// contract 13 with a fixed local worker set: the report is byte-identical
// to the single-process `--no-timing` report, or the explicit
// "cohesion-supervised-partial/1" document naming what is not covered.
//
// Each poll ticks the lease clock, then per busy slot reaps a finished
// runner (classify, then complete/fail with its journal's outcomes) or
// heartbeats it; a refused heartbeat means the lease expired, so the
// runner is SIGKILLed and its outcomes folded. Idle slots then request
// leases, at most max_parallel at a time. FaultPlan sabotages a (shard,
// launch number) from the same loop — the matrix driven by
// tests/run/launch_e2e_test.cpp and the fault_sweep bench stage. Runner
// files live in the work dir as shard_<i>.{ckpt,partial.json,log}, the
// manual-recovery interface of docs/operations.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/json.hpp"
#include "run/runner_process.hpp"

namespace cohesion::run {

/// Exponential backoff with seeded jitter. backoff_seconds is a pure
/// function of (shard, attempt) — serve::JobTable passes the variant as the
/// shard — so schedules are deterministic, testable and reproducible
/// across restarts, while still de-synchronizing shards that died
/// together (jitter differs per shard).
struct RetryPolicy {
  std::size_t max_attempts = 3;    ///< total launches per shard/variant (>= 1)
  double base_delay_seconds = 0.25;///< backoff before the 2nd attempt
  double multiplier = 2.0;         ///< growth per further attempt
  double max_delay_seconds = 30.0; ///< cap before jitter
  double jitter = 0.5;             ///< adds up to this fraction on top
  std::uint64_t jitter_seed = 0x636f686573696f6eull;

  /// Delay before relaunching `shard` after it has died `failed_attempts`
  /// times (>= 1): min(max, base * multiplier^(failed_attempts-1)) *
  /// (1 + jitter * u) with u in [0,1) drawn by splitmix64 from
  /// (jitter_seed, shard, failed_attempts).
  [[nodiscard]] double backoff_seconds(std::size_t shard, std::size_t failed_attempts) const;
};

/// Lease/heartbeat timing. The journal poll is the supervisor's clock.
struct LeaseConfig {
  double timeout_seconds = 15.0;        ///< no journal growth for this long = dead
  double poll_interval_seconds = 0.05;  ///< reap/heartbeat/fault poll cadence
  double status_interval_seconds = 2.0; ///< partial-aggregate stream cadence
};

/// One injected fault: sabotage `shard`'s launch number `attempt` once its
/// journal holds `after_lines` completed-outcome lines.
struct FaultPlan {
  enum class Kind {
    kill,    ///< SIGKILL — a crash/OOM stand-in
    stall,   ///< SIGSTOP — heartbeats stop but the process lives; the
             ///< lease must expire before the supervisor recovers
    corrupt, ///< SIGKILL, then append a torn (newline-free) garbage tail
             ///< to the journal — resume must drop + truncate it
  };
  Kind kind = Kind::kill;
  std::size_t shard = 0;
  std::size_t attempt = 1;      ///< 1-based launch number to sabotage
  std::size_t after_lines = 0;  ///< outcome lines that arm the fault

  /// Parse the CLI form "kind:shard=J[,attempt=A][,after=K]", e.g.
  /// "kill:shard=1,after=3" or "stall:shard=0,attempt=2". Throws
  /// std::runtime_error naming the bad token otherwise.
  static FaultPlan parse(const std::string& text);
  [[nodiscard]] std::string describe() const;
};

/// Where one shard ended up, for reports and tests.
struct ShardStatus {
  enum class State { done, failed };
  State state = State::failed;    ///< done: every variant of the shard covered
  std::size_t attempts = 0;       ///< launches
  std::size_t journal_lines = 0;  ///< completed-outcome lines last observed
  std::string last_failure;       ///< most recent death, human-readable
};

struct SupervisorOptions {
  std::string runner;          ///< cohesion_run binary (default: sibling of this process)
  std::string spec_path;       ///< experiment spec file, passed through to workers
  std::size_t shards = 1;      ///< N in --shard i/N; clamped to the variant count
  std::size_t worker_threads = 1;  ///< --threads per worker
  std::size_t max_parallel = 0;    ///< concurrently running workers; 0 = all
  std::size_t throttle_ms = 0;     ///< forwarded as --throttle-ms (fault harness pacing)
  std::string work_dir = "cohesion_launch.work";  ///< journals, partials, worker logs
  RetryPolicy retry;
  LeaseConfig lease;
  std::vector<FaultPlan> faults;
  /// Progress/event sink (one line per call, no trailing newline). The CLI
  /// points this at stderr; default drops events.
  std::function<void(const std::string&)> on_event;
};

struct SupervisorResult {
  bool complete = false;   ///< every shard covered; `report` is the merged report
  Json report;             ///< single-process report, or the supervised-partial doc
  std::vector<ShardStatus> shards;  ///< one per shard of the (clamped) partition
  std::size_t total_runs = 0;
  std::size_t covered_runs = 0;  ///< outcomes present in `report`
  int exit_code = 1;             ///< suggested process exit (run/exit_codes.hpp)
};

/// The attempt-supersedes rule for one grid index: fold `incoming` into
/// `kept`, an outcome for the same index.
///   * two *completed* outcomes (no `error`) must be byte-identical
///     (outcomes are deterministic — a difference means the attempts ran
///     different specs or the engine is nondeterministic): `conflict`;
///   * a completed outcome supersedes an errored one in either direction
///     (the error was environmental; the completed result is the run's one
///     true outcome); between two errored outcomes the later one wins.
/// Callers decide what a conflict costs: merge_attempt_outcomes throws,
/// serve::JobTable fails the job.
enum class FoldResult { kept, replaced, conflict };
FoldResult fold_attempt_outcome(RunOutcome& kept, const RunOutcome& incoming);

/// Collapse per-attempt outcome lists for one shard into exactly one
/// outcome per grid index by fold_attempt_outcome; an index only one
/// attempt produced keeps that outcome, and a conflict throws
/// std::runtime_error naming the index. Returns outcomes sorted by grid
/// index.
std::vector<RunOutcome> merge_attempt_outcomes(
    const std::vector<std::vector<RunOutcome>>& attempts);

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);

  /// Run the whole supervised sweep to a terminal state. Blocking; returns
  /// rather than throws for everything attributable to runners (their
  /// failures land in the result). Throws only for supervisor-level
  /// misuse: shards == 0, max_attempts == 0, a runner that is not
  /// executable, an invalid spec or an un-creatable work dir
  /// (std::runtime_error), or an unreadable spec (TransientError).
  [[nodiscard]] SupervisorResult run();

 private:
  SupervisorOptions options_;
};

}  // namespace cohesion::run
