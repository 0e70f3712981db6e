// The daemon's brain, factored out of all socket/process concerns so every
// scheduling decision is unit-testable with an injected clock: jobs,
// workers, shard leases, elastic re-partitioning and retry/poisoning are
// pure state transitions on this table. The daemon loop (serve/daemon)
// moves messages between it and the wire; run/supervisor (cohesion_launch)
// drives it in-process with a fixed set of local worker slots.
//
// Scheduling model:
//
//   * A job is one ExperimentSpec. Work is partitioned over variants by
//     `variant % N` (exactly ExperimentSpec::expand_shard) where N is the
//     job's *current* partition width — chosen as min(connected workers,
//     variant count) and changed elastically when workers join or die.
//     Global grid indices and derived seeds never depend on N, so
//     outcomes collected under different widths merge exactly
//     (run::fold_attempt_outcome, attempt-supersedes) — that is what makes
//     re-partitioning safe (contract 13).
//   * A lease binds (job, shard, N) to a worker. The heartbeat is the
//     worker's checkpoint-journal growth, relayed as (bytes, lines) plus
//     the newly journaled outcomes; a lease whose journal stops growing
//     for lease_timeout_seconds is expired by tick() — wedged == dead.
//     Expired/failed leases put their uncovered variants under RetryPolicy
//     seeded backoff; a variant that exhausts max_attempts is poisoned.
//   * Re-partitioning revokes outstanding leases *gracefully*: the lease
//     id moves to a revoked set, the worker learns on its next heartbeat,
//     SIGTERMs its runner (journal flushes) and returns every journaled
//     outcome via release — no attempt penalty, nothing lost. Outcomes
//     from revoked/stale leases are still folded in: work is never
//     discarded, only deduplicated.
//   * Terminal states. done: every grid index has an outcome — the report
//     is BatchRunner::report_json_from(echo, outcomes), byte-identical to
//     the single-process `--no-timing` report. failed: no outstanding
//     leases and every uncovered variant poisoned (or a determinism
//     conflict was detected) — the report degrades to a
//     "cohesion-supervised-partial/1" document naming the uncovered
//     variants/shards, never a silent wrong answer.
//
// Time is a double (seconds, any monotonic origin) passed into every
// mutator; the table never reads a clock. Mutators report side effects
// via Effects so the daemon can ledger fresh outcomes and terminal
// transitions without re-deriving them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/json.hpp"
#include "run/spec.hpp"
#include "run/supervisor.hpp"

namespace cohesion::serve {

using Json = run::Json;
using JsonArray = run::JsonArray;

inline constexpr const char* kSupervisedPartialFormat = "cohesion-supervised-partial/1";

struct ServeConfig {
  run::RetryPolicy retry;             ///< per-variant attempt budget + backoff
  double lease_timeout_seconds = 15.0;///< journal silence that kills a lease
};

/// What request_lease hands a worker (the daemon serializes this).
struct Lease {
  std::uint64_t id = 0;
  std::uint64_t job = 0;
  std::size_t shard = 0;   ///< i in --shard i/N
  std::size_t of = 1;      ///< N — the job's partition width at grant time
  double deadline_seconds = 15.0;  ///< lease timeout, for worker pacing
  Json spec;               ///< the job's experiment echo (worker writes it to disk)
};

/// Side effects of one mutation, for the daemon to act on (ledger writes,
/// log lines). `fresh` holds only outcomes not previously known.
struct Effects {
  std::vector<std::pair<std::uint64_t, run::RunOutcome>> fresh;
  std::vector<std::uint64_t> done_jobs;
  std::vector<std::uint64_t> failed_jobs;
  std::vector<std::string> notes;
};

class JobTable {
 public:
  explicit JobTable(ServeConfig config);

  /// Submit: parse + validate the experiment echo, assign the next job id.
  /// The stored echo is ExperimentSpec::from_json(echo).to_json() — the
  /// exact bytes a single-process report would carry (the JSON round trip
  /// is exact). Throws std::runtime_error on an invalid spec.
  std::uint64_t add_job(const std::string& name, const Json& experiment_echo, double now,
                        Effects& effects);

  /// Ledger replay (daemon restart): re-create a job under its original
  /// id, re-fold a journaled outcome, or restore a terminal state.
  void replay_job(std::uint64_t id, const std::string& name, const Json& experiment_echo);
  void replay_outcome(std::uint64_t job, const run::RunOutcome& outcome);
  void replay_terminal(std::uint64_t job, bool failed);

  std::uint64_t worker_joined(const std::string& name);
  /// Connection gone (crash, SIGKILL, network): the worker's leases are
  /// transient failures (attempt++ & backoff on uncovered variants), and
  /// jobs re-partition to the new worker count.
  void worker_left(std::uint64_t worker, double now, Effects& effects);

  /// Hand the calling worker a shard, re-partitioning first when the
  /// worker count has outgrown/shrunk the current width and that unlocks
  /// work. std::nullopt: nothing leasable right now (poll again).
  std::optional<Lease> request_lease(std::uint64_t worker, double now, Effects& effects);

  /// Journal-growth heartbeat + streamed fresh outcomes. Returns false
  /// when the lease is revoked/unknown — the worker must stop its runner
  /// and release. Outcomes are folded in either way.
  bool heartbeat(std::uint64_t lease_id, std::size_t journal_bytes, std::size_t journal_lines,
                 const std::vector<run::RunOutcome>& outcomes, double now, Effects& effects);

  /// Runner exited with a usable partial covering its shard.
  void complete(std::uint64_t lease_id, const std::vector<run::RunOutcome>& outcomes,
                double now, Effects& effects);
  /// Runner died without a usable partial. Retryable exit codes
  /// (run::exit_code_retryable) cost one attempt; permanent ones poison
  /// the shard's uncovered variants outright.
  void fail(std::uint64_t lease_id, int exit_code, const std::string& reason,
            const std::vector<run::RunOutcome>& outcomes, double now, Effects& effects);
  /// Graceful hand-back (revocation ack, worker shutdown): outcomes
  /// folded, no attempt penalty.
  void release(std::uint64_t lease_id, const std::vector<run::RunOutcome>& outcomes,
               double now, Effects& effects);

  /// Clock tick: expire leases whose journal has been silent past the
  /// timeout (attempt++ & backoff, lease revoked).
  void tick(double now, Effects& effects);

  [[nodiscard]] bool job_exists(std::uint64_t job) const;
  [[nodiscard]] bool job_done(std::uint64_t job) const;
  [[nodiscard]] bool job_failed(std::uint64_t job) const;
  [[nodiscard]] bool job_terminal(std::uint64_t job) const {
    return job_done(job) || job_failed(job);
  }
  /// Suggested process exit for a terminal job: 0 (done, no run errors),
  /// 1 (done with run errors, or failed).
  [[nodiscard]] int job_exit_code(std::uint64_t job) const;

  /// done → the byte-identical single-process `--no-timing` report;
  /// failed → the cohesion-supervised-partial/1 document. Throws while
  /// the job is still running.
  [[nodiscard]] Json job_report(std::uint64_t job) const;

  /// Streaming view for `--status` and progress logs: per-job state,
  /// coverage, partition width, active leases, partial aggregate.
  [[nodiscard]] Json status_json() const;

  [[nodiscard]] std::size_t active_workers() const { return workers_.size(); }

 private:
  struct LeaseState {
    std::uint64_t job = 0;
    std::size_t shard = 0;
    std::size_t of = 1;
    std::uint64_t worker = 0;
    double last_progress = 0.0;
    std::size_t journal_bytes = 0;
    std::size_t journal_lines = 0;
  };

  struct JobState {
    std::uint64_t id = 0;
    std::string name;
    Json echo;
    std::size_t total_runs = 0;
    std::size_t variants = 0;
    std::size_t repeats = 1;
    std::map<std::size_t, run::RunOutcome> outcomes;  ///< by global grid index
    std::vector<std::size_t> attempts;  ///< per-variant failed attempts
    std::vector<double> retry_at;       ///< per-variant earliest re-lease time
    std::size_t partition = 1;          ///< current N
    std::set<std::size_t> leased_shards;
    bool done = false;
    bool failed = false;
    std::string merge_error;  ///< determinism conflict, when one killed the job
    std::string last_failure;
  };

  JobState& job_or_throw(std::uint64_t job);
  const JobState& job_or_throw(std::uint64_t job) const;
  [[nodiscard]] bool variant_covered(const JobState& j, std::size_t v) const;
  [[nodiscard]] bool variant_poisoned(const JobState& j, std::size_t v) const;
  [[nodiscard]] std::size_t desired_partition(const JobState& j) const;
  /// Fold outcomes in by run::fold_attempt_outcome. A byte-level conflict
  /// between two completed outcomes fails the job, naming the index.
  void record_outcomes(JobState& j, const std::vector<run::RunOutcome>& outcomes,
                       Effects& effects);
  /// Late data for a revoked lease: still folded in.
  void fold_late(std::uint64_t lease_id, const std::vector<run::RunOutcome>& outcomes,
                 Effects& effects);
  /// End an active lease and fold `outcomes`; nullopt (after fold_late) if
  /// the lease was not active.
  std::optional<LeaseState> end_lease(std::uint64_t lease_id,
                                      const std::vector<run::RunOutcome>& outcomes,
                                      Effects& effects);
  void penalize_shard(JobState& j, std::size_t shard, std::size_t of, bool poison,
                      double now, Effects& effects);
  void repartition(JobState& j, std::size_t new_n, Effects& effects);
  void check_terminal(JobState& j, Effects& effects);
  [[nodiscard]] std::size_t active_lease_count(std::uint64_t job) const;
  std::optional<Lease> try_lease_job(JobState& j, std::uint64_t worker, double now,
                                     Effects& effects);

  ServeConfig config_;
  std::map<std::uint64_t, JobState> jobs_;
  std::map<std::uint64_t, LeaseState> leases_;          ///< active, by lease id
  std::map<std::uint64_t, std::uint64_t> revoked_;      ///< lease id → job (late data still folds)
  std::map<std::uint64_t, std::string> workers_;        ///< worker id → name
  std::uint64_t next_job_ = 1;
  std::uint64_t next_lease_ = 1;
  std::uint64_t next_worker_ = 1;
};

}  // namespace cohesion::serve
