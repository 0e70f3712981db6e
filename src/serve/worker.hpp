// The cohesion_serve worker loop: turns any host with the binaries into a
// sweep-cluster member. One connection to the daemon, one leased shard at
// a time, each executed as `cohesion_run <spec> --shard i/N --resume
// <journal>` through run/runner_process — so every per-run guarantee
// (derived seeds, exact checkpoint resume, partial-report determinism) is
// the batch runner's own, not a reimplementation.
//
//   * Journals live in work_dir, keyed job<J>_s<I>of<N>.ckpt: re-leasing
//     the same (job, shard, N) to this worker resumes its own journal and
//     recomputes nothing. The worker relays journal growth (bytes, lines)
//     plus the newly journaled outcomes in each heartbeat — the daemon's
//     lease clock *and* its streamed partial aggregate in one message.
//   * A heartbeat answered valid=false means the lease is gone (revoked
//     by an elastic re-partition, or expired): stop the runner gracefully
//     (SIGTERM + SIGCONT, so even a SIGSTOPped one flushes its journal —
//     exit 4 contract), hand every journaled outcome back via "release",
//     and request fresh work.
//   * Runner exits go through run::classify_runner_exit, the rule
//     cohesion_launch uses too: a covered shard completes its lease, a
//     transient exit is re-leased under backoff, a permanent one poisons
//     the shard's variants.
//   * Connect failures — daemon not up yet, daemon restarting — retry
//     under exponential backoff up to connect_attempts, then exit 5
//     (run::kExitTransientNetwork): an outer supervisor (compose,
//     systemd) knows relaunching may fix it. A connection lost mid-lease
//     stops the runner and re-enters the same connect loop; the daemon
//     reclaims the lease via the dropped connection.
//   * SIGTERM/SIGINT (WorkerOptions::stop): stop the runner, wait for its
//     journal flush, release the lease, exit run::kExitInterrupted —
//     the same graceful-stop contract as cohesion_run.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

#include "serve/protocol.hpp"

namespace cohesion::serve {

struct WorkerOptions {
  Address address;
  std::string work_dir = "cohesion_worker.work";  ///< journals, spec files, runner logs
  std::string runner;      ///< cohesion_run binary; default: sibling of this executable
  std::string name;        ///< advertised in hello; default worker-<pid>
  std::size_t threads = 1;           ///< --threads per runner
  std::size_t throttle_ms = 0;       ///< forwarded as --throttle-ms (fault pacing)
  double heartbeat_interval_seconds = 0.5;
  double idle_poll_seconds = 0.25;   ///< re-request cadence when the daemon is idle
  std::size_t connect_attempts = 10; ///< connect tries before exit 5
  double connect_backoff_seconds = 0.25;  ///< doubled per retry, capped at 5s
  double io_timeout_seconds = 10.0;
  bool oneshot = false;  ///< exit 0 when the daemon has no work (tests/benches)
  const std::atomic<bool>* stop = nullptr;  ///< SIGTERM/SIGINT flag from the CLI
  std::function<void(const std::string&)> on_event;
};

/// Blocking worker. Returns the process exit code: run::kExitInterrupted
/// after a stop-flag exit, run::kExitTransientNetwork when the daemon
/// stayed unreachable past connect_attempts, 0 on a oneshot idle exit.
int run_worker(const WorkerOptions& options);

}  // namespace cohesion::serve
