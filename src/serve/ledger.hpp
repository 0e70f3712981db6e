// Append-only job ledger: the daemon's crash-safe memory.
//
// A schema over the durable line log in run/line_log.hpp, which owns the
// file discipline: one JSON document per line, each append a single
// write(2), here fsync'd per event — a crash can tear at most the final
// line, and open() drops + truncates it. The file:
//
//   line 1   header: {"format": "cohesion-serve-ledger/1"}
//   line 2+  events, in arrival order:
//     {"event":"job","job":J,"name":"...","spec":{...},"total_runs":N}
//       — a submitted job: resolved experiment echo + grid size. Job ids
//         are assigned once, here, and stay stable across restarts.
//     {"event":"outcome","job":J,"run":{...RunOutcome...}}
//       — one recovered/completed run, exactly as workers reported it.
//         Replay folds duplicates with merge_attempt_outcomes semantics
//         (completed supersedes errored; byte-equal or conflict).
//     {"event":"done","job":J}    — report assembled and byte-complete
//     {"event":"failed","job":J}  — degraded to a supervised-partial doc
//
// Leases are deliberately *not* events: they are soft state. After a
// restart every previously-leased shard is simply unleased again; the
// outcomes already journaled make the re-lease cheap (workers resume from
// their own checkpoints), and the merged result is byte-identical either
// way — that is what contract 13 is for.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "run/json.hpp"
#include "run/line_log.hpp"

namespace cohesion::serve {

using Json = run::Json;
using JsonArray = run::JsonArray;

inline constexpr const char* kLedgerFormat = "cohesion-serve-ledger/1";

/// One parsed ledger event (see file header for the schema).
struct LedgerEvent {
  std::string event;  ///< "job" | "outcome" | "done" | "failed"
  std::uint64_t job = 0;
  Json payload;  ///< the whole event document, for event-specific fields
};

/// Writer/loader. Thread-compatible (the daemon is single-threaded);
/// construction opens or creates, destruction fsyncs and closes.
class JobLedger {
 public:
  struct Loaded {
    std::vector<LedgerEvent> events;     ///< complete events, file order
    std::size_t dropped_tail_bytes = 0;  ///< torn final line removed, if any
  };

  /// Open `path` for appending, creating it (with a header) when missing,
  /// validating the header and truncating a torn tail when present. The
  /// complete events are returned via `loaded` for replay. Throws
  /// run::TransientError on I/O failure (a failed header fsync included),
  /// std::runtime_error naming the line on a wrong format marker, a
  /// malformed non-tail line (corruption, not a crash) or an event the
  /// schema above does not allow — an unknown "event", a "job" without a
  /// "spec" object or with an id already submitted, an event for a job
  /// with no earlier "job" event, an "outcome" whose "run" is not a run
  /// outcome.
  static std::unique_ptr<JobLedger> open(const std::string& path, Loaded& loaded);

  /// Append one event as a single fsync'd line. Throws run::TransientError
  /// on write failure — the daemon treats its ledger the way cohesion_run
  /// treats its journal: if durability is gone, crash loudly now rather
  /// than lose jobs silently later.
  void append(const Json& event);

 private:
  explicit JobLedger(run::LineLog log) : log_(std::move(log)) {}
  run::LineLog log_;
};

}  // namespace cohesion::serve
