#include "run/supervisor.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "run/exit_codes.hpp"
#include "run/preset.hpp"
#include "serve/job_table.hpp"

namespace cohesion::run {

namespace {

using Clock = std::chrono::steady_clock;

void append_torn_tail(const std::string& path) {
  // A newline-free fragment of a plausible outcome line: exactly what a
  // crash mid-write(2) would leave if appends were not single writes.
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << R"({"index": 4294967295, "variant": 0, "repe)";
}

/// One local worker slot: a JobTable worker, and while it holds a lease,
/// the runner executing it.
struct Slot {
  std::uint64_t worker = 0;
  std::uint64_t lease = 0;
  std::optional<RunnerProcess> runner;
  bool corrupt_pending = false;  ///< corrupt fault fired; scribble the tail at reap
};

}  // namespace

double RetryPolicy::backoff_seconds(std::size_t shard, std::size_t failed_attempts) const {
  const std::size_t exponent = failed_attempts > 0 ? failed_attempts - 1 : 0;
  double delay = base_delay_seconds * std::pow(multiplier, static_cast<double>(exponent));
  delay = std::min(delay, max_delay_seconds);
  // Seeded jitter: a pure function of (seed, shard, attempt), so backoff
  // schedules are reproducible — asserted in tests — yet differ across
  // shards that died in the same instant.
  std::uint64_t state = jitter_seed;
  state ^= 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(shard) + 1);
  state ^= 0xBF58476D1CE4E5B9ull * (static_cast<std::uint64_t>(failed_attempts) + 1);
  const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return delay * (1.0 + jitter * u);
}

FaultPlan FaultPlan::parse(const std::string& text) {
  const auto bad = [&](const std::string& why) -> std::runtime_error {
    return std::runtime_error("bad fault \"" + text + "\": " + why +
                              " (expected kind:shard=J[,attempt=A][,after=K] with kind one of "
                              "kill, stall, corrupt)");
  };
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) throw bad("missing ':'");
  const std::string kind = text.substr(0, colon);
  FaultPlan f;
  if (kind == "kill") {
    f.kind = Kind::kill;
  } else if (kind == "stall") {
    f.kind = Kind::stall;
  } else if (kind == "corrupt") {
    f.kind = Kind::corrupt;
  } else {
    throw bad("unknown kind \"" + kind + "\"");
  }
  bool have_shard = false;
  std::size_t pos = colon + 1;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    const std::size_t eq = token.find('=');
    if (token.empty() || eq == std::string::npos) throw bad("bad token \"" + token + "\"");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    std::size_t parsed = 0;
    if (value.empty()) throw bad("empty value for " + key);
    for (const char c : value) {
      if (c < '0' || c > '9') throw bad("non-numeric value for " + key);
      parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
    }
    if (key == "shard") {
      f.shard = parsed;
      have_shard = true;
    } else if (key == "attempt") {
      if (parsed == 0) throw bad("attempt is 1-based");
      f.attempt = parsed;
    } else if (key == "after") {
      f.after_lines = parsed;
    } else {
      throw bad("unknown key \"" + key + "\"");
    }
    pos = comma + 1;
  }
  if (!have_shard) throw bad("missing shard=J");
  return f;
}

std::string FaultPlan::describe() const {
  const char* kind_name =
      kind == Kind::kill ? "kill" : kind == Kind::stall ? "stall" : "corrupt";
  return std::string(kind_name) + ":shard=" + std::to_string(shard) +
         ",attempt=" + std::to_string(attempt) + ",after=" + std::to_string(after_lines);
}

FoldResult fold_attempt_outcome(RunOutcome& kept, const RunOutcome& incoming) {
  const bool kept_ok = kept.error.empty();
  const bool new_ok = incoming.error.empty();
  if (kept_ok && new_ok) {
    return kept.to_json().dump() == incoming.to_json().dump() ? FoldResult::kept
                                                              : FoldResult::conflict;
  }
  if (kept_ok) return FoldResult::kept;  // an error never displaces a completed outcome
  kept = incoming;  // completed beats errored; between two errors the later wins
  return FoldResult::replaced;
}

std::vector<RunOutcome> merge_attempt_outcomes(
    const std::vector<std::vector<RunOutcome>>& attempts) {
  std::map<std::size_t, RunOutcome> by_index;
  for (const std::vector<RunOutcome>& attempt : attempts) {
    for (const RunOutcome& o : attempt) {
      const auto [it, fresh] = by_index.try_emplace(o.index, o);
      if (!fresh && fold_attempt_outcome(it->second, o) == FoldResult::conflict) {
        throw std::runtime_error(
            "attempt merge: conflicting completed outcomes for grid index " +
            std::to_string(o.index) +
            " — attempts disagree on a deterministic run (different spec or "
            "nondeterministic engine); refusing to pick one");
      }
    }
  }
  std::vector<RunOutcome> out;
  out.reserve(by_index.size());
  for (auto& [index, o] : by_index) out.push_back(std::move(o));
  return out;
}

Supervisor::Supervisor(SupervisorOptions options) : options_(std::move(options)) {}

SupervisorResult Supervisor::run() {
  if (options_.shards == 0) throw std::runtime_error("supervisor: shards must be >= 1");
  if (options_.retry.max_attempts == 0) {
    throw std::runtime_error("supervisor: max_attempts must be >= 1");
  }
  if (options_.runner.empty()) options_.runner = sibling_runner();
  if (::access(options_.runner.c_str(), X_OK) != 0) {
    throw std::runtime_error("supervisor: runner " + options_.runner + " is not executable");
  }
  // Resolve the spec up front — a spec error is the supervisor's to report,
  // not N runners' to rediscover — and submit the echo the runners'
  // outcomes will be folded against.
  const ExperimentSpec experiment = load_experiment(options_.spec_path);
  const std::size_t total_runs =
      experiment.variant_count() * std::max<std::size_t>(experiment.repeats, 1);
  const std::size_t width =
      std::min(options_.shards, std::max<std::size_t>(experiment.variant_count(), 1));

  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    throw std::runtime_error("supervisor: cannot create work dir " + options_.work_dir + " (" +
                             ec.message() + ")");
  }

  const auto event = [&](const std::string& line) {
    if (options_.on_event) options_.on_event(line);
  };
  const Clock::time_point start = Clock::now();
  const auto now = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };

  serve::JobTable table(serve::ServeConfig{.retry = options_.retry,
                                           .lease_timeout_seconds = options_.lease.timeout_seconds});
  serve::Effects effects;  // the table's own notes; the front words its events itself
  const std::uint64_t job = table.add_job(experiment.name, experiment.to_json(), now(), effects);
  // A fixed worker set pins the partition width: the table keeps it at
  // min(workers, variants) = width for the whole sweep.
  std::vector<Slot> slots(width);
  for (std::size_t i = 0; i < width; ++i) {
    slots[i].worker = table.worker_joined("local-" + std::to_string(i));
  }
  std::vector<ShardStatus> shards(width);
  std::vector<char> fault_fired(options_.faults.size(), 0);
  std::optional<double> done_at;  // when the job completed

  // A runner has ended (reaped, or killed on an expired lease): fold every
  // journaled outcome into the table and account for the shard.
  const auto settle = [&](Slot& slot, const RunnerExit& exit) {
    const RunnerCommand command = slot.runner->command();
    slot.runner.reset();
    if (std::exchange(slot.corrupt_pending, false)) append_torn_tail(command.journal_path());
    std::vector<RunOutcome> outcomes;
    read_journal_outcomes(command.journal_path(), outcomes);
    ShardStatus& st = shards[command.shard];
    st.journal_lines = stat_journal(command.journal_path()).outcome_lines;
    const std::string who = "shard " + std::to_string(command.shard);
    if (exit.kind == RunnerExit::Kind::covered) {
      table.complete(slot.lease, outcomes, now(), effects);
      event(who + " done (" + exit.reason + ", attempt " + std::to_string(st.attempts) + ")");
      return;
    }
    table.fail(slot.lease, exit.exit_code, exit.reason, outcomes, now(), effects);
    st.last_failure = exit.reason;
    if (exit.kind == RunnerExit::Kind::permanent) {
      event(who + " FAILED permanently: " + exit.reason);
    } else if (st.attempts >= options_.retry.max_attempts) {
      event(who + " FAILED: retry budget exhausted after " + std::to_string(st.attempts) +
            " attempts (last: " + exit.reason + ")");
    } else {
      event(who + " died (" + exit.reason + "); retry " + std::to_string(st.attempts + 1) + "/" +
            std::to_string(options_.retry.max_attempts) + " after backoff");
    }
  };

  // One pass over a busy slot: reap, or heartbeat (killing the runner when
  // the table has expired its lease), then arm fault triggers.
  const auto poll = [&](Slot& slot) {
    if (std::optional<RunnerExit> exit = slot.runner->poll()) {
      settle(slot, *exit);
      return;
    }
    const std::size_t shard = slot.runner->command().shard;
    JournalStat js;
    const std::vector<RunOutcome> fresh = slot.runner->heartbeat(js);
    shards[shard].journal_lines = js.outcome_lines;
    if (!table.heartbeat(slot.lease, js.bytes, js.outcome_lines, fresh, now(), effects)) {
      if (table.job_done(job)) {
        // Every run is in. The runner gets one lease window to write its
        // partial report and exit before it is stopped.
        if (!done_at) done_at = now();
        if (now() - *done_at > options_.lease.timeout_seconds) {
          slot.runner->stop();
          slot.runner.reset();
        }
        return;
      }
      // Expired: no journal growth for the whole window. SIGKILL is safe on
      // live, wedged and SIGSTOPped runners alike.
      slot.runner->kill();
      settle(slot, RunnerExit{.exit_code = kExitTransient,
                              .reason = "lease expired (no journal progress for " +
                                        std::to_string(options_.lease.timeout_seconds) + "s)"});
      return;
    }
    for (std::size_t f = 0; f < options_.faults.size(); ++f) {
      const FaultPlan& fault = options_.faults[f];
      if (fault_fired[f] || fault.shard != shard || fault.attempt != shards[shard].attempts ||
          js.outcome_lines < fault.after_lines) {
        continue;
      }
      fault_fired[f] = 1;
      event("fault injected on shard " + std::to_string(shard) + ": " + fault.describe());
      // stall: the runner lives but its heartbeat stops; only the lease
      // can catch it, which is exactly what the harness verifies.
      slot.runner->signal(fault.kind == FaultPlan::Kind::stall ? SIGSTOP : SIGKILL);
      if (fault.kind == FaultPlan::Kind::corrupt) slot.corrupt_pending = true;
    }
  };

  event("supervising " + std::to_string(width) + " shards of " + options_.spec_path + " (" +
        std::to_string(total_runs) + " runs, max " + std::to_string(options_.retry.max_attempts) +
        " attempts/shard, lease " + std::to_string(options_.lease.timeout_seconds) + "s)" +
        (width < options_.shards ? "; --shards clamped from " + std::to_string(options_.shards) +
                                       " to the variant count"
                                 : ""));

  const std::size_t cap = options_.max_parallel == 0 ? width : options_.max_parallel;
  double last_status = now();
  const auto busy = [&] {
    return static_cast<std::size_t>(std::count_if(
        slots.begin(), slots.end(), [](const Slot& s) { return s.runner.has_value(); }));
  };
  // Tick first, so a lease it expires is killed by this pass's heartbeat
  // before the launch phase could re-grant the shard over the same journal.
  while (!table.job_terminal(job) || busy() > 0) {
    table.tick(now(), effects);
    for (Slot& slot : slots) {
      if (slot.runner) poll(slot);
    }
    for (std::size_t running = busy(); running < cap;) {
      const auto idle = std::find_if(slots.begin(), slots.end(),
                                     [](const Slot& s) { return !s.runner.has_value(); });
      if (idle == slots.end()) break;
      const std::optional<serve::Lease> lease = table.request_lease(idle->worker, now(), effects);
      if (!lease) break;
      const std::size_t attempt = ++shards[lease->shard].attempts;
      idle->lease = lease->id;
      idle->runner.emplace(RunnerCommand{
          .runner = options_.runner,
          .spec_path = options_.spec_path,
          .shard = lease->shard,
          .of = lease->of,
          .stem = options_.work_dir + "/shard_" + std::to_string(lease->shard),
          .threads = options_.worker_threads,
          .throttle_ms = options_.throttle_ms,
      });
      event("shard " + std::to_string(lease->shard) + " attempt " + std::to_string(attempt) +
            " launched (pid " + std::to_string(idle->runner->pid()) + ")");
      ++running;
    }
    effects = {};

    if (now() - last_status >= options_.lease.status_interval_seconds) {
      last_status = now();
      const Json doc = table.status_json();
      const Json& status = doc.at("jobs").items().front();
      event("progress: " + std::to_string(status.at("covered_runs").as_uint()) + "/" +
            std::to_string(total_runs) + " runs; " + std::to_string(busy()) +
            " runners live; partial aggregate: " + status.at("aggregate").dump());
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(options_.lease.poll_interval_seconds, 0.001)));
  }

  SupervisorResult result;
  result.total_runs = total_runs;
  result.report = table.job_report(job);
  result.complete = table.job_done(job);
  result.exit_code = table.job_exit_code(job);
  for (ShardStatus& st : shards) st.state = ShardStatus::State::done;
  if (!result.complete) {
    for (const Json& s : result.report.at("uncovered_shards").items()) {
      shards[static_cast<std::size_t>(s.as_uint())].state = ShardStatus::State::failed;
    }
  }
  result.shards = std::move(shards);
  result.covered_runs = result.report.at("runs").items().size();
  if (result.complete) {
    const std::size_t errors =
        static_cast<std::size_t>(result.report.at("aggregate").at("errors").as_uint());
    event("complete: " + std::to_string(total_runs) + " runs over " + std::to_string(width) +
          " shards" + (errors > 0 ? ", " + std::to_string(errors) + " run errors" : ""));
  } else {
    event("INCOMPLETE: " + std::to_string(result.covered_runs) + "/" +
          std::to_string(total_runs) +
          " runs covered; see uncovered_variants/uncovered_shards in the partial report");
  }
  return result;
}

}  // namespace cohesion::run
