#include "serve/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/exit_codes.hpp"
#include "run/runner_process.hpp"

namespace cohesion::serve {

namespace {

namespace fs = std::filesystem;

Json outcomes_json(const std::vector<run::RunOutcome>& outcomes) {
  JsonArray arr;
  for (const run::RunOutcome& o : outcomes) arr.push_back(o.to_json());
  return Json(std::move(arr));
}

class WorkerLoop {
 public:
  explicit WorkerLoop(const WorkerOptions& options) : options_(options) {
    if (options_.runner.empty()) options_.runner = run::sibling_runner();
    if (options_.name.empty()) options_.name = "worker-" + std::to_string(::getpid());
  }

  int run() {
    std::error_code ec;
    fs::create_directories(options_.work_dir, ec);
    if (ec) throw run::TransientError("cannot create work dir " + options_.work_dir);

    for (;;) {
      if (stopped()) return run::kExitInterrupted;
      int exit_code = 0;
      if (!connect_with_retry(exit_code)) return exit_code;
      try {
        const int code = serve_connection();
        if (code >= 0) return code;
        // code < 0: connection lost — reconnect and keep serving. The
        // daemon reclaims our lease through the dropped connection.
      } catch (const run::TransientNetworkError& e) {
        event(std::string("connection lost: ") + e.what() + " — reconnecting");
      }
      conn_.reset();
    }
  }

 private:
  bool stopped() const { return options_.stop != nullptr && options_.stop->load(); }

  void event(const std::string& line) {
    if (options_.on_event) options_.on_event(line);
  }

  /// Sleep in small slices so a stop signal is honored promptly.
  void nap(double seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
    while (!stopped() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Retry the connect under exponential backoff: the daemon may not be up
  /// yet, or may be mid-restart. Exhaustion returns false with exit 5 — the
  /// named transient-network cause, so an outer supervisor retries us.
  bool connect_with_retry(int& exit_code) {
    double delay = options_.connect_backoff_seconds;
    for (std::size_t attempt = 1;; ++attempt) {
      if (stopped()) {
        exit_code = run::kExitInterrupted;
        return false;
      }
      try {
        conn_.emplace(connect_to(options_.address, options_.io_timeout_seconds));
        Json hello = Json::object();
        hello.set("op", "hello");
        hello.set("role", "worker");
        hello.set("name", options_.name);
        const Json reply = transact(hello);
        worker_id_ = reply.uint_or("worker", 0);
        event("connected to " + options_.address.describe() + " as worker " +
              std::to_string(worker_id_));
        return true;
      } catch (const run::TransientNetworkError& e) {
        conn_.reset();
        if (attempt >= options_.connect_attempts) {
          event(std::string("giving up after ") + std::to_string(attempt) +
                " connect attempts: " + e.what());
          exit_code = run::kExitTransientNetwork;
          return false;
        }
        event("connect attempt " + std::to_string(attempt) + "/" +
              std::to_string(options_.connect_attempts) + " failed (" + e.what() +
              "); retrying in " + std::to_string(delay) + "s");
        nap(delay);
        delay = std::min(delay * 2.0, 5.0);
      }
    }
  }

  Json transact(const Json& request) {
    conn_->send(request);
    std::optional<Json> reply = conn_->receive();
    if (!reply) throw run::TransientNetworkError("daemon closed the connection");
    if (!reply->bool_or("ok", false)) {
      throw std::runtime_error("daemon rejected " + request.string_or("op", "?") + ": " +
                               reply->string_or("error", "unspecified"));
    }
    return std::move(*reply);
  }

  /// Serve leases until stop (>=0: process exit code) or connection loss
  /// (-1: caller reconnects).
  int serve_connection() {
    for (;;) {
      if (stopped()) return run::kExitInterrupted;
      Json request = Json::object();
      request.set("op", "request");
      request.set("worker", worker_id_);
      Json reply;
      try {
        reply = transact(request);
      } catch (const run::TransientNetworkError&) {
        return -1;
      }
      if (const Json* lease = reply.find("lease")) {
        const int code = execute_lease(*lease);
        if (code >= 0) return code;
        continue;  // -1: lease finished one way or another, ask again
      }
      if (options_.oneshot && all_jobs_settled()) {
        event("oneshot: no running jobs — exiting");
        return 0;
      }
      nap(std::max(reply.number_or("poll_seconds", options_.idle_poll_seconds),
                   options_.idle_poll_seconds));
    }
  }

  bool all_jobs_settled() {
    Json status_req = Json::object();
    status_req.set("op", "status");
    const Json reply = transact(status_req);
    for (const Json& jd : reply.at("status").at("jobs").items()) {
      if (jd.string_or("state", "") == "running") return false;
    }
    return true;
  }

  /// -1: keep serving; >=0: exit the worker with this code.
  int execute_lease(const Json& lease) {
    const std::uint64_t lease_id = lease.uint_or("id", 0);
    const std::uint64_t job = lease.uint_or("job", 0);
    const std::size_t shard = static_cast<std::size_t>(lease.uint_or("shard", 0));
    const std::size_t of = static_cast<std::size_t>(lease.uint_or("of", 1));
    const std::string spec_path =
        options_.work_dir + "/job" + std::to_string(job) + ".spec.json";
    {
      std::ofstream out(spec_path);
      if (!out) throw run::TransientError("cannot write " + spec_path);
      out << lease.at("spec").dump(2) << '\n';
    }
    event("lease " + std::to_string(lease_id) + ": job " + std::to_string(job) + " shard " +
          std::to_string(shard) + "/" + std::to_string(of));

    run::RunnerProcess runner(run::RunnerCommand{
        .runner = options_.runner,
        .spec_path = spec_path,
        .shard = shard,
        .of = of,
        .stem = options_.work_dir + "/job" + std::to_string(job) + "_s" +
                std::to_string(shard) + "of" + std::to_string(of),
        .threads = options_.threads,
        .throttle_ms = options_.throttle_ms,
    });

    // Watch loop: reap, heartbeat with journal growth + fresh outcomes,
    // obey revocations and stop signals.
    for (;;) {
      if (std::optional<run::RunnerExit> exit = runner.poll()) {
        return reap(lease_id, runner.command().journal_path(), *exit);
      }
      if (stopped()) {
        stop_and_release(runner, lease_id);
        event("interrupted: lease " + std::to_string(lease_id) +
              " released, journal flushed");
        return run::kExitInterrupted;
      }
      nap(options_.heartbeat_interval_seconds);
      run::JournalStat js;
      const std::vector<run::RunOutcome> fresh = runner.heartbeat(js);
      Json hb = Json::object();
      hb.set("op", "heartbeat");
      hb.set("lease", lease_id);
      hb.set("journal_bytes", js.bytes);
      hb.set("journal_lines", js.outcome_lines);
      hb.set("outcomes", outcomes_json(fresh));
      Json reply;
      try {
        reply = transact(hb);
      } catch (const run::TransientNetworkError& e) {
        event(std::string("heartbeat failed: ") + e.what());
        runner.stop();
        return -1;  // reconnect; the daemon reclaims via the dropped conn
      }
      if (!reply.bool_or("valid", false)) {
        // Revoked (elastic re-partition) or expired: hand the journal back
        // gracefully, ask for fresh work.
        event("lease " + std::to_string(lease_id) + " revoked — stopping runner");
        stop_and_release(runner, lease_id);
        return -1;
      }
    }
  }

  /// Graceful hand-back: the runner flushes its journal on SIGTERM (exit 4
  /// contract) and everything journaled goes back with the release.
  void stop_and_release(run::RunnerProcess& runner, std::uint64_t lease_id) {
    runner.stop();
    try {
      send_lease_end("release", lease_id, journal_outcomes(runner.command().journal_path()), 0,
                     "");
    } catch (const std::exception&) {
      // The daemon reclaims the lease via the dropped connection.
    }
  }

  int reap(std::uint64_t lease_id, const std::string& journal, const run::RunnerExit& exit) {
    const std::vector<run::RunOutcome> outcomes = journal_outcomes(journal);
    try {
      if (exit.kind == run::RunnerExit::Kind::covered) {
        event("lease " + std::to_string(lease_id) + " complete (" +
              std::to_string(outcomes.size()) + " outcomes)");
        send_lease_end("complete", lease_id, outcomes, 0, "");
      } else {
        event("lease " + std::to_string(lease_id) + " failed: runner " + exit.reason);
        send_lease_end("fail", lease_id, outcomes, exit.exit_code, "runner " + exit.reason);
      }
    } catch (const run::TransientNetworkError&) {
      // Reconnect; the outcomes survive in the journal for the re-lease.
    }
    return -1;
  }

  void send_lease_end(const char* op, std::uint64_t lease_id,
                      const std::vector<run::RunOutcome>& outcomes, int exit_code,
                      const std::string& reason) {
    Json msg = Json::object();
    msg.set("op", op);
    msg.set("lease", lease_id);
    if (std::string(op) == "fail") {
      msg.set("exit_code", exit_code);
      msg.set("reason", reason);
    }
    msg.set("outcomes", outcomes_json(outcomes));
    (void)transact(msg);
  }

  static std::vector<run::RunOutcome> journal_outcomes(const std::string& path) {
    std::vector<run::RunOutcome> outcomes;
    run::read_journal_outcomes(path, outcomes);
    return outcomes;
  }

  WorkerOptions options_;
  std::optional<LineConnection> conn_;
  std::uint64_t worker_id_ = 0;
};

}  // namespace

int run_worker(const WorkerOptions& options) { return WorkerLoop(options).run(); }

}  // namespace cohesion::serve
