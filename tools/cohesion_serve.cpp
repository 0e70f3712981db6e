// cohesion_serve — fault-tolerant sweep work-queue: a daemon that accepts
// experiment specs as jobs and leases shards to connecting workers, with
// checkpoint-journal heartbeats, RetryPolicy backoff on dead leases,
// elastic re-partitioning when workers join or die, and an append-only job
// ledger so a daemon restart resumes every in-flight job. The final report
// of a served sweep is byte-identical to the single-process
// `cohesion_run spec.json --no-timing` report (architecture contract 13);
// a sweep that exhausts its retry budget degrades to an explicit
// cohesion-supervised-partial/1 document instead of a silent wrong answer.
//
//   cohesion_serve --listen unix:/tmp/serve.sock            # daemon
//   cohesion_serve --listen 0.0.0.0:7077 --ledger jobs.ledger
//   cohesion_serve --worker unix:/tmp/serve.sock            # join as worker
//   cohesion_serve --worker daemon-host:7077 --threads 4
//   cohesion_serve --submit sweep.json unix:/tmp/serve.sock # enqueue, print id
//   cohesion_serve --submit sweep.json HOST:PORT --wait --out report.json
//   cohesion_serve --status unix:/tmp/serve.sock            # job table JSON
//   cohesion_serve --shutdown unix:/tmp/serve.sock          # graceful stop
//
// Daemon flags: --ledger FILE --lease-timeout S --poll-interval S
//               --status-interval S --max-attempts K --backoff-base S
//               --backoff-max S --jitter F --jitter-seed N
// Worker flags: --work-dir DIR --runner PATH --threads N --throttle-ms N
//               --connect-attempts N --connect-backoff S --oneshot --name S
// Submit flags: --wait [--out FILE] (poll until the job is terminal, write
//               its report, exit with the job's exit code; reconnects
//               across daemon restarts — job ids are ledger-stable)
//
// Exit codes (run/exit_codes.hpp): 0 ok; 1 permanent (failed job, bad
// spec); 2 usage; 3 transient I/O; 4 interrupted by SIGTERM/SIGINT with
// ledger/journal flushed — a restart resumes; 5 transient network (daemon
// unreachable after --connect-attempts retries — relaunching may fix it).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "run/exit_codes.hpp"
#include "run/preset.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/worker.hpp"

using namespace cohesion;

namespace {

std::atomic<bool> g_interrupted{false};

void install_stop_handlers() {
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_interrupted.store(true); };
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // A peer that vanishes mid-send must surface as EPIPE, not kill us.
  signal(SIGPIPE, SIG_IGN);
}

int usage(int code) {
  std::cout
      << "usage: cohesion_serve --listen ADDR [--ledger FILE] [--lease-timeout S]\n"
         "                      [--poll-interval S] [--status-interval S]\n"
         "                      [--max-attempts K] [--backoff-base S] [--backoff-max S]\n"
         "                      [--jitter F] [--jitter-seed N] [--quiet]\n"
         "       cohesion_serve --worker ADDR [--work-dir DIR] [--runner PATH]\n"
         "                      [--threads N] [--throttle-ms N] [--connect-attempts N]\n"
         "                      [--connect-backoff S] [--oneshot] [--name S] [--quiet]\n"
         "       cohesion_serve --submit SPEC ADDR [--wait] [--out FILE] [--name S]\n"
         "       cohesion_serve --status ADDR\n"
         "       cohesion_serve --shutdown ADDR\n"
         "ADDR is unix:PATH or HOST:PORT.\n";
  return code;
}

/// One-request client connection, with connect retry under backoff so
/// submit --wait survives daemon restarts.
serve::LineConnection connect_client(const serve::Address& address, std::size_t attempts,
                                     double backoff) {
  double delay = backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return serve::LineConnection(serve::connect_to(address, 10.0));
    } catch (const run::TransientNetworkError&) {
      if (attempt >= attempts || g_interrupted.load()) throw;
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      delay = std::min(delay * 2.0, 5.0);
    }
  }
}

run::Json transact_once(const serve::Address& address, const run::Json& request,
                        std::size_t attempts = 1, double backoff = 0.25) {
  serve::LineConnection conn = connect_client(address, attempts, backoff);
  conn.send(request);
  auto reply = conn.receive();
  if (!reply) throw run::TransientNetworkError("daemon closed the connection");
  if (!reply->bool_or("ok", false)) {
    throw std::runtime_error("daemon error: " + reply->string_or("error", "unspecified"));
  }
  return std::move(*reply);
}

int submit(const serve::Address& address, const std::string& spec_path,
           const std::string& name, bool wait, const std::string& out_path) {
  run::Json request = run::Json::object();
  request.set("op", "submit");
  request.set("name", name);
  // The resolved echo's JSON round trip is exact: the daemon's report is
  // byte-identical to the single-process one (contract 13).
  request.set("spec", run::load_experiment(spec_path).to_json());
  const run::Json reply = transact_once(address, request, 10, 0.25);
  const std::uint64_t job = reply.uint_or("job", 0);
  std::cerr << "cohesion_serve: submitted job " << job << "\n";
  if (!wait) {
    std::cout << job << "\n";
    return run::kExitSuccess;
  }

  // Poll with a fresh connection each time: a daemon restart mid-job only
  // costs us a few connect retries — the ledger keeps job ids stable.
  for (;;) {
    if (g_interrupted.load()) return run::kExitInterrupted;
    run::Json poll = run::Json::object();
    poll.set("op", "report");
    poll.set("job", job);
    run::Json status;
    try {
      status = transact_once(address, poll, 20, 0.25);
    } catch (const run::TransientNetworkError& e) {
      std::cerr << "cohesion_serve: " << e.what() << " (daemon unreachable)\n";
      return run::kExitTransientNetwork;
    }
    const std::string state = status.string_or("state", "");
    if (state == "running") {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    const run::Json& report = status.at("report");
    if (out_path.empty()) {
      std::cout << report.dump(2) << '\n';
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return run::kExitTransient;
      }
      out << report.dump(2) << '\n';
      std::cerr << "cohesion_serve: report written: " << out_path << " (job " << job << " "
                << state << ")\n";
    }
    return static_cast<int>(status.uint_or("exit_code", run::kExitPermanent));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::string address_arg;
  std::string spec_path;
  std::string out_path;
  std::string name;
  bool wait = false;
  bool quiet = false;
  serve::DaemonOptions daemon;
  serve::WorkerOptions worker;

  const auto numeric = [&](const char* flag, const std::string& value, auto& into) -> bool {
    try {
      if constexpr (std::is_floating_point_v<std::decay_t<decltype(into)>>) {
        into = std::stod(value);
      } else {
        into = static_cast<std::decay_t<decltype(into)>>(std::stoull(value));
      }
      return true;
    } catch (const std::exception&) {
      std::cerr << "bad " << flag << " value: " << value << "\n";
      return false;
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&](std::string& into) -> bool {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return false;
      }
      into = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--listen" || arg == "--worker" || arg == "--status" || arg == "--shutdown") {
      mode = arg.substr(2);
      if (!take(address_arg)) return usage(2);
    } else if (arg == "--submit") {
      mode = "submit";
      if (!take(spec_path)) return usage(2);
      if (i + 1 >= argc || std::string(argv[i + 1]).starts_with("--")) {
        std::cerr << "--submit needs SPEC and ADDR\n";
        return usage(2);
      }
      address_arg = argv[++i];
    } else if (arg == "--ledger") {
      if (!take(daemon.ledger_path)) return usage(2);
    } else if (arg == "--lease-timeout") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.config.lease_timeout_seconds))
        return usage(2);
    } else if (arg == "--poll-interval") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.poll_interval_seconds))
        return usage(2);
    } else if (arg == "--status-interval") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.status_interval_seconds))
        return usage(2);
    } else if (arg == "--max-attempts") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.config.retry.max_attempts))
        return usage(2);
    } else if (arg == "--backoff-base") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.config.retry.base_delay_seconds))
        return usage(2);
    } else if (arg == "--backoff-max") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.config.retry.max_delay_seconds))
        return usage(2);
    } else if (arg == "--jitter") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.config.retry.jitter))
        return usage(2);
    } else if (arg == "--jitter-seed") {
      if (!take(value) || !numeric(arg.c_str(), value, daemon.config.retry.jitter_seed))
        return usage(2);
    } else if (arg == "--work-dir") {
      if (!take(worker.work_dir)) return usage(2);
    } else if (arg == "--runner") {
      if (!take(worker.runner)) return usage(2);
    } else if (arg == "--threads") {
      if (!take(value) || !numeric(arg.c_str(), value, worker.threads)) return usage(2);
    } else if (arg == "--throttle-ms") {
      if (!take(value) || !numeric(arg.c_str(), value, worker.throttle_ms)) return usage(2);
    } else if (arg == "--connect-attempts") {
      if (!take(value) || !numeric(arg.c_str(), value, worker.connect_attempts))
        return usage(2);
    } else if (arg == "--connect-backoff") {
      if (!take(value) || !numeric(arg.c_str(), value, worker.connect_backoff_seconds))
        return usage(2);
    } else if (arg == "--oneshot") {
      worker.oneshot = true;
    } else if (arg == "--name") {
      if (!take(name)) return usage(2);
    } else if (arg == "--wait") {
      wait = true;
    } else if (arg == "--out") {
      if (!take(out_path)) return usage(2);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "bad argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (mode.empty()) return usage(2);
  install_stop_handlers();

  try {
    const serve::Address address = serve::Address::parse(address_arg);
    if (mode == "listen") {
      daemon.address = address;
      daemon.stop = &g_interrupted;
      if (!quiet) {
        daemon.on_event = [](const std::string& line) {
          std::cerr << "[cohesion_serve] " << line << "\n";
        };
      }
      return serve::run_daemon(daemon);
    }
    if (mode == "worker") {
      worker.address = address;
      worker.name = name;
      worker.stop = &g_interrupted;
      if (!quiet) {
        worker.on_event = [](const std::string& line) {
          std::cerr << "[cohesion_serve:worker] " << line << "\n";
        };
      }
      return serve::run_worker(worker);
    }
    if (mode == "submit") return submit(address, spec_path, name, wait, out_path);
    if (mode == "status") {
      run::Json request = run::Json::object();
      request.set("op", "status");
      std::cout << transact_once(address, request).at("status").dump(2) << '\n';
      return run::kExitSuccess;
    }
    if (mode == "shutdown") {
      run::Json request = run::Json::object();
      request.set("op", "shutdown");
      (void)transact_once(address, request);
      std::cerr << "cohesion_serve: shutdown requested\n";
      return run::kExitSuccess;
    }
    return usage(2);
  } catch (const run::TransientNetworkError& e) {
    std::cerr << "cohesion_serve: " << e.what()
              << " (transient network — the daemon may be down or restarting; retrying "
                 "may succeed)\n";
    return run::kExitTransientNetwork;
  } catch (const run::TransientError& e) {
    std::cerr << "cohesion_serve: " << e.what() << " (transient — retrying may succeed)\n";
    return run::kExitTransient;
  } catch (const std::exception& e) {
    std::cerr << "cohesion_serve: " << e.what() << "\n";
    return run::kExitPermanent;
  }
}
