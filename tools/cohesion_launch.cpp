// cohesion_launch — fault-tolerant sweep supervisor on one host: the
// cohesion_serve job table driven in-process by local worker slots. Each
// leased shard runs as `cohesion_run --shard i/N --resume` under a
// journal-heartbeat lease; dead shards retry with exponential backoff +
// seeded jitter, resuming their checkpoints. The output is the exact
// single-process `--no-timing` report, or the supervised-partial document
// naming every uncovered variant and shard. --shards is clamped to the
// variant count. Runbook: docs/operations.md.
//
//   cohesion_launch sweep.json --shards 3 --out report.json
//   cohesion_launch sweep.json --shards 8 --threads 2 --max-parallel 4
//   cohesion_launch sweep.json --shards 3 --max-attempts 5 \
//       --backoff-base 1 --backoff-max 60 --lease-timeout 30
//   cohesion_launch sweep.json --shards 3 --fault kill:shard=1,after=3 \
//       --fault stall:shard=0,after=2 --throttle-ms 20     # injection harness
//
// Exit codes: 0 complete + no run errors; 1 incomplete coverage, run
// errors, or a permanent supervisor error; 2 bad usage; 3 unreadable spec
// or unwritable --out.
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>

#include "run/exit_codes.hpp"
#include "run/supervisor.hpp"

using namespace cohesion;

namespace {

int usage(int code) {
  std::cout
      << "usage: cohesion_launch <spec.json> --shards N [--out FILE] [--work-dir DIR]\n"
         "                       [--threads N] [--max-parallel N] [--runner PATH]\n"
         "                       [--max-attempts K] [--backoff-base S] [--backoff-max S]\n"
         "                       [--jitter F] [--jitter-seed N] [--lease-timeout S]\n"
         "                       [--poll-interval S] [--status-interval S]\n"
         "                       [--fault KIND:shard=J[,attempt=A][,after=K]]...\n"
         "                       [--throttle-ms N] [--quiet]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  run::SupervisorOptions options;
  options.work_dir = "cohesion_launch.work";
  std::string out_path;
  bool quiet = false;

  const auto numeric = [&](const char* flag, const char* text, auto& target) {
    try {
      if constexpr (std::is_floating_point_v<std::decay_t<decltype(target)>>) {
        target = std::stod(text);
      } else {
        target = static_cast<std::decay_t<decltype(target)>>(std::stoull(text));
      }
      return true;
    } catch (const std::exception&) {
      std::cerr << "bad " << flag << " value: " << text << "\n";
      return false;
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--shards" && next) {
      if (!numeric("--shards", argv[++i], options.shards)) return usage(run::kExitUsage);
    } else if (arg == "--threads" && next) {
      if (!numeric("--threads", argv[++i], options.worker_threads)) return usage(run::kExitUsage);
    } else if (arg == "--max-parallel" && next) {
      if (!numeric("--max-parallel", argv[++i], options.max_parallel)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--max-attempts" && next) {
      if (!numeric("--max-attempts", argv[++i], options.retry.max_attempts)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--backoff-base" && next) {
      if (!numeric("--backoff-base", argv[++i], options.retry.base_delay_seconds)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--backoff-max" && next) {
      if (!numeric("--backoff-max", argv[++i], options.retry.max_delay_seconds)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--jitter" && next) {
      if (!numeric("--jitter", argv[++i], options.retry.jitter)) return usage(run::kExitUsage);
    } else if (arg == "--jitter-seed" && next) {
      if (!numeric("--jitter-seed", argv[++i], options.retry.jitter_seed)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--lease-timeout" && next) {
      if (!numeric("--lease-timeout", argv[++i], options.lease.timeout_seconds)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--poll-interval" && next) {
      if (!numeric("--poll-interval", argv[++i], options.lease.poll_interval_seconds)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--status-interval" && next) {
      if (!numeric("--status-interval", argv[++i], options.lease.status_interval_seconds)) {
        return usage(run::kExitUsage);
      }
    } else if (arg == "--throttle-ms" && next) {
      if (!numeric("--throttle-ms", argv[++i], options.throttle_ms)) return usage(run::kExitUsage);
    } else if (arg == "--fault" && next) {
      try {
        options.faults.push_back(run::FaultPlan::parse(argv[++i]));
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return usage(run::kExitUsage);
      }
    } else if (arg == "--runner" && next) {
      options.runner = argv[++i];
    } else if (arg == "--work-dir" && next) {
      options.work_dir = argv[++i];
    } else if (arg == "--out" && next) {
      out_path = argv[++i];
    } else if (options.spec_path.empty() && !arg.starts_with("--")) {
      options.spec_path = arg;
    } else {
      std::cerr << "bad argument: " << arg << "\n";
      return usage(run::kExitUsage);
    }
  }
  if (options.spec_path.empty() || options.shards == 0) return usage(run::kExitUsage);
  if (!quiet) {
    options.on_event = [](const std::string& line) {
      std::cerr << "[cohesion_launch] " << line << "\n";
    };
  }

  try {
    const run::SupervisorResult result = run::Supervisor(options).run();
    if (out_path.empty()) {
      std::cout << result.report.dump(2) << '\n';
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return run::kExitTransient;
      }
      out << result.report.dump(2) << '\n';
      std::cerr << (result.complete ? "report written: " : "PARTIAL report written: ")
                << out_path << " (" << result.covered_runs << "/" << result.total_runs
                << " runs)\n";
    }
    return result.exit_code;
  } catch (const run::TransientError& e) {
    std::cerr << "cohesion_launch: " << e.what() << " (transient — retrying may succeed)\n";
    return run::kExitTransient;
  } catch (const std::exception& e) {
    std::cerr << "cohesion_launch: " << e.what() << "\n";
    return run::kExitPermanent;
  }
}
