// cohesion_run — declarative batch driver: load an experiment spec (JSON),
// fan it out over a worker pool, emit an aggregated report. With --shard it
// executes one deterministic slice of the grid for multi-process sweeps;
// with --checkpoint/--resume it journals outcomes so a killed batch
// continues where it left off (see docs/operations.md for the runbook).
//
//   cohesion_run sweep.json                        # run, report to stdout
//   cohesion_run sweep.json --threads 8            # parallel across runs
//   cohesion_run sweep.json --out report.json      # write report to a file
//   cohesion_run sweep.json --no-timing            # deterministic output
//                                                  # (diffable across thread
//                                                  #  counts)
//   cohesion_run sweep.json --shard 0/3 --out p0.json
//                                                  # one shard; partial
//                                                  # report for cohesion_merge
//   cohesion_run sweep.json --checkpoint run.ckpt  # journal outcomes (JSONL)
//   cohesion_run sweep.json --resume run.ckpt      # skip completed runs
//   cohesion_run sweep.json --fsync-every 16       # journal fsync cadence
//   cohesion_run sweep.json --trace-dir traces/    # stream every run's
//                                                  # activations to
//                                                  # traces/run_<index>.cohtrace
//                                                  # (bounded-memory mode;
//                                                  #  replay with
//                                                  #  cohesion_replay)
//   cohesion_run sweep.json --peak-rss             # report peak RSS (KB) on
//                                                  # stderr after the batch
//   cohesion_run sweep.json --cache DIR            # content-addressed result
//                                                  # cache: unchanged runs are
//                                                  # served from DIR, new
//                                                  # outcomes inserted (safe to
//                                                  # share across concurrent
//                                                  # shard workers)
//   cohesion_run sweep.json --cache DIR --cache-readonly   # hits only
//   cohesion_run sweep.json --no-cache             # ignore --cache and
//                                                  # $COHESION_CACHE_DIR
//   cohesion_run --list                            # registry keys
//
// The spec is either a full ExperimentSpec ({"base": {...}, "sweep": [...],
// "repeats": N}) or a bare RunSpec object, which runs once; either may
// layer over other spec files with "extends" (resolved before anything is
// fingerprinted — docs/experiments.md). $COHESION_CACHE_DIR supplies the
// cache directory when --cache is absent. Spec schema and seed-derivation
// rules: docs/experiments.md; sharding/resume contracts, cache keying and
// file formats: docs/operations.md.
//
// Exit codes (the taxonomy supervisors retry by — docs/experiments.md):
//   0  every run executed without error, report written
//   1  permanent failure: bad spec, unknown registry key, stale/corrupt
//      checkpoint — retrying the same invocation fails the same way
//   2  bad usage
//   3  transient failure: I/O (unreadable spec file, journal write,
//      unwritable --out) — retrying may succeed
//   4  interrupted by SIGTERM/SIGINT: the checkpoint journal is flushed
//      and well-formed; rerun with --resume to continue
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "run/batch_runner.hpp"
#include "run/exit_codes.hpp"
#include "run/preset.hpp"
#include "run/registry.hpp"
#include "run/result_cache.hpp"
#include "run/shard.hpp"

using namespace cohesion;

namespace {

// Graceful shutdown: the handler only raises a flag; BatchRunner checks it
// between runs, so no outcome (or journal line) is ever torn by a signal —
// the journal tail stays a crash artifact, never a cancellation artifact.
std::atomic<bool> g_interrupted{false};

void install_stop_handlers() {
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_interrupted.store(true); };
  sa.sa_flags = SA_RESTART;  // don't turn journal writes into EINTR spam
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

int list_registries() {
  const auto print = [](const char* kind, const std::vector<std::string>& keys) {
    std::cout << kind << ":";
    for (const std::string& k : keys) std::cout << ' ' << k;
    std::cout << '\n';
  };
  print("algorithms", run::algorithms().keys());
  print("schedulers", run::schedulers().keys());
  print("errors", run::errors().keys());
  print("initials", run::initials().keys());
  return 0;
}

int usage(int code) {
  std::cout << "usage: cohesion_run <spec.json> [--threads N] [--out FILE] [--no-timing]\n"
               "                    [--shard I/N] [--checkpoint FILE | --resume FILE]\n"
               "                    [--fsync-every N] [--throttle-ms N]\n"
               "                    [--trace-dir DIR] [--peak-rss]\n"
               "                    [--cache DIR] [--cache-readonly] [--no-cache]\n"
               "       cohesion_run --list\n";
  return code;
}

/// Peak resident set size in KB (Linux ru_maxrss unit), for the
/// bounded-memory assertion in tests/trace/stream_e2e_test.cpp.
long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  std::string shard_arg;
  std::string trace_dir;
  std::string cache_dir;
  bool cache_readonly = false;
  bool no_cache = false;
  run::BatchRunner::Options options;
  options.threads = 1;
  bool timing = true;
  bool report_rss = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") return list_registries();
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--no-timing") {
      timing = false;
    } else if (arg == "--threads" && i + 1 < argc) {
      try {
        options.threads = static_cast<std::size_t>(std::stoul(argv[++i]));
      } catch (const std::exception&) {
        std::cerr << "bad --threads value: " << argv[i] << "\n";
        return usage(2);
      }
    } else if (arg == "--fsync-every" && i + 1 < argc) {
      try {
        options.checkpoint_fsync_every = static_cast<std::size_t>(std::stoul(argv[++i]));
      } catch (const std::exception&) {
        std::cerr << "bad --fsync-every value: " << argv[i] << "\n";
        return usage(2);
      }
    } else if (arg == "--throttle-ms" && i + 1 < argc) {
      // Fault-harness pacing: sleep after every run so a supervisor's
      // journal poller sees a steady line cadence. Not for real sweeps.
      try {
        options.post_run_delay_ms = static_cast<std::size_t>(std::stoul(argv[++i]));
      } catch (const std::exception&) {
        std::cerr << "bad --throttle-ms value: " << argv[i] << "\n";
        return usage(2);
      }
    } else if (arg == "--shard" && i + 1 < argc) {
      shard_arg = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      if (!options.checkpoint_path.empty()) {
        // Mutually exclusive: --checkpoint would O_TRUNC the very journal
        // --resume is trying to continue from.
        std::cerr << "--checkpoint and --resume cannot be combined (--resume already "
                     "journals to its file)\n";
        return usage(2);
      }
      options.checkpoint_path = argv[++i];
      options.resume = false;
    } else if (arg == "--resume" && i + 1 < argc) {
      if (!options.checkpoint_path.empty()) {
        std::cerr << "--checkpoint and --resume cannot be combined (--resume already "
                     "journals to its file)\n";
        return usage(2);
      }
      options.checkpoint_path = argv[++i];
      options.resume = true;
    } else if (arg == "--trace-dir" && i + 1 < argc) {
      trace_dir = argv[++i];
    } else if (arg == "--cache" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--cache-readonly") {
      cache_readonly = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--peak-rss") {
      report_rss = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (spec_path.empty() && !arg.starts_with("--")) {
      spec_path = arg;
    } else {
      std::cerr << "bad argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (spec_path.empty()) return usage(2);
  install_stop_handlers();
  options.cancel = &g_interrupted;

  // --cache wins over the environment default; --no-cache beats both (the
  // escape hatch when a wrapper or $COHESION_CACHE_DIR injects a cache).
  if (cache_dir.empty()) {
    if (const char* env = std::getenv("COHESION_CACHE_DIR")) cache_dir = env;
  }
  if (no_cache) cache_dir.clear();

  try {
    // Preset layering ("extends") resolves here — before expansion, and
    // therefore before any fingerprint (checkpoint or cache) is computed.
    // A bare RunSpec (no "base") runs as a one-run experiment.
    run::ExperimentSpec experiment = run::load_experiment(spec_path);

    if (!trace_dir.empty()) {
      // Force bounded-memory streaming: every run writes its activation
      // stream under the directory, keyed by global grid index (the path
      // template resolves per run at expansion time).
      std::error_code ec;
      std::filesystem::create_directories(trace_dir, ec);
      if (ec) throw run::TransientError("cannot create --trace-dir " + trace_dir);
      experiment.base.trace.mode = "stream";
      experiment.base.trace.path = trace_dir + "/run_{index}.cohtrace";
    }

    std::optional<run::ResultCache> cache;
    if (!cache_dir.empty()) {
      cache.emplace(run::ResultCache::Options{.dir = cache_dir, .read_only = cache_readonly});
      options.cache = &*cache;
    }

    run::Shard shard;
    std::vector<run::ExpandedRun> runs;
    // Grid size without expanding: variants x repeats (expand()'s shape).
    const std::size_t total_runs =
        experiment.variant_count() * std::max<std::size_t>(experiment.repeats, 1);
    if (shard_arg.empty()) {
      runs = experiment.expand();
    } else {
      shard = run::Shard::parse(shard_arg);
      runs = experiment.expand_shard(shard.index, shard.count);
    }

    const run::BatchResult result = run::BatchRunner(options).run(runs, experiment.early_stop);
    if (result.interrupted) {
      // No report: it would describe a truncated batch. The journal (if
      // any) is flushed and well-formed — --resume picks up exactly here.
      std::cerr << "cohesion_run: interrupted (SIGTERM/SIGINT) after " << result.outcomes.size()
                << " runs"
                << (options.checkpoint_path.empty()
                        ? ""
                        : "; journal flushed — rerun with --resume " + options.checkpoint_path)
                << "\n";
      return run::kExitInterrupted;
    }
    // A shard emits a partial report — always deterministic (no timing
    // block; wall numbers go to stderr) so partials diff across machines.
    run::Json report =
        shard_arg.empty()
            ? run::BatchRunner::report_json(experiment, result, timing)
            : run::partial_report_json(experiment, shard, total_runs, result.outcomes);

    if (cache) {
      // Hit/miss traffic is wall-clock-class information: it lands in the
      // timing block (and stderr), never in the deterministic report — a
      // warm --no-timing report must stay byte-identical to a cold one.
      const run::CacheStats stats = cache->stats();
      if (run::Json* t = report.find("timing")) t->set("cache", stats.to_json());
      for (const std::string& cause : cache->reject_causes()) {
        std::cerr << "cache reject: " << cause << "\n";
      }
      std::cerr << "cache: " << stats.hits << " hits, " << stats.misses << " misses, "
                << stats.rejects << " rejects, " << stats.inserts << " inserts";
      if (stats.bypassed > 0) std::cerr << ", " << stats.bypassed << " bypassed (stream mode)";
      std::cerr << " (" << cache_dir << ")\n";
    }

    if (out_path.empty()) {
      std::cout << report.dump(2) << '\n';
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return run::kExitTransient;
      }
      out << report.dump(2) << '\n';
      std::cerr << "report written: " << out_path << " (" << result.outcomes.size() << " runs, "
                << result.threads << " threads, " << result.wall_seconds << " s)\n";
    }

    // One machine-greppable line; ru_maxrss covers the whole process, which
    // is exactly what a bounded-memory claim must bound.
    if (report_rss) std::cerr << "peak_rss_kb: " << peak_rss_kb() << "\n";

    for (const run::RunOutcome& o : result.outcomes) {
      if (!o.error.empty()) {
        std::cerr << "run " << o.index << " (" << o.label << ") failed: " << o.error << "\n";
        return run::kExitPermanent;
      }
    }
    return run::kExitSuccess;
  } catch (const run::TransientError& e) {
    std::cerr << "cohesion_run: " << e.what() << " (transient — retrying may succeed)\n";
    return run::kExitTransient;
  } catch (const std::exception& e) {
    std::cerr << "cohesion_run: " << e.what() << "\n";
    return run::kExitPermanent;
  }
}
