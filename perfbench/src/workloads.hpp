// The repo benchmark's workloads: each generates its spec from a seed,
// runs it through the public library API, checks the result against the
// paper's properties, and reports end-to-end metrics (untraced) or
// per-layer metrics (traced, outside-in; see layers.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (stream traces, cache, spans)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;  ///< runs attempted (a sweep rep counts each of its runs)
  std::uint64_t failed = 0;     ///< runs that threw or failed a correctness check
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs repetitions of one workload for about `options.seconds` and
/// reports medians over them. Throws std::invalid_argument for an unknown
/// workload name.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace perfbench
