// cohesion_merge — combine the partial reports of a sharded sweep
// (`cohesion_run sweep.json --shard i/N`) into the exact report a single
// process would have produced: byte-identical to
// `cohesion_run sweep.json --no-timing` (asserted in tests/run/shard_test.cpp
// and tests/integration/cache_e2e_test.cpp).
//
//   cohesion_merge p0.json p1.json p2.json            # merged report, stdout
//   cohesion_merge p*.json --out report.json          # ... to a file
//
// Input order does not matter; every shard of the sweep must be present
// exactly once and the partials must come from the same spec file — merge
// refuses anything else with an error naming the missing/conflicting
// shard. Cache-served outcomes survive merge untouched: a shard worker
// running with --cache writes the byte-identical outcome a recomputation
// would have (run/result_cache contract), so partials produced by any mix
// of warm and cold workers merge to the same report — asserted end to end
// in tests/integration/cache_e2e_test.cpp. Runbook: docs/operations.md.
// Exit codes (taxonomy in
// docs/experiments.md): 0 success, 1 invalid/incomplete partials
// (permanent — the inputs are wrong), 2 bad usage, 3 transient I/O (an
// input not readable yet, --out unwritable — retry once the file lands).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "run/exit_codes.hpp"
#include "run/shard.hpp"

using namespace cohesion;

namespace {

int usage(int code) {
  std::cout << "usage: cohesion_merge <partial1.json> <partial2.json> ... [--out FILE]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!arg.starts_with("--")) {
      inputs.push_back(arg);
    } else {
      std::cerr << "bad argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (inputs.empty()) return usage(2);

  try {
    std::vector<run::Json> partials;
    partials.reserve(inputs.size());
    for (const std::string& path : inputs) {
      // An absent partial is transient (its shard may still be running or
      // copying); a present-but-invalid one is a permanent input error.
      std::ifstream probe(path);
      if (!probe) throw run::TransientError("cannot open partial report " + path);
      probe.close();
      partials.push_back(run::Json::parse_file(path));
    }
    const run::Json report = run::merge_partial_reports(partials);

    if (out_path.empty()) {
      std::cout << report.dump(2) << '\n';
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return run::kExitTransient;
      }
      out << report.dump(2) << '\n';
      std::cerr << "merged report written: " << out_path << " (" << inputs.size()
                << " partials)\n";
    }
    return run::kExitSuccess;
  } catch (const run::TransientError& e) {
    std::cerr << "cohesion_merge: " << e.what() << " (transient — retrying may succeed)\n";
    return run::kExitTransient;
  } catch (const std::exception& e) {
    std::cerr << "cohesion_merge: " << e.what() << "\n";
    return run::kExitPermanent;
  }
}
