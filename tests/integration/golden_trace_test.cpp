// Golden trace pins: the FNV-1a 64 hashes of the `.cohtrace` bytes and of
// the `--no-timing` report of ten small seeded specs, covering every
// scheduler family x open/closed ball x exact/noisy error, with swarms on
// both sides of VisibilityGraph's brute/grid threshold.
//
// These pins turn "bit-identical dynamics" (docs/architecture.md, contract
// 2) into a tier-1 check: a performance change to a hot path must leave
// every value here unchanged. They change only together with a
// run::kDynamicsVersion bump. The bytes depend on libm, so the pins hold
// for the toolchain they were recorded with (g++ 12.2, glibc 2.36); on any
// other toolchain the test is skipped, not failed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "run/batch_runner.hpp"
#include "run/spec.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct GoldenCase {
  std::string name;
  std::string spec;  ///< ExperimentSpec JSON, as a cohesion_run spec file
  std::uint64_t report;
  std::vector<std::uint64_t> traces;  ///< one per run, in grid order
};

/// A 2-repeat KKNPS(k = 2) sweep. Noisy cases set every perception and
/// motion error the engine has, and KKNPS assumes their distance_delta.
GoldenCase golden(const std::string& name, int n, const std::string& scheduler, bool open_ball,
                  bool noisy, const std::string& initial, std::uint64_t report,
                  std::vector<std::uint64_t> traces) {
  const std::string error =
      noisy ? R"({"type": "noisy", "params": {"distance_delta": 0.02, "skew_lambda": 0.02,)"
              R"( "motion_quad_coeff": 0.05, "allow_reflection": true}})"
            : R"({"type": "exact"})";
  std::ostringstream s;
  s << R"({"name": ")" << name << R"(", "repeats": 2, "base": {"name": ")" << name
    << R"(", "n": )" << n << R"(, "seed": 4242, "algorithm": {"type": "kknps", "params": )"
    << R"({"k": 2, "distance_delta": )" << (noisy ? "0.02" : "0") << "}}, "
    << R"("scheduler": )" << scheduler << R"(, "error": )" << error << R"(, "initial": )"
    << initial << R"(, "visibility": {"radius": 1.0, "open_ball": )"
    << (open_ball ? "true" : "false") << "}, "
    << R"("stop": {"epsilon": 0.02, "max_activations": 1500, "check_every": 64}}})";
  return {name, s.str(), report, std::move(traces)};
}

TEST(GoldenTrace, PinnedSpecsReproduceTheirTraceAndReportBytes) {
#if !(defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && __GNUC_MINOR__ == 2 && \
      defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ == 36)
  GTEST_SKIP() << "golden pins are recorded with g++ 12.2 and glibc 2.36";
#endif
  const std::string random = R"({"type": "random", "params": {"world_radius_per_sqrt_n": 0.4}})";
  const std::string grid = R"({"type": "grid", "params": {"spacing": 0.8}})";
  const std::string fsync = R"({"type": "fsync"})";
  const std::string ssync = R"({"type": "ssync", "params": {"xi": 0.6}})";
  const std::string kasync = R"({"type": "kasync", "params": {"k": 2, "xi": 0.5}})";
  const std::string knesta = R"({"type": "knesta", "params": {"k": 2, "xi": 0.5}})";
  const std::string async = R"({"type": "async", "params": {"xi": 0.5}})";
  const std::vector<GoldenCase> cases = {
      golden("fsync_closed_exact", 96, fsync, false, false, grid,
             0x339603af9714ed8aull, {0x084cf0a11994f577ull, 0x901fa0cb2a6c33c4ull}),
      golden("fsync_open_noisy", 24, fsync, true, true, random,
             0xb94e5e7b18e1d857ull, {0x86039e71098def7bull, 0x8316ad18466f8be2ull}),
      golden("ssync_closed_noisy", 80, ssync, false, true, grid,
             0x10ef4dd48d20b6fcull, {0x1454383f91d983feull, 0xa64b244b77eba455ull}),
      golden("ssync_open_exact", 24, ssync, true, false, random,
             0xb7667002d6cd147cull, {0xe156b93d5ccb6afeull, 0xa214317743bb3d29ull}),
      golden("kasync_closed_exact", 24, kasync, false, false, random,
             0x1b6c65ead81a2c0dull, {0x5c4b959176ee5745ull, 0xbebd5a7c7c23cb8eull}),
      golden("kasync_open_noisy", 96, kasync, true, true, grid,
             0x8b5df7c16bb4f3deull, {0x253b567cc873feffull, 0x3270980b105db079ull}),
      golden("knesta_closed_noisy", 24, knesta, false, true, random,
             0x2509aeb2f9ff891aull, {0x3b1eaf4d3b5dbbfeull, 0x0e78dd75fd91854aull}),
      golden("knesta_open_exact", 80, knesta, true, false, grid,
             0x64bd811a0d780e0full, {0x09d5b843bf784a6cull, 0x146043ce61f9bb1aull}),
      golden("async_closed_noisy", 80, async, false, true, grid,
             0xf875ddbb5a368eebull, {0x1a01c5345e4a2a12ull, 0x587d4ef421537583ull}),
      golden("async_open_exact", 24, async, true, false, random,
             0x019d6f3a482a33e4ull, {0x80513df1c2c46334ull, 0xf8c993c9e8f1113eull}),
  };

  const fs::path dir =
      fs::temp_directory_path() / ("cohesion_golden_trace_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::ostringstream actual;  // copy-paste form of every value, for a deliberate re-pin
  for (const GoldenCase& g : cases) {
    const fs::path case_dir = dir / g.name;
    fs::create_directories(case_dir);
    // What `cohesion_run spec.json --no-timing --trace-dir DIR` does.
    ExperimentSpec experiment = ExperimentSpec::from_json(Json::parse(g.spec));
    experiment.base.trace.mode = "stream";
    experiment.base.trace.path = case_dir.string() + "/run_{index}.cohtrace";
    const BatchResult result = BatchRunner().run(experiment.expand(), experiment.early_stop);
    ASSERT_EQ(result.outcomes.size(), g.traces.size()) << g.name;
    for (const RunOutcome& o : result.outcomes) ASSERT_TRUE(o.error.empty()) << o.error;

    // The report names the trace files; hash it with the directory masked.
    std::string report = BatchRunner::report_json(experiment, result, false).dump(2) + "\n";
    for (std::size_t at = report.find(case_dir.string()); at != std::string::npos;
         at = report.find(case_dir.string(), at)) {
      report.replace(at, case_dir.string().size(), "DIR");
    }
    const std::uint64_t report_hash = fnv1a(report);
    actual << g.name << ": 0x" << fingerprint_hex(report_hash) << "ull, {";
    EXPECT_EQ(fingerprint_hex(report_hash), fingerprint_hex(g.report)) << g.name << " report";
    for (std::size_t i = 0; i < g.traces.size(); ++i) {
      const std::uint64_t h =
          fnv1a(read_file((case_dir / ("run_" + std::to_string(i) + ".cohtrace")).string()));
      actual << (i ? ", " : "") << "0x" << fingerprint_hex(h) << "ull";
      EXPECT_EQ(fingerprint_hex(h), fingerprint_hex(g.traces[i])) << g.name << " run " << i;
    }
    actual << "}\n";
  }
  fs::remove_all(dir);
  if (HasFailure()) ADD_FAILURE() << "actual pins:\n" << actual.str();
}

}  // namespace
}  // namespace cohesion::run
