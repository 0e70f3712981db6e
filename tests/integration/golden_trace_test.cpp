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
             0x62aac0b6db721b45ull, {0xa1ba6b8439a99034ull, 0x626d496fd6727bf9ull}),
      golden("fsync_open_noisy", 24, fsync, true, true, random,
             0x3c6119ba72bd86ceull, {0xe4951fef4a8fa99bull, 0xab69359749b1ed74ull}),
      golden("ssync_closed_noisy", 80, ssync, false, true, grid,
             0xd9c8fd2736b2c15eull, {0xf979c13763909ed2ull, 0x84083c935c859137ull}),
      golden("ssync_open_exact", 24, ssync, true, false, random,
             0xdd0461d01b1c583cull, {0x2d7d1924b57ff191ull, 0x751697a0d00b6d36ull}),
      golden("kasync_closed_exact", 24, kasync, false, false, random,
             0x08ebf1909c1b4699ull, {0xfb9f292208f32625ull, 0xa987c4951bc2eb7eull}),
      golden("kasync_open_noisy", 96, kasync, true, true, grid,
             0xcd955bc49533a08full, {0x90657887172908e0ull, 0x57f544dce06b35cfull}),
      golden("knesta_closed_noisy", 24, knesta, false, true, random,
             0xbea78fea980f9158ull, {0xca6d87898badac2bull, 0xb915cd87b896dabaull}),
      golden("knesta_open_exact", 80, knesta, true, false, grid,
             0x1790a68bc616acb0ull, {0x804f48d64284f3afull, 0x11f985b7c920724dull}),
      golden("async_closed_noisy", 80, async, false, true, grid,
             0x35895b1e2fce34ebull, {0xe7a78442f7bb855full, 0xa25fc222884372c6ull}),
      golden("async_open_exact", 24, async, true, false, random,
             0x4fd77fa910da16bbull, {0x40bc29cdc382e75cull, 0x87ff7d5b2772a682ull}),
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
