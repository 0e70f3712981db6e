// Bounded-memory stream mode at the process level, on
// bench/specs/stream_run.json (n = 16384, 250,000 activations):
// `cohesion_run --trace-dir` stays under a fixed peak-RSS ceiling, its
// report equals the in-memory run's report once the trace fields are
// removed, and `cohesion_replay --check` accepts the stream against that
// report, refuses a report with one metric edited (exit 1) and a missing
// stream (exit 3). Unit layer: stream_io_test.cpp, online_metrics_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "../process_helpers.hpp"
#include "run/exit_codes.hpp"
#include "run/json.hpp"

namespace cohesion {
namespace {

namespace fs = std::filesystem;
using namespace e2e;
using run::Json;

/// Peak RSS that stream mode must stay under at this spec's size; the
/// in-memory run of the same spec needs about 40 MB.
constexpr long kStreamRssCeilingKb = 32768;

long peak_rss_kb_in(const std::string& log) {
  const std::string tag = "peak_rss_kb: ";
  const std::size_t at = log.find(tag);
  return at == std::string::npos ? -1 : std::stol(log.substr(at + tag.size()));
}

void drop_key(Json& object, const std::string& key) {
  std::erase_if(object.entries(), [&](const auto& entry) { return entry.first == key; });
}

TEST(StreamE2E, StreamRunStaysUnderTheRssCeilingAndReplayChecksItsReport) {
  const std::string runner = build_dir() + "/cohesion_run";
  const std::string replay = build_dir() + "/cohesion_replay";
  if (!fs::exists(runner) || !fs::exists(replay)) {
    GTEST_SKIP() << "cohesion_run/cohesion_replay not found next to the test binary";
  }
  const std::string dir = ::testing::TempDir() + "stream_e2e";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string spec = std::string(COHESION_SOURCE_DIR) + "/bench/specs/stream_run.json";
  const std::string stream_report = dir + "/stream.json";
  const std::string memory_report = dir + "/memory.json";

  ASSERT_EQ(run_tool({runner, spec, "--no-timing", "--no-cache", "--trace-dir", dir + "/traces",
                      "--peak-rss", "--out", stream_report},
                     dir + "/stream.log"),
            run::kExitSuccess)
      << read_file(dir + "/stream.log");
  ASSERT_EQ(run_tool({runner, spec, "--no-timing", "--no-cache", "--peak-rss", "--out",
                      memory_report},
                     dir + "/memory.log"),
            run::kExitSuccess)
      << read_file(dir + "/memory.log");

  const long stream_rss = peak_rss_kb_in(read_file(dir + "/stream.log"));
  const long memory_rss = peak_rss_kb_in(read_file(dir + "/memory.log"));
  ASSERT_GT(stream_rss, 0);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Shadow memory inflates every RSS figure; only the ordering survives.
  EXPECT_LT(stream_rss, memory_rss);
#else
  EXPECT_LE(stream_rss, kStreamRssCeilingKb) << "in-memory run: " << memory_rss << " KB";
#endif

  Json stream = Json::parse_file(stream_report);
  Json* experiment = stream.find("experiment");
  ASSERT_NE(experiment, nullptr);
  drop_key(*experiment->find("base"), "trace");
  for (Json& r : stream.find("runs")->items()) {
    drop_key(r, "trace_path");
    drop_key(r, "trace_fingerprint");
  }
  EXPECT_EQ(stream.dump(2), Json::parse_file(memory_report).dump(2));

  const std::string trace = dir + "/traces/run_0.cohtrace";
  const std::string log = dir + "/replay.log";
  EXPECT_EQ(run_tool({replay, trace, "--check", stream_report}, log), run::kExitSuccess)
      << read_file(log);

  Json edited = Json::parse_file(stream_report);
  Json& run0 = edited.find("runs")->items().at(0);
  run0.set("final_diameter", run0.at("final_diameter").as_double() * 0.5);
  const std::string edited_report = dir + "/edited.json";
  std::ofstream(edited_report) << edited.dump(2) << '\n';
  EXPECT_EQ(run_tool({replay, trace, "--check", edited_report}, log), run::kExitPermanent)
      << read_file(log);

  EXPECT_EQ(run_tool({replay, dir + "/traces/absent.cohtrace", "--check", stream_report}, log),
            run::kExitTransient)
      << read_file(log);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cohesion
