// End-to-end result-cache coverage at the process level: concurrent
// sharded `cohesion_run --shard i/N --cache DIR` workers sharing one cache
// directory, merged by `cohesion_merge` back to the byte-identical
// single-process `--no-timing` report — cold and warm; plus the
// atomic-insert race (several whole-sweep processes, and several worker
// threads in one process, all publishing the same keys at once — the
// in-process variant is what COHESION_SANITIZE=thread inspects). Unit
// layer: tests/run/result_cache_test.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../process_helpers.hpp"
#include "run/batch_runner.hpp"
#include "run/result_cache.hpp"
#include "run/spec.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

using namespace e2e;

class CacheE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    runner_ = build_dir() + "/cohesion_run";
    merger_ = build_dir() + "/cohesion_merge";
    if (!fs::exists(runner_) || !fs::exists(merger_)) {
      GTEST_SKIP() << "cohesion_run/cohesion_merge not found next to the test binary";
    }
    dir_ = std::string(::testing::TempDir()) + "cache_e2e_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spec_path_ = dir_ + "/sweep.json";
    std::ofstream out(spec_path_);
    out << sweep_spec().to_json().dump(2) << '\n';
    cache_dir_ = dir_ + "/cache";
    log_ = dir_ + "/workers.log";
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// 3 scheduler-k variants x 2 repeats = 6 runs with derived seeds — the
  /// same shape the shard/supervisor e2e layers use, sized to finish fast.
  static ExperimentSpec sweep_spec() {
    ExperimentSpec e;
    e.name = "cached";
    e.base.n = 8;
    e.base.seed = 2026;
    e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
    e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
    e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
    e.base.stop.epsilon = 0.05;
    e.base.stop.max_activations = 20000;
    e.repeats = 2;
    e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(3)}});
    return e;
  }

  /// How many entry files (not temp leftovers) the shared cache dir holds.
  std::pair<std::size_t, std::size_t> cache_census() const {
    std::size_t entries = 0;
    std::size_t temps = 0;
    for (const auto& it : fs::directory_iterator(cache_dir_)) {
      const std::string name = it.path().filename().string();
      if (name.find(".tmp.") != std::string::npos) {
        ++temps;
      } else {
        ++entries;
      }
    }
    return {entries, temps};
  }

  std::string runner_;
  std::string merger_;
  std::string dir_;
  std::string spec_path_;
  std::string cache_dir_;
  std::string log_;
};

TEST_F(CacheE2E, ShardedWorkersShareOneCacheAndMergeByteIdentical) {
  // Reference: fresh single process, cache disabled.
  const std::string ref_path = dir_ + "/ref.json";
  ASSERT_EQ(run_tool({runner_, spec_path_, "--no-cache", "--no-timing", "--out", ref_path}, log_),
            0);
  const std::string reference = read_file(ref_path);
  ASSERT_FALSE(reference.empty());

  const auto shard_round = [&](const std::string& tag) {
    std::vector<::pid_t> pids;
    std::vector<std::string> partials;
    for (int i = 0; i < 3; ++i) {
      const std::string partial = dir_ + "/" + tag + "_p" + std::to_string(i) + ".json";
      partials.push_back(partial);
      pids.push_back(spawn_tool({runner_, spec_path_, "--shard", std::to_string(i) + "/3",
                                 "--cache", cache_dir_, "--no-timing", "--out", partial},
                                log_));
    }
    for (const ::pid_t pid : pids) EXPECT_EQ(wait_code(pid), 0);
    const std::string merged = dir_ + "/" + tag + "_merged.json";
    EXPECT_EQ(run_tool({merger_, partials[0], partials[1], partials[2], "--out", merged}, log_), 0);
    return read_file(merged);
  };

  // Cold round: three concurrent workers populate one directory; the merge
  // must equal the no-cache single-process report byte for byte.
  EXPECT_EQ(shard_round("cold"), reference);
  auto [entries, temps] = cache_census();
  EXPECT_EQ(entries, 6u) << "6 derived-seed runs, 6 entries";
  EXPECT_EQ(temps, 0u) << "atomic publish must leave no temp files";

  // Warm round: same workers again — every run served, same bytes again.
  EXPECT_EQ(shard_round("warm"), reference);
  const std::string worker_log = read_file(log_);
  EXPECT_NE(worker_log.find("cache: 2 hits, 0 misses"), std::string::npos)
      << "each warm shard (2 runs) must report pure hits:\n" << worker_log;

  // A warm whole-sweep process reproduces the reference from hits alone.
  const std::string warm_path = dir_ + "/warm_full.json";
  ASSERT_EQ(run_tool({runner_, spec_path_, "--cache", cache_dir_, "--no-timing", "--out",
                      warm_path},
                     log_),
            0);
  EXPECT_EQ(read_file(warm_path), reference);
  EXPECT_NE(read_file(log_).find("cache: 6 hits, 0 misses"), std::string::npos);
}

TEST_F(CacheE2E, RacingWholeSweepProcessesPublishAtomically) {
  // Three *unsharded* processes run the whole sweep at once against one
  // empty cache directory — every insert races every other process's
  // insert of the same key. Deterministic runs make the bytes identical,
  // so last-rename-wins must leave exactly one valid entry per key and
  // three byte-identical reports.
  std::vector<::pid_t> pids;
  std::vector<std::string> outs;
  for (int i = 0; i < 3; ++i) {
    const std::string out = dir_ + "/race" + std::to_string(i) + ".json";
    outs.push_back(out);
    pids.push_back(
        spawn_tool({runner_, spec_path_, "--cache", cache_dir_, "--no-timing", "--out", out},
                   log_));
  }
  for (const ::pid_t pid : pids) EXPECT_EQ(wait_code(pid), 0);
  const std::string first = read_file(outs[0]);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(read_file(outs[1]), first);
  EXPECT_EQ(read_file(outs[2]), first);

  auto [entries, temps] = cache_census();
  EXPECT_EQ(entries, 6u);
  EXPECT_EQ(temps, 0u);

  // Whatever the interleaving published must now serve a clean warm run.
  const std::string warm = dir_ + "/race_warm.json";
  ASSERT_EQ(run_tool({runner_, spec_path_, "--cache", cache_dir_, "--no-timing", "--out", warm},
                     log_),
            0);
  EXPECT_EQ(read_file(warm), first);
  // No worker may ever have seen a torn entry — a reject would have been
  // announced on stderr with a "; recomputing" cause line.
  const std::string worker_log = read_file(log_);
  EXPECT_EQ(worker_log.find("recomputing"), std::string::npos) << worker_log;
}

TEST_F(CacheE2E, WorkerThreadsShareOneCacheInProcess) {
  // The thread-sanitizer target: four workers of one BatchRunner hammer a
  // shared ResultCache whose keys collide (pinned-seed repeats make every
  // variant's repeats one identity). Lookups, inserts and the stats
  // counters all race; the report must not care.
  ExperimentSpec e;
  e.name = "tsan";
  e.base.n = 6;
  e.base.seed = 99;
  e.base.stop.max_activations = 2000;
  e.repeats = 4;
  e.axes.push_back({"seed", {Json(51), Json(52), Json(53)}});  // 3 variants x 4 repeats

  BatchRunner::Options plain;
  plain.threads = 4;
  const std::string reference =
      BatchRunner::report_json(e, BatchRunner(plain).run(e), false).dump(2);

  ResultCache cache(ResultCache::Options{.dir = cache_dir_});
  BatchRunner::Options cached = plain;
  cached.cache = &cache;
  const std::string warm = BatchRunner::report_json(e, BatchRunner(cached).run(e), false).dump(2);
  EXPECT_EQ(warm, reference);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 12u) << "every run looks up exactly once";
  EXPECT_GE(stats.misses, 3u) << "each of the 3 identities misses at least once";
  EXPECT_EQ(stats.rejects, 0u);
  EXPECT_EQ(stats.inserts, stats.misses) << "every executed run publishes";

  // A second batch over the now-complete cache is pure hits.
  ResultCache warm_cache(ResultCache::Options{.dir = cache_dir_});
  BatchRunner::Options rewarmed = plain;
  rewarmed.cache = &warm_cache;
  EXPECT_EQ(BatchRunner::report_json(e, BatchRunner(rewarmed).run(e), false).dump(2), reference);
  EXPECT_EQ(warm_cache.stats().hits, 12u);
  EXPECT_EQ(warm_cache.stats().misses, 0u);

  auto [entries, temps] = cache_census();
  EXPECT_EQ(entries, 3u) << "12 runs, 3 identities, 3 entries";
  EXPECT_EQ(temps, 0u);
}

}  // namespace
}  // namespace cohesion::run
