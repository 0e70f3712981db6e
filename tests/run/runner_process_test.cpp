// The runner protocol shared by cohesion_launch and cohesion_serve
// (run/runner_process.hpp): the one exit classifier as a table over
// synthetic wait statuses and hand-written partial reports, the
// incremental journal watch, and the graceful stop of a SIGSTOPped runner.
#include "run/runner_process.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "run/exit_codes.hpp"
#include "run/shard.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

/// waitpid encodings (Linux): exit code in bits 8-15, signal in bits 0-6.
constexpr int exited(int code) { return code << 8; }
constexpr int signaled(int sig) { return sig; }

class RunnerProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "runner_process_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static ExperimentSpec sweep() {
    ExperimentSpec e;
    e.name = "runner-process";
    e.base.n = 8;
    e.base.seed = 2024;
    e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
    e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
    e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
    e.base.stop.epsilon = 0.05;
    e.base.stop.max_activations = 20000;
    e.repeats = 3;
    e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(3)}});
    return e;
  }

  std::string write(const std::string& name, const std::string& content) const {
    const std::string path = dir_ + "/" + name;
    std::ofstream(path, std::ios::binary) << content;
    return path;
  }

  std::string partial_for(std::size_t shard, std::size_t of) const {
    const ExperimentSpec e = sweep();
    return write("p" + std::to_string(shard) + "of" + std::to_string(of) + ".json",
                 partial_report_json(e, Shard{shard, of}, 9, {}).dump(2));
  }

  std::string dir_;
};

TEST_F(RunnerProcessTest, OneExitClassifierTable) {
  using Kind = RunnerExit::Kind;
  const std::string mine = partial_for(1, 3);
  const std::string other_shard = partial_for(2, 3);
  const std::string other_width = partial_for(1, 4);
  const std::string garbage = write("garbage.json", R"({"format": "something-else/1"})");
  const std::string none = dir_ + "/absent.json";
  struct Row {
    int status;
    std::string partial;
    Kind kind;
    int exit_code;
  };
  const std::vector<Row> table = {
      // A usable partial for this (shard, of) covers at any exit code.
      {exited(kExitSuccess), mine, Kind::covered, kExitSuccess},
      {exited(kExitPermanent), mine, Kind::covered, kExitPermanent},
      {exited(kExitTransient), mine, Kind::covered, kExitTransient},
      // Exit 0 without one is transient — whatever stands in its place.
      {exited(kExitSuccess), none, Kind::transient, kExitTransient},
      {exited(kExitSuccess), other_shard, Kind::transient, kExitTransient},
      {exited(kExitSuccess), other_width, Kind::transient, kExitTransient},
      {exited(kExitSuccess), garbage, Kind::transient, kExitTransient},
      // Otherwise the exit-code taxonomy decides.
      {exited(kExitPermanent), none, Kind::permanent, kExitPermanent},
      {exited(kExitPermanent), other_shard, Kind::permanent, kExitPermanent},
      {exited(kExitUsage), none, Kind::permanent, kExitUsage},
      {exited(kExitTransient), none, Kind::transient, kExitTransient},
      {exited(kExitInterrupted), none, Kind::transient, kExitInterrupted},
      {exited(kExitTransientNetwork), none, Kind::transient, kExitTransientNetwork},
      {exited(127), none, Kind::permanent, 127},  // exec failure
      // A signal death is transient, even next to a usable partial.
      {signaled(SIGKILL), mine, Kind::transient, kExitTransient},
      {signaled(SIGTERM), none, Kind::transient, kExitTransient},
  };
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Row& row = table[i];
    const RunnerExit got = classify_runner_exit(row.status, row.partial, 1, 3);
    EXPECT_EQ(got.kind, row.kind) << "row " << i << ": " << got.reason;
    EXPECT_EQ(got.exit_code, row.exit_code) << "row " << i << ": " << got.reason;
    if (got.kind != Kind::covered) {
      EXPECT_EQ(exit_code_retryable(got.exit_code), got.kind == Kind::transient) << "row " << i;
    }
  }
  EXPECT_EQ(classify_runner_exit(signaled(SIGKILL), none, 1, 3).reason, "killed by signal 9");
}

TEST_F(RunnerProcessTest, JournalWatchHandsOutEachOutcomeOnce) {
  const std::string header = R"({"format": "cohesion-checkpoint/1"})";
  const auto line = [](std::size_t index) {
    RunOutcome o;
    o.index = index;
    return o.to_json().dump() + "\n";
  };
  const std::string path = write("watch.ckpt", header + "\n" + line(0) + line(1));
  JournalWatch watch(path);
  JournalStat stat;
  std::vector<RunOutcome> fresh = watch.poll(stat);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(stat.outcome_lines, 2u);
  EXPECT_TRUE(watch.poll(stat).empty());  // unchanged: nothing new

  std::ofstream(path, std::ios::binary | std::ios::app) << line(2) << R"({"index": 3, "va)";
  fresh = watch.poll(stat);
  ASSERT_EQ(fresh.size(), 1u);  // the torn tail is not an outcome
  EXPECT_EQ(fresh[0].index, 2u);

  // A rewrite (the file shrank) hands everything out again.
  write("watch.ckpt", header + "\n" + line(0));
  fresh = watch.poll(stat);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].index, 0u);
}

TEST_F(RunnerProcessTest, StopEndsAStoppedRunnerGracefully) {
  const std::string runner = fs::path(sibling_runner()).string();
  if (!fs::exists(runner)) GTEST_SKIP() << "cohesion_run not found next to the test binary";
  const std::string spec = write("sweep.json", sweep().to_json().dump(2));
  RunnerProcess process(RunnerCommand{.runner = runner,
                                      .spec_path = spec,
                                      .shard = 0,
                                      .of = 1,
                                      .stem = dir_ + "/shard_0",
                                      .throttle_ms = 60});
  const std::string journal = process.command().journal_path();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stat_journal(journal).outcome_lines == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(stat_journal(journal).outcome_lines, 0u) << "runner never journaled";

  // A stopped process holds SIGTERM until continued; stop() must not hang.
  // The watchdog continues the runner after 10 s, so a stop() that forgot
  // SIGCONT fails the timing check below instead of hanging the suite.
  process.signal(SIGSTOP);
  std::atomic<bool> stopped{false};
  std::thread watchdog([&stopped, pid = process.pid()] {
    const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!stopped && std::chrono::steady_clock::now() < limit) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!stopped) ::kill(pid, SIGCONT);
  });
  const auto t0 = std::chrono::steady_clock::now();
  const RunnerExit exit = process.stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  stopped = true;
  watchdog.join();
  EXPECT_LT(seconds, 10.0);
  EXPECT_EQ(exit.exit_code, kExitInterrupted) << exit.reason;
  EXPECT_EQ(exit.kind, RunnerExit::Kind::transient);

  std::vector<RunOutcome> outcomes;
  ASSERT_TRUE(read_journal_outcomes(journal, outcomes));
  EXPECT_FALSE(outcomes.empty());
  EXPECT_LT(outcomes.size(), 9u);
}

}  // namespace
}  // namespace cohesion::run
