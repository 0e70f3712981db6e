// Crash-injection acceptance battery for cohesion_serve (unit layer:
// job_table_test.cpp). Each test stands up a real daemon plus real
// `cohesion_serve --worker` processes (which spawn real `cohesion_run`
// runners) from the build tree over a Unix socket, injects a fault —
// SIGKILL a worker mid-run, SIGTERM + restart the daemon mid-run, elastic
// grow/shrink, retry exhaustion, a peer sending an oversized line — and
// holds the served report to contract 13: byte-identical to the fresh
// single-process `--no-timing` report under every partition history, or an
// explicit cohesion-supervised-partial/1 document naming the uncovered work.
#include <signal.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "../process_helpers.hpp"
#include "run/batch_runner.hpp"
#include "run/exit_codes.hpp"
#include "run/spec.hpp"
#include "serve/job_table.hpp"
#include "serve/protocol.hpp"

namespace cohesion::serve {
namespace {

namespace fs = std::filesystem;

using namespace e2e;

bool wait_for(const std::function<bool()>& pred, double timeout_seconds = 90.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    serve_ = build_dir() + "/cohesion_serve";
    runner_ = build_dir() + "/cohesion_run";
    if (!fs::exists(serve_) || !fs::exists(runner_)) {
      GTEST_SKIP() << "cohesion_serve/cohesion_run not found next to the test binary";
    }
    dir_ = std::string(::testing::TempDir()) + "serve_e2e_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    address_ = "unix:" + dir_ + "/serve.sock";
    ledger_ = dir_ + "/serve.ledger";
    spec_path_ = dir_ + "/sweep.json";
    std::ofstream out(spec_path_);
    out << sweep_spec().to_json().dump(2) << '\n';
  }

  void TearDown() override {
    // Belt and braces: no child outlives its test.
    for (const ::pid_t pid : spawned_) {
      if (::kill(pid, 0) == 0) {
        ::kill(pid, SIGKILL);
        wait_code(pid);
      }
    }
    fs::remove_all(dir_);
  }

  /// launch_e2e's sharded sweep: 3 scheduler-k variants x 3 repeats = 9
  /// runs, each throttle-paced so faults land mid-shard.
  static run::ExperimentSpec sweep_spec() {
    run::ExperimentSpec e;
    e.name = "served";
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

  /// Wider grid (8 variants x 2 repeats) for the elastic-grow test: N=4
  /// needs at least 4 variants to be a meaningful partition.
  static run::ExperimentSpec wide_spec() {
    run::ExperimentSpec e = sweep_spec();
    e.name = "served_wide";
    e.repeats = 2;
    e.axes.clear();
    e.axes.push_back({"scheduler.params.k",
                      {Json(1), Json(2), Json(3), Json(4), Json(5), Json(6), Json(7), Json(8)}});
    return e;
  }

  void write_spec(const run::ExperimentSpec& e) {
    std::ofstream out(spec_path_, std::ios::trunc);
    out << e.to_json().dump(2) << '\n';
  }

  /// The acceptance reference: the fresh single-process `--no-timing`
  /// report computed from the very spec file the daemon serves, plus the
  /// trailing newline `--out` files carry.
  std::string expected_report() const {
    const run::ExperimentSpec e =
        run::ExperimentSpec::from_json(Json::parse_file(spec_path_));
    const run::BatchResult result = run::BatchRunner().run(e);
    return run::BatchRunner::report_json(e, result, false).dump(2) + "\n";
  }

  ::pid_t start_daemon(const std::vector<std::string>& extra = {}) {
    std::vector<std::string> args = {serve_,          "--listen",       address_,
                                     "--ledger",      ledger_,          "--poll-interval",
                                     "0.01",          "--status-interval", "0.5",
                                     "--backoff-base", "0.05",          "--backoff-max",
                                     "0.2",           "--jitter",       "0"};
    args.insert(args.end(), extra.begin(), extra.end());
    return track(spawn_tool(args, dir_ + "/daemon.log"));
  }

  ::pid_t start_worker(const std::string& name, std::size_t throttle_ms,
                       const std::vector<std::string>& extra = {}) {
    std::vector<std::string> args = {serve_,
                                     "--worker",
                                     address_,
                                     "--name",
                                     name,
                                     "--work-dir",
                                     dir_ + "/" + name + ".work",
                                     "--runner",
                                     runner_,
                                     "--throttle-ms",
                                     std::to_string(throttle_ms)};
    args.insert(args.end(), extra.begin(), extra.end());
    return track(spawn_tool(args, dir_ + "/" + name + ".log"));
  }

  ::pid_t start_submit_wait() {
    return track(spawn_tool({serve_, "--submit", spec_path_, address_, "--wait", "--out",
                             dir_ + "/report.json"},
                            dir_ + "/submit.log"));
  }

  [[nodiscard]] std::string daemon_log() const { return read_file(dir_ + "/daemon.log"); }
  [[nodiscard]] std::string ledger_bytes() const { return read_file(ledger_); }

  bool daemon_log_contains(const std::string& needle) const {
    return daemon_log().find(needle) != std::string::npos;
  }
  [[nodiscard]] std::size_t ledger_outcomes() const {
    return count_occurrences(ledger_bytes(), "\"event\":\"outcome\"");
  }
  [[nodiscard]] bool job_terminal_in_ledger() const {
    const std::string bytes = ledger_bytes();
    return bytes.find("\"event\":\"done\"") != std::string::npos ||
           bytes.find("\"event\":\"failed\"") != std::string::npos;
  }

  void term_and_expect(::pid_t pid, int code) {
    ::kill(pid, SIGTERM);
    EXPECT_EQ(wait_code(pid), code);
  }

  ::pid_t track(::pid_t pid) {
    spawned_.push_back(pid);
    return pid;
  }

  std::string serve_, runner_, dir_, address_, ledger_, spec_path_;
  std::vector<::pid_t> spawned_;
};

TEST_F(ServeE2E, TwoWorkersServeByteIdenticalReport) {
  const ::pid_t daemon = start_daemon();
  const ::pid_t submit = start_submit_wait();
  start_worker("w1", 20);
  start_worker("w2", 20);
  ASSERT_EQ(wait_code(submit), 0);
  EXPECT_EQ(read_file(dir_ + "/report.json"), expected_report());
  EXPECT_TRUE(daemon_log_contains("\"event\":\"done\"") || job_terminal_in_ledger());
  // Orderly shutdown: the op answers, then the daemon exits 0.
  EXPECT_EQ(wait_code(spawn_tool({serve_, "--shutdown", address_}, dir_ + "/shutdown.log")), 0);
  EXPECT_EQ(wait_code(daemon), 0);
}

TEST_F(ServeE2E, SigkilledWorkerShrinksPartitionReportStaysByteIdentical) {
  start_daemon();
  // All three workers join BEFORE the job exists, so the first lease
  // request partitions the grid straight to N=3 with every shard a full,
  // untouched 3-run slice. 400ms/run keeps each shard alive (~1.2s) well
  // past the 0.5s heartbeat cadence, so outcomes stream to the ledger
  // while every lease still has uncovered work.
  start_worker("w1", 400);
  start_worker("w2", 400);
  const ::pid_t victim = start_worker("w3", 400);
  ASSERT_TRUE(wait_for([&] { return daemon_log_contains("(3 active)"); })) << daemon_log();
  const ::pid_t submit = start_submit_wait();

  // Wait until every /3 shard is leased — the victim provably holds one —
  // and real work is streaming in, then SIGKILL mid-run: no flush, no
  // release, a true crash on a lease with unfinished work.
  ASSERT_TRUE(wait_for([&] {
    return daemon_log_contains("leased shard 0/3") &&
           daemon_log_contains("leased shard 1/3") &&
           daemon_log_contains("leased shard 2/3") &&
           ledger_outcomes() >= 1 && !job_terminal_in_ledger();
  })) << daemon_log();
  ::kill(victim, SIGKILL);
  ASSERT_EQ(wait_code(victim), 128 + SIGKILL);

  ASSERT_EQ(wait_code(submit), 0) << daemon_log() << read_file(dir_ + "/submit.log");
  EXPECT_EQ(read_file(dir_ + "/report.json"), expected_report());
  // The death was observed and answered with an elastic shrink.
  EXPECT_TRUE(daemon_log_contains("re-partitioned 3 -> 2")) << daemon_log();
}

TEST_F(ServeE2E, JoiningWorkersGrowPartitionReportStaysByteIdentical) {
  write_spec(wide_spec());
  start_daemon();
  const ::pid_t submit = start_submit_wait();
  start_worker("w1", 100);
  start_worker("w2", 100);
  ASSERT_TRUE(wait_for([&] { return daemon_log_contains("/2 to worker"); })) << daemon_log();

  // Two late joiners: their idle lease requests grow the partition to 4,
  // revoking the outstanding leases gracefully (journals flush, outcomes
  // fold back). Whether that is one step (2 -> 4) or two (2 -> 3 -> 4)
  // depends on join timing; only the destination is contractual.
  start_worker("w3", 100);
  start_worker("w4", 100);
  ASSERT_TRUE(wait_for([&] { return daemon_log_contains("-> 4 shards"); })) << daemon_log();
  EXPECT_TRUE(daemon_log_contains("re-partitioned 2 -> ")) << daemon_log();

  ASSERT_EQ(wait_code(submit), 0) << daemon_log() << read_file(dir_ + "/submit.log");
  EXPECT_EQ(read_file(dir_ + "/report.json"), expected_report());
  EXPECT_TRUE(daemon_log_contains("/4 to worker")) << daemon_log();
}

TEST_F(ServeE2E, DaemonRestartResumesFromLedgerByteIdentical) {
  const ::pid_t daemon = start_daemon();
  const ::pid_t submit = start_submit_wait();
  start_worker("w1", 300);
  start_worker("w2", 300);
  ASSERT_TRUE(wait_for([&] { return ledger_outcomes() >= 1 && !job_terminal_in_ledger(); }))
      << daemon_log();

  // SIGTERM mid-run: the daemon flushes its ledger and exits 4, exactly
  // like an interrupted cohesion_run. Workers and the waiting submit are
  // now talking to nobody — both retry their connects under backoff.
  term_and_expect(daemon, run::kExitInterrupted);
  const std::size_t journaled = ledger_outcomes();
  start_daemon();

  ASSERT_EQ(wait_code(submit), 0) << daemon_log() << read_file(dir_ + "/submit.log");
  EXPECT_EQ(read_file(dir_ + "/report.json"), expected_report());
  // The successor started from the predecessor's ledger, not from zero:
  // its startup line counts the replayed job + outcome events.
  EXPECT_GE(journaled, 1u);
  EXPECT_GE(count_occurrences(daemon_log(), "events replayed)"), 2u) << daemon_log();
  EXPECT_TRUE(daemon_log_contains("interrupted (SIGTERM/SIGINT)")) << daemon_log();
}

TEST_F(ServeE2E, RetryExhaustionDegradesToSupervisedPartial) {
  // A runner that always dies with the transient exit code exercises the
  // full attempt/backoff budget before the daemon gives up.
  const std::string bad_runner = dir_ + "/bad_runner.sh";
  {
    std::ofstream out(bad_runner);
    out << "#!/bin/sh\nexit 3\n";
  }
  fs::permissions(bad_runner, fs::perms::owner_all | fs::perms::group_exec |
                                  fs::perms::others_exec);

  start_daemon({"--max-attempts", "2", "--lease-timeout", "5"});
  const ::pid_t submit = start_submit_wait();
  start_worker("w1", 0, {"--runner", bad_runner});

  // The job fails loudly: exit 1 at the submitter, and the report file is
  // the explicit supervised-partial document naming the uncovered work.
  ASSERT_EQ(wait_code(submit), run::kExitPermanent)
      << daemon_log() << read_file(dir_ + "/submit.log");
  const Json doc = Json::parse_file(dir_ + "/report.json");
  EXPECT_EQ(doc.string_or("format", ""), kSupervisedPartialFormat);
  EXPECT_FALSE(doc.at("complete").as_bool());
  EXPECT_EQ(doc.at("uncovered_variants").items().size(), 3u);
  EXPECT_GE(doc.at("uncovered_shards").items().size(), 1u);
  EXPECT_NE(doc.string_or("last_failure", "").find("exit 3"), std::string::npos);
  EXPECT_TRUE(daemon_log_contains("[retryable]")) << daemon_log();
}

TEST_F(ServeE2E, SigtermedWorkerReleasesLeaseSuccessorCompletes) {
  start_daemon();
  const ::pid_t submit = start_submit_wait();
  const ::pid_t worker = start_worker("w1", 150);
  ASSERT_TRUE(wait_for([&] { return ledger_outcomes() >= 1 && !job_terminal_in_ledger(); }))
      << daemon_log();

  // Graceful stop: the worker SIGTERMs its runner (journal flushes),
  // releases the lease with every journaled outcome, and exits 4.
  term_and_expect(worker, run::kExitInterrupted);
  const std::size_t salvaged = ledger_outcomes();
  EXPECT_GE(salvaged, 1u);

  start_worker("w2", 20);
  ASSERT_EQ(wait_code(submit), 0) << daemon_log() << read_file(dir_ + "/submit.log");
  EXPECT_EQ(read_file(dir_ + "/report.json"), expected_report());
}

TEST_F(ServeE2E, OversizedLinePeerIsDroppedOthersKeepBeingServed) {
  start_daemon();
  const ::pid_t submit = start_submit_wait();
  start_worker("w1", 400);
  start_worker("w2", 400);
  ASSERT_TRUE(wait_for([&] { return ledger_outcomes() >= 1 && !job_terminal_in_ledger(); }))
      << daemon_log();

  // A peer that streams more than kMaxLineBytes with no newline, mid-job.
  const int rogue = connect_to(Address::parse(address_), 10.0);
  const std::string chunk(std::size_t{1} << 16, 'x');
  for (std::size_t sent = 0; sent <= LineConnection::kMaxLineBytes;) {
    const ::ssize_t n = ::send(rogue, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // the daemon already hung up
    sent += static_cast<std::size_t>(n);
  }
  ::close(rogue);
  ASSERT_TRUE(wait_for([&] { return daemon_log_contains("kMaxLineBytes"); })) << daemon_log();
  EXPECT_FALSE(job_terminal_in_ledger()) << "the job finished before the rogue peer was dropped";

  // The daemon dropped that peer and kept serving the workers and the
  // waiting submitter.
  ASSERT_EQ(wait_code(submit), 0) << daemon_log() << read_file(dir_ + "/submit.log");
  EXPECT_EQ(read_file(dir_ + "/report.json"), expected_report());
}

TEST_F(ServeE2E, WorkerExitsTransientNetworkWhenDaemonNeverAppears) {
  const ::pid_t worker = track(spawn_tool(
      {serve_, "--worker", "unix:" + dir_ + "/nobody.sock", "--work-dir", dir_ + "/w.work",
       "--runner", runner_, "--connect-attempts", "2", "--connect-backoff", "0.05"},
      dir_ + "/lonely.log"));
  EXPECT_EQ(wait_code(worker), run::kExitTransientNetwork);
}

}  // namespace
}  // namespace cohesion::serve
