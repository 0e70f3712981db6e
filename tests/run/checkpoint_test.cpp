#include "run/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "run/exit_codes.hpp"
#include "run/shard.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

/// Fresh path under the system temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_ckpt_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

ExperimentSpec checkpoint_sweep() {
  ExperimentSpec e;
  e.name = "ckpt";
  e.base.n = 8;
  e.base.seed = 77;
  e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 2})")};
  e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
  e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
  e.base.stop.epsilon = 0.05;
  e.base.stop.max_activations = 20000;
  e.repeats = 2;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(3)}});
  return e;
}

std::string fresh_report(const ExperimentSpec& e) {
  return BatchRunner::report_json(e, BatchRunner().run(e), false).dump(2);
}

TEST(Checkpoint, FingerprintTracksSpecShardAndEarlyStop) {
  const ExperimentSpec e = checkpoint_sweep();
  const std::string base = runs_fingerprint(e.expand(), e.early_stop);
  EXPECT_EQ(base, runs_fingerprint(e.expand(), e.early_stop));  // pure function
  EXPECT_EQ(base.size(), 16u);

  ExperimentSpec other = checkpoint_sweep();
  other.base.seed = 78;
  EXPECT_NE(base, runs_fingerprint(other.expand(), other.early_stop));
  EXPECT_NE(base, runs_fingerprint(e.expand_shard(0, 2), e.early_stop));
  EarlyStop es;
  es.window = 2;
  es.epsilon = 0.1;
  EXPECT_NE(base, runs_fingerprint(e.expand(), es));
}

TEST(Checkpoint, JournalRunProducesSameReportAndAJournalLinePerRun) {
  const ExperimentSpec e = checkpoint_sweep();
  const std::string expected = fresh_report(e);
  TempFile ckpt("journal");

  BatchRunner::Options opt;
  opt.checkpoint_path = ckpt.path();
  const BatchResult r = BatchRunner(opt).run(e);
  EXPECT_EQ(BatchRunner::report_json(e, r, false).dump(2), expected);

  const std::string content = read_file(ckpt.path());
  const std::size_t lines =
      static_cast<std::size_t>(std::count(content.begin(), content.end(), '\n'));
  EXPECT_EQ(lines, e.expand().size() + 1);  // header + one line per run
  EXPECT_NE(content.find("cohesion-checkpoint/1"), std::string::npos);
}

TEST(Checkpoint, ResumeFromAnyTruncationPointReproducesTheFreshReport) {
  // The kill-at-random-point test the resume contract is stated in terms
  // of: truncate the journal at many byte offsets (deterministic stride —
  // covers torn header, torn mid-line, and clean-line boundaries), resume,
  // and require the byte-identical final report every time.
  const ExperimentSpec e = checkpoint_sweep();
  const std::string expected = fresh_report(e);
  TempFile ckpt("fuzz");

  BatchRunner::Options writer;
  writer.checkpoint_path = ckpt.path();
  (void)BatchRunner(writer).run(e);
  const std::string full = read_file(ckpt.path());
  ASSERT_GT(full.size(), 100u);

  const std::size_t stride = std::max<std::size_t>(full.size() / 37, 1);
  for (std::size_t cut = 0; cut <= full.size(); cut += stride) {
    write_file(ckpt.path(), full.substr(0, cut));
    BatchRunner::Options opt;
    opt.checkpoint_path = ckpt.path();
    opt.resume = true;
    opt.threads = 3;
    const BatchResult r = BatchRunner(opt).run(e);
    EXPECT_EQ(BatchRunner::report_json(e, r, false).dump(2), expected) << "cut at " << cut;
    // After the resumed run, the journal is complete again: resuming once
    // more executes nothing new and still matches.
    BatchRunner::Options again = opt;
    const BatchResult r2 = BatchRunner(again).run(e);
    EXPECT_EQ(BatchRunner::report_json(e, r2, false).dump(2), expected) << "re-resume " << cut;
  }
}

TEST(Checkpoint, ResumeOnMissingFileStartsFresh) {
  const ExperimentSpec e = checkpoint_sweep();
  TempFile ckpt("missing");
  BatchRunner::Options opt;
  opt.checkpoint_path = ckpt.path();
  opt.resume = true;
  const BatchResult r = BatchRunner(opt).run(e);
  EXPECT_EQ(BatchRunner::report_json(e, r, false).dump(2), fresh_report(e));
  EXPECT_TRUE(fs::exists(ckpt.path()));
}

TEST(Checkpoint, StaleCheckpointIsRejectedWithActionableError) {
  const ExperimentSpec e = checkpoint_sweep();
  TempFile ckpt("stale");
  BatchRunner::Options writer;
  writer.checkpoint_path = ckpt.path();
  (void)BatchRunner(writer).run(e);

  // Different spec (seed changed) -> different fingerprint -> rejection
  // that names the mismatch instead of silently mixing outcomes.
  ExperimentSpec other = checkpoint_sweep();
  other.base.seed = 12345;
  BatchRunner::Options opt;
  opt.checkpoint_path = ckpt.path();
  opt.resume = true;
  try {
    (void)BatchRunner(opt).run(other);
    FAIL() << "expected stale-checkpoint rejection";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("fingerprint mismatch"), std::string::npos)
        << err.what();
  }

  // Same spec but a different shard selection is stale too.
  try {
    (void)BatchRunner(opt).run(e.expand_shard(0, 2), e.early_stop);
    FAIL() << "expected shard-mismatch rejection";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("fingerprint"), std::string::npos) << err.what();
  }
}

TEST(Checkpoint, PreBumpDynamicsJournalIsRefused) {
  // A journal written before the last kDynamicsVersion bump holds outcomes
  // of the old seeded stream; resuming from it would mix two streams. Its
  // header carries the fingerprint of the unversioned hash over the same
  // runs, which must be refused by the named cause.
  const ExperimentSpec e = checkpoint_sweep();
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto fnv = [&](const std::string& text) {
    for (const unsigned char c : text) {
      h ^= c;
      h *= 0x100000001B3ull;
    }
  };
  for (const ExpandedRun& run : e.expand()) {
    fnv(std::to_string(run.index) + ":" + run.spec.to_json().dump() + ";");
  }
  fnv("early_stop=" + e.early_stop.to_json().dump());
  const std::string pre_bump = fingerprint_hex(h);
  const std::string current = runs_fingerprint(e.expand(), e.early_stop);
  ASSERT_NE(pre_bump, current);

  TempFile ckpt("prebump");
  BatchRunner::Options writer;
  writer.checkpoint_path = ckpt.path();
  (void)BatchRunner(writer).run(e);
  std::string content = read_file(ckpt.path());
  const std::size_t pos = content.find(current);
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, current.size(), pre_bump);
  write_file(ckpt.path(), content);

  BatchRunner::Options opt;
  opt.checkpoint_path = ckpt.path();
  opt.resume = true;
  try {
    (void)BatchRunner(opt).run(e);
    FAIL() << "expected the pre-bump journal to be refused";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("fingerprint mismatch"), std::string::npos)
        << err.what();
  }
}

TEST(Checkpoint, MalformedBodyBeforeTheTailIsRejected) {
  const ExperimentSpec e = checkpoint_sweep();
  TempFile ckpt("malformed");
  BatchRunner::Options writer;
  writer.checkpoint_path = ckpt.path();
  (void)BatchRunner(writer).run(e);

  // Corrupt a *complete* interior line: that is not crash-truncation and
  // must be refused (a torn line can only ever be the final one).
  std::string content = read_file(ckpt.path());
  const std::size_t second_line = content.find('\n') + 1;
  content[second_line] = '#';
  write_file(ckpt.path(), content);

  BatchRunner::Options opt;
  opt.checkpoint_path = ckpt.path();
  opt.resume = true;
  try {
    (void)BatchRunner(opt).run(e);
    FAIL() << "expected corruption rejection";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("not valid JSON"), std::string::npos) << err.what();
  }

  // A file that is not a checkpoint at all names the format marker.
  write_file(ckpt.path(), "{\"something\": \"else\"}\n");
  try {
    (void)BatchRunner(opt).run(e);
    FAIL() << "expected format rejection";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("format"), std::string::npos) << err.what();
  }
}

TEST(Checkpoint, ShardedJournalsResumeIndependentlyAndStillMergeExactly) {
  const ExperimentSpec e = checkpoint_sweep();
  const std::string expected = fresh_report(e);
  const std::size_t total = e.expand().size();

  std::vector<Json> partials;
  for (std::size_t s = 0; s < 2; ++s) {
    TempFile ckpt("shard" + std::to_string(s));
    const std::vector<ExpandedRun> runs = e.expand_shard(s, 2);

    // Write a full journal, truncate it mid-file, resume the shard.
    BatchRunner::Options writer;
    writer.checkpoint_path = ckpt.path();
    (void)BatchRunner(writer).run(runs, e.early_stop);
    const std::string full = read_file(ckpt.path());
    write_file(ckpt.path(), full.substr(0, full.size() / 2));

    BatchRunner::Options opt;
    opt.checkpoint_path = ckpt.path();
    opt.resume = true;
    const BatchResult r = BatchRunner(opt).run(runs, e.early_stop);
    partials.push_back(partial_report_json(e, Shard{s, 2}, total, r.outcomes));
  }
  EXPECT_EQ(merge_partial_reports(partials).dump(2), expected);
}

TEST(Checkpoint, FsyncCadenceZeroAndCoarseBothJournalEveryOutcome) {
  const ExperimentSpec e = checkpoint_sweep();
  for (const std::size_t cadence : {0u, 16u}) {
    TempFile ckpt("cadence" + std::to_string(cadence));
    BatchRunner::Options opt;
    opt.checkpoint_path = ckpt.path();
    opt.checkpoint_fsync_every = cadence;
    (void)BatchRunner(opt).run(e);
    const std::string content = read_file(ckpt.path());
    EXPECT_EQ(static_cast<std::size_t>(std::count(content.begin(), content.end(), '\n')),
              e.expand().size() + 1);
  }
}

// fsync(2) on /dev/null fails with EINVAL: a journal whose header never
// reached stable storage is not a journal.
TEST(Checkpoint, CreateFailsByNameWhenTheHeaderFsyncFails) {
  try {
    (void)CheckpointJournal::create("/dev/null", "fp", 1, 1);
    FAIL() << "create on /dev/null succeeded";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("fsync failed"), std::string::npos) << e.what();
  }
}

// A failed fsync after an append latches error() like a failed write. The
// journal here is a pipe reopened through /proc/self/fd: write(2) into it
// succeeds and fsync(2) on it fails with EINVAL.
TEST(Checkpoint, AppendLatchesAFailedFsync) {
  TempFile real("fsync_header");
  (void)CheckpointJournal::create(real.path(), "fp", 1, 1);
  const std::string header = read_file(real.path());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], header.data(), header.size()),
            static_cast<::ssize_t>(header.size()));
  ::close(fds[1]);
  CheckpointJournal::Loaded loaded;
  auto journal = CheckpointJournal::resume("/proc/self/fd/" + std::to_string(fds[0]), "fp", 1,
                                           1, loaded);
  EXPECT_TRUE(journal->error().empty());
  journal->append(RunOutcome{});
  EXPECT_NE(journal->error().find("fsync failed"), std::string::npos) << journal->error();
  journal.reset();
  ::close(fds[0]);
}

TEST(Checkpoint, RunOutcomeJsonRoundTripIsExactForAllShapes) {
  RunOutcome full;
  full.index = 3;
  full.variant = 1;
  full.repeat = 1;
  full.label = "k=2";
  full.seed = 0xDEADBEEFCAFEF00Dull;
  full.n = 8;
  full.converged = true;
  full.report.converged = true;
  full.report.cohesive = true;
  full.report.initial_diameter = 6.3;
  full.report.final_diameter = 0.04999999999999993;  // a non-round double
  full.report.rounds = 41;
  full.report.rounds_to_halve = 17;
  full.report.activations = 4242;
  full.report.worst_stretch = 1.2500000000000002;
  full.custom = 0.1 + 0.2;  // 0.30000000000000004

  RunOutcome failed;
  failed.index = 4;
  failed.label = "bad";
  failed.seed = 9;
  failed.error = "unknown algorithm \"nope\"";

  RunOutcome skipped;
  skipped.index = 5;
  skipped.variant = 1;
  skipped.repeat = 3;
  skipped.label = "k=2";
  skipped.seed = 11;
  skipped.skipped = true;

  for (const RunOutcome& o : {full, failed, skipped}) {
    const Json j = o.to_json();
    // Exact fixed point through text as well (what the JSONL file stores).
    EXPECT_EQ(RunOutcome::from_json(Json::parse(j.dump())).to_json().dump(), j.dump());
  }
  EXPECT_THROW(RunOutcome::from_json(Json::parse("[1]")), std::runtime_error);
  EXPECT_THROW(RunOutcome::from_json(Json::parse(R"({"index": 0})")), std::runtime_error);
}

}  // namespace
}  // namespace cohesion::run
