#include "serve/ledger.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "run/exit_codes.hpp"

namespace cohesion::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh path under the system temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_ledger_" + tag + "_" + std::to_string(::getpid())))
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

Json job_event(std::uint64_t id) {
  Json e = Json::object();
  e.set("event", "job");
  e.set("job", id);
  e.set("name", "n" + std::to_string(id));
  e.set("spec", Json::object());
  e.set("total_runs", 4);
  return e;
}

TEST(JobLedgerTest, FreshFileGetsHeaderAndNoEvents) {
  TempFile f("fresh");
  JobLedger::Loaded loaded;
  auto ledger = JobLedger::open(f.path(), loaded);
  ASSERT_NE(ledger, nullptr);
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_EQ(loaded.dropped_tail_bytes, 0u);
  const std::string bytes = read_file(f.path());
  EXPECT_NE(bytes.find(kLedgerFormat), std::string::npos);
  EXPECT_EQ(bytes.back(), '\n');
}

TEST(JobLedgerTest, ReopenReplaysEventsInOrder) {
  TempFile f("replay");
  {
    JobLedger::Loaded loaded;
    auto ledger = JobLedger::open(f.path(), loaded);
    ledger->append(job_event(1));
    Json done = Json::object();
    done.set("event", "done");
    done.set("job", 1);
    ledger->append(done);
  }
  JobLedger::Loaded loaded;
  auto ledger = JobLedger::open(f.path(), loaded);
  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[0].event, "job");
  EXPECT_EQ(loaded.events[0].job, 1u);
  EXPECT_EQ(loaded.events[0].payload.string_or("name", ""), "n1");
  EXPECT_EQ(loaded.events[1].event, "done");
}

TEST(JobLedgerTest, TornTailIsDroppedAndTruncated) {
  TempFile f("torn");
  {
    JobLedger::Loaded loaded;
    auto ledger = JobLedger::open(f.path(), loaded);
    ledger->append(job_event(1));
  }
  const std::string intact = read_file(f.path());
  write_file(f.path(), intact + R"({"event":"outcome","job":1,"run":{"ind)");

  JobLedger::Loaded loaded;
  auto ledger = JobLedger::open(f.path(), loaded);
  ASSERT_EQ(loaded.events.size(), 1u);
  EXPECT_GT(loaded.dropped_tail_bytes, 0u);
  // The torn bytes are physically gone: appends continue at a clean line.
  EXPECT_EQ(read_file(f.path()), intact);
  ledger->append(job_event(2));
  JobLedger::Loaded again;
  auto reopened = JobLedger::open(f.path(), again);
  ASSERT_EQ(again.events.size(), 2u);
  EXPECT_EQ(again.events[1].job, 2u);
}

TEST(JobLedgerTest, WrongFormatMarkerIsCorruptionNotCrash) {
  TempFile f("format");
  write_file(f.path(), "{\"format\":\"some-other-ledger/9\"}\n");
  JobLedger::Loaded loaded;
  EXPECT_THROW(
      {
        try {
          JobLedger::open(f.path(), loaded);
        } catch (const run::TransientError&) {
          ADD_FAILURE() << "wrong format must not be classified transient";
          throw;
        }
      },
      std::runtime_error);
}

TEST(JobLedgerTest, MalformedMiddleLineIsCorruptionNotCrash) {
  TempFile f("middle");
  {
    JobLedger::Loaded loaded;
    auto ledger = JobLedger::open(f.path(), loaded);
    ledger->append(job_event(1));
    ledger->append(job_event(2));
  }
  // Corrupt the *first* event line, keeping the newline structure: this is
  // disk corruption, not a crash tail, and must be refused loudly.
  std::string bytes = read_file(f.path());
  const std::size_t first_nl = bytes.find('\n');
  bytes[first_nl + 1] = '#';
  write_file(f.path(), bytes);
  JobLedger::Loaded loaded;
  EXPECT_THROW(JobLedger::open(f.path(), loaded), std::runtime_error);
}

// fsync(2) on /dev/null fails with EINVAL: a ledger whose header never
// reached stable storage is not opened.
TEST(JobLedgerTest, OpenFailsByNameWhenTheHeaderFsyncFails) {
  JobLedger::Loaded loaded;
  try {
    (void)JobLedger::open("/dev/null", loaded);
    FAIL() << "open on /dev/null succeeded";
  } catch (const run::TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("fsync failed"), std::string::npos) << e.what();
  }
}

TEST(JobLedgerTest, EmptyFileIsTreatedAsFresh) {
  TempFile f("empty");
  write_file(f.path(), "");
  JobLedger::Loaded loaded;
  auto ledger = JobLedger::open(f.path(), loaded);
  ASSERT_NE(ledger, nullptr);
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_NE(read_file(f.path()).find(kLedgerFormat), std::string::npos);
}

}  // namespace
}  // namespace cohesion::serve
