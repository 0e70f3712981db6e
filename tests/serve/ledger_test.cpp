#include "serve/ledger.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "run/exit_codes.hpp"
#include "run/spec.hpp"

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

/// A job event as the daemon ledgers it: the experiment echo of its spec.
Json job_event(std::uint64_t id) {
  run::ExperimentSpec spec;
  spec.name = "n" + std::to_string(id);
  spec.repeats = 4;
  Json e = Json::object();
  e.set("event", "job");
  e.set("job", id);
  e.set("name", spec.name);
  e.set("spec", spec.to_json());
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

TEST(JobLedgerTest, OpenRefusesAForeignFileWithoutATrailingNewline) {
  TempFile f("foreign");
  const std::string foreign = R"({"name": "my precious notes without trailing newline"})";
  write_file(f.path(), foreign);
  JobLedger::Loaded loaded;
  try {
    (void)JobLedger::open(f.path(), loaded);
    FAIL() << "open overwrote a foreign file";
  } catch (const run::TransientError& e) {
    FAIL() << "a foreign file is not an I/O failure: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ledger " + f.path() + ": "), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("not a cohesion serve ledger"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_file(f.path()), foreign);
}

// Events the daemon could not replay are refused at open, naming their
// line, as permanent corruption — not deep inside replay.
TEST(JobLedgerTest, EventsOutsideTheSchemaAreRefusedNamingTheirLine) {
  const std::string header = std::string("{\"format\":\"") + kLedgerFormat + "\"}\n";
  const std::string job = job_event(1).dump() + "\n";
  for (const auto& [bad, cause] : std::vector<std::pair<std::string, std::string>>{
           {R"({"event":"bogus","job":1})", "unknown event \"bogus\""},
           {R"({"event":"job","job":1,"name":"x"})", "\"spec\""},
           {R"({"event":"job","job":2,"spec":{"repeats":"two"}})", "\"base\""},
           {R"({"event":"job","job":2,"spec":{"base":{"n":"four"}}})", "not a ledger event"},
           {R"({"event":"outcome","job":1})", "\"run\""},
           {R"({"event":"outcome","job":1,"run":{"index":0}})", "not a ledger event"},
           {R"({"job":1})", "no \"event\" field"},
           {R"({"event":"done"})", "\"job\""},
           {R"({"event":"done","job":9})", "job 9 has no earlier \"job\" event"},
           {job_event(1).dump(), "job 1 is submitted twice"},
       }) {
    TempFile f("schema");
    write_file(f.path(), header + job + bad + "\n");
    JobLedger::Loaded loaded;
    try {
      (void)JobLedger::open(f.path(), loaded);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const run::TransientError& e) {
      ADD_FAILURE() << "schema violation classified transient: " << e.what();
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(cause), std::string::npos) << what;
    }
  }
  TempFile f("bogus");
  write_file(f.path(), header + R"({"event":"bogus","job":1})" + "\n");
  JobLedger::Loaded loaded;
  try {
    (void)JobLedger::open(f.path(), loaded);
    FAIL() << "accepted a bogus event";
  } catch (const run::TransientError& e) {
    FAIL() << "schema violation classified transient: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace cohesion::serve
