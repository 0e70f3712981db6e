// Seeded mutation fuzz over the two schemas of the durable line log
// (run/line_log): a checkpoint journal and a serve job ledger, each cut at
// every byte offset and mutated by fixed-seed byte flips, inserted
// newlines and duplicated lines. Every open must do one of two things:
//   * refuse by name — the error names the kind and the path — and leave
//     the file's bytes unchanged;
//   * or return exactly the records of the complete lines and leave the
//     file truncated to the last of them (a fresh header when there is
//     none).
// Never crash, hang or return a record its line does not hold.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "run/checkpoint.hpp"
#include "run/exit_codes.hpp"
#include "run/line_log.hpp"
#include "run/spec.hpp"
#include "serve/ledger.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_line_log_fuzz_" + tag + "_" + std::to_string(::getpid())))
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

struct Mutant {
  std::string what;
  std::string bytes;
  bool is_cut = false;  ///< a prefix of the intact file
};

std::vector<Mutant> mutants(const std::string& intact, std::uint64_t seed) {
  std::vector<Mutant> out;
  for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
    out.push_back({"cut at " + std::to_string(cut), intact.substr(0, cut), true});
  }
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 300; ++i) {
    std::string bytes = intact;
    const std::size_t pos = rng() % bytes.size();
    bytes[pos] = static_cast<char>(bytes[pos] ^ static_cast<char>(1 + rng() % 255));
    out.push_back({"byte flip at " + std::to_string(pos), std::move(bytes)});
  }
  for (int i = 0; i < 100; ++i) {
    std::string bytes = intact;
    const std::size_t pos = rng() % (bytes.size() + 1);
    bytes.insert(pos, 1, '\n');
    out.push_back({"newline inserted at " + std::to_string(pos), std::move(bytes)});
  }
  const std::vector<std::string_view> lines = complete_lines(intact);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string line = std::string(lines[i]) + "\n";
    std::string bytes = intact;
    bytes.insert(begin, line);
    out.push_back({"line " + std::to_string(i + 1) + " duplicated", std::move(bytes)});
    begin += line.size();
  }
  return out;
}

using Records = std::vector<std::string>;

/// One schema under test. `open` opens `path` and returns the records it
/// loaded (one string per record) plus the dropped tail size; `reference`
/// turns the complete lines after the header into their records
/// independently of the log, throwing when one of them holds none.
struct Schema {
  std::string kind;
  std::string header;  ///< line 1 as a fresh open writes it, '\n' included
  std::function<Records(const std::string& path, std::size_t& dropped)> open;
  std::function<Records(const std::vector<std::string_view>& body)> reference;
};

/// The complete lines of `bytes` after the first.
std::vector<std::string_view> body_lines(const std::string& bytes) {
  std::vector<std::string_view> lines = complete_lines(bytes);
  if (!lines.empty()) lines.erase(lines.begin());
  return lines;
}

struct Tally {
  std::size_t accepted = 0;
  std::size_t refused = 0;
};

Tally fuzz(const Schema& schema, const std::string& intact, std::uint64_t seed) {
  TempFile file(schema.kind);
  const Records intact_records = schema.reference(body_lines(intact));

  Tally tally;
  for (const Mutant& m : mutants(intact, seed)) {
    write_file(file.path(), m.bytes);
    Records got;
    std::size_t dropped = 0;
    try {
      got = schema.open(file.path(), dropped);
    } catch (const std::runtime_error& e) {  // TransientError included
      ++tally.refused;
      EXPECT_NE(std::string(e.what()).find(schema.kind + " " + file.path() + ": "),
                std::string::npos)
          << m.what << ": " << e.what();
      EXPECT_EQ(read_file(file.path()), m.bytes) << m.what << ": refused but changed the file";
      continue;
    }
    ++tally.accepted;
    const std::size_t last_nl = m.bytes.rfind('\n');
    const std::size_t valid = last_nl == std::string::npos ? 0 : last_nl + 1;
    EXPECT_EQ(dropped, m.bytes.size() - valid) << m.what;
    EXPECT_EQ(read_file(file.path()), valid == 0 ? schema.header : m.bytes.substr(0, valid))
        << m.what;
    try {
      EXPECT_EQ(got, schema.reference(body_lines(m.bytes))) << m.what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << m.what << ": accepted a line that holds no record (" << e.what() << ")";
    }
    if (m.is_cut) {
      EXPECT_TRUE(got.size() <= intact_records.size() &&
                  std::equal(got.begin(), got.end(), intact_records.begin()))
          << m.what;
    }
  }
  return tally;
}

RunOutcome outcome(std::size_t index, std::uint64_t seed) {
  RunOutcome o;
  o.index = index;
  o.variant = index % 3;
  o.repeat = index / 3;
  o.label = "k=" + std::to_string(index % 3 + 1);
  o.seed = seed;
  o.n = 8;
  o.converged = true;
  o.report.converged = true;
  o.report.cohesive = true;
  o.report.initial_diameter = 6.3;
  o.report.final_diameter = 0.04999999999999993;
  o.report.rounds = 41;
  o.report.rounds_to_halve = 17;
  o.report.activations = 4242;
  o.report.worst_stretch = 1.2500000000000002;
  o.custom = 0.1 + 0.2;
  return o;
}

TEST(LineLogFuzz, CheckpointJournalRefusesByNameOrLoadsExactlyTheCompleteLines) {
  const std::string fingerprint = "0123456789abcdef";
  const std::size_t total_runs = 6;
  TempFile source("journal_source");
  {
    auto journal = CheckpointJournal::create(source.path(), fingerprint, total_runs, 0);
    journal->append(outcome(0, 7));
    RunOutcome failed = outcome(4, 9);
    failed.error = "unknown algorithm \"nope\"";
    journal->append(failed);
    RunOutcome skipped = outcome(5, 11);
    skipped.skipped = true;
    journal->append(skipped);
    journal->append(outcome(2, 0xDEADBEEFCAFEF00Dull));
    ASSERT_TRUE(journal->error().empty()) << journal->error();
  }
  const std::string intact = read_file(source.path());

  const Schema schema{
      .kind = "checkpoint",
      .header = intact.substr(0, intact.find('\n') + 1),
      .open =
          [&](const std::string& path, std::size_t& dropped) {
            CheckpointJournal::Loaded loaded;
            (void)CheckpointJournal::resume(path, fingerprint, total_runs, 0, loaded);
            dropped = loaded.dropped_tail_bytes;
            Records records;
            for (const RunOutcome& o : loaded.outcomes) records.push_back(o.to_json().dump());
            return records;
          },
      .reference =
          [](const std::vector<std::string_view>& body) {
            Records records;
            for (const std::string_view line : body) {
              records.push_back(RunOutcome::from_json(Json::parse(line)).to_json().dump());
            }
            return records;
          },
  };
  const Tally tally = fuzz(schema, intact, 0xC0FFEE);
  EXPECT_GT(tally.accepted, intact.size());  // every cut, at least
  EXPECT_GT(tally.refused, 100u);
}

TEST(LineLogFuzz, JobLedgerRefusesByNameOrLoadsExactlyTheCompleteLines) {
  TempFile source("ledger_source");
  {
    serve::JobLedger::Loaded loaded;
    auto ledger = serve::JobLedger::open(source.path(), loaded);
    const auto event = [](const char* name, std::uint64_t job) {
      Json e = Json::object();
      e.set("event", name);
      e.set("job", job);
      return e;
    };
    Json job = event("job", 1);
    job.set("name", "sweep");
    ExperimentSpec spec;
    spec.name = "sweep";
    spec.repeats = 2;
    job.set("spec", spec.to_json());
    job.set("total_runs", 6);
    ledger->append(job);
    for (const std::size_t index : {0u, 3u}) {
      Json e = event("outcome", 1);
      e.set("run", outcome(index, 40 + index).to_json());
      ledger->append(e);
    }
    ledger->append(event("done", 1));
    job.set("job", 2);
    ledger->append(job);
    ledger->append(event("failed", 2));
  }
  const std::string intact = read_file(source.path());

  // The record each ledger line holds: the event, its job and the whole
  // document, with the schema's rules restated independently.
  const auto reference = [](const std::vector<std::string_view>& body) {
    Records records;
    std::vector<std::uint64_t> jobs;
    for (const std::string_view line : body) {
      const Json doc = Json::parse(line);
      const std::string event = doc.at("event").as_string();
      const std::uint64_t job = doc.at("job").as_uint();
      const bool known = std::find(jobs.begin(), jobs.end(), job) != jobs.end();
      if (event == "job") {
        if (!doc.at("spec").is_object() || known) throw std::runtime_error("bad job event");
        jobs.push_back(job);
      } else if (!known) {
        throw std::runtime_error("event for an unsubmitted job");
      } else if (event == "outcome") {
        (void)RunOutcome::from_json(doc.at("run"));
      } else if (event != "done" && event != "failed") {
        throw std::runtime_error("unknown event");
      }
      records.push_back(event + " " + std::to_string(job) + " " + doc.dump());
    }
    return records;
  };
  const Schema schema{
      .kind = "ledger",
      .header = intact.substr(0, intact.find('\n') + 1),
      .open =
          [](const std::string& path, std::size_t& dropped) {
            serve::JobLedger::Loaded loaded;
            (void)serve::JobLedger::open(path, loaded);
            dropped = loaded.dropped_tail_bytes;
            Records records;
            for (const serve::LedgerEvent& e : loaded.events) {
              records.push_back(e.event + " " + std::to_string(e.job) + " " + e.payload.dump());
            }
            return records;
          },
      .reference = reference,
  };
  const Tally tally = fuzz(schema, intact, 0x1ED6E5);
  EXPECT_GT(tally.accepted, intact.size());
  EXPECT_GT(tally.refused, 100u);
}

}  // namespace
}  // namespace cohesion::run
