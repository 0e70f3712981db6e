#include "run/checkpoint.hpp"

#include <stdexcept>

namespace cohesion::run {

namespace {

constexpr const char* kFormat = "cohesion-checkpoint/1";

LineLog::Format journal_format(const std::string& fingerprint, std::size_t total_runs) {
  Json header = Json::object();
  header.set("format", kFormat);
  header.set("fingerprint", fingerprint);
  header.set("total_runs", total_runs);
  return {.kind = "checkpoint", .noun = "cohesion checkpoint file", .header = std::move(header)};
}

}  // namespace

std::string runs_fingerprint(const std::vector<ExpandedRun>& runs, const EarlyStop& early_stop) {
  std::uint64_t h = fnv1a64("dynamics=" + std::to_string(kDynamicsVersion) + ";");
  for (const ExpandedRun& run : runs) {
    h = fnv1a64(std::to_string(run.index) + ":" + run.spec.to_json().dump() + ";", h);
  }
  return fingerprint_hex(fnv1a64("early_stop=" + early_stop.to_json().dump(), h));
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::create(const std::string& path,
                                                             const std::string& fingerprint,
                                                             std::size_t total_runs,
                                                             std::size_t fsync_every) {
  return std::unique_ptr<CheckpointJournal>(new CheckpointJournal(
      LineLog::create(path, journal_format(fingerprint, total_runs), fsync_every)));
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::resume(const std::string& path,
                                                             const std::string& fingerprint,
                                                             std::size_t total_runs,
                                                             std::size_t fsync_every,
                                                             Loaded& loaded) {
  loaded = Loaded{};
  const auto visit = [&](std::size_t line_no, Json&& doc) {
    if (line_no == 1) {
      const std::string found = doc.string_or("fingerprint", "");
      if (found != fingerprint) {
        throw std::runtime_error(
            "fingerprint mismatch (file " + found + ", this run " + fingerprint +
            ") — the checkpoint was written for a different spec, shard selection or early-stop "
            "rule; rerun with the original arguments or delete the file to start over");
      }
      if (doc.uint_or("total_runs", 0) != total_runs) {
        throw std::runtime_error("total_runs mismatch (file " +
                                 std::to_string(doc.uint_or("total_runs", 0)) + ", this run " +
                                 std::to_string(total_runs) + ")");
      }
      return;
    }
    // Indices are *global* grid positions (a shard's journal holds a
    // sparse subset), so membership is validated by the caller against its
    // run list, not against total_runs here.
    try {
      loaded.outcomes.push_back(RunOutcome::from_json(doc));
    } catch (const std::exception& e) {
      throw std::runtime_error("line " + std::to_string(line_no) + " is not a run outcome (" +
                               e.what() + ")");
    }
  };
  return std::unique_ptr<CheckpointJournal>(new CheckpointJournal(
      LineLog::open(path, journal_format(fingerprint, total_runs), fsync_every, visit,
                    loaded.dropped_tail_bytes)));
}

void CheckpointJournal::append(const RunOutcome& outcome) noexcept {
  try {
    const Json doc = outcome.to_json();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_.empty()) return;  // journal already dead; keep the batch alive
    log_.append(doc);
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_.empty()) error_ = e.what();
  }
}

std::string CheckpointJournal::error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

}  // namespace cohesion::run
