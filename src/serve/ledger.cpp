#include "serve/ledger.hpp"

#include <set>
#include <stdexcept>

#include "run/batch_runner.hpp"

namespace cohesion::serve {

namespace {

run::LineLog::Format ledger_format() {
  Json header = Json::object();
  header.set("format", kLedgerFormat);
  return {.kind = "ledger", .noun = "cohesion serve ledger", .header = std::move(header)};
}

/// `doc` as an event the daemon can replay after the jobs already in
/// `jobs`; throws naming what is wrong.
LedgerEvent parse_event(Json&& doc, std::set<std::uint64_t>& jobs) {
  LedgerEvent e;
  e.event = doc.string_or("event", "");
  e.job = doc.at("job").as_uint();
  if (e.event != "job" && e.event != "outcome" && e.event != "done" && e.event != "failed") {
    throw std::runtime_error(e.event.empty() ? "no \"event\" field"
                                             : "unknown event \"" + e.event + "\"");
  }
  if (e.event == "job") {
    const Json* spec = doc.find("spec");
    if (spec == nullptr || !spec->is_object()) {
      throw std::runtime_error("job event without a \"spec\" object");
    }
    (void)run::ExperimentSpec::from_json(*spec);  // what replay will parse
    if (!jobs.insert(e.job).second) {
      throw std::runtime_error("job " + std::to_string(e.job) + " is submitted twice");
    }
  } else if (!jobs.contains(e.job)) {
    throw std::runtime_error("job " + std::to_string(e.job) + " has no earlier \"job\" event");
  }
  if (e.event == "outcome") (void)run::RunOutcome::from_json(doc.at("run"));
  e.payload = std::move(doc);
  return e;
}

}  // namespace

std::unique_ptr<JobLedger> JobLedger::open(const std::string& path, Loaded& loaded) {
  loaded = Loaded{};
  std::set<std::uint64_t> jobs;
  const auto visit = [&](std::size_t line_no, Json&& doc) {
    if (line_no == 1) return;  // the header; its format marker is checked
    try {
      loaded.events.push_back(parse_event(std::move(doc), jobs));
    } catch (const std::exception& e) {
      throw std::runtime_error("line " + std::to_string(line_no) + " is not a ledger event (" +
                               e.what() + ")");
    }
  };
  return std::unique_ptr<JobLedger>(new JobLedger(
      run::LineLog::open(path, ledger_format(), /*fsync_every=*/1, visit,
                         loaded.dropped_tail_bytes)));
}

void JobLedger::append(const Json& event) { log_.append(event); }

}  // namespace cohesion::serve
