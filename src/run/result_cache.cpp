#include "run/result_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "run/exit_codes.hpp"
#include "run/line_log.hpp"

namespace cohesion::run {

namespace {

/// The cached physics of a run — exactly the deterministic report fields a
/// successful memory/off-mode outcome serializes, in the same order, so a
/// hit reassembled around a fresh shell reproduces RunOutcome::to_json()
/// byte for byte.
Json physics_to_json(const RunOutcome& o) {
  Json j = Json::object();
  j.set("n", o.n);
  j.set("converged", o.converged);
  j.set("cohesive", o.report.cohesive);
  j.set("initial_diameter", o.report.initial_diameter);
  j.set("final_diameter", o.report.final_diameter);
  j.set("rounds", o.report.rounds);
  j.set("rounds_to_halve", o.report.rounds_to_halve);
  j.set("activations", o.report.activations);
  j.set("worst_stretch", o.report.worst_stretch);
  j.set("custom", o.custom);
  return j;
}

/// Inverse of physics_to_json; throws on any missing/mistyped field (the
/// caller turns that into a named reject).
RunOutcome physics_from_json(const Json& j) {
  RunOutcome o;
  o.n = static_cast<std::size_t>(j.at("n").as_uint());
  o.converged = j.at("converged").as_bool();
  o.report.converged = o.converged;
  o.report.cohesive = j.at("cohesive").as_bool();
  o.report.initial_diameter = j.at("initial_diameter").as_double();
  o.report.final_diameter = j.at("final_diameter").as_double();
  o.report.rounds = static_cast<std::size_t>(j.at("rounds").as_uint());
  o.report.rounds_to_halve = static_cast<std::size_t>(j.at("rounds_to_halve").as_uint());
  o.report.activations = static_cast<std::size_t>(j.at("activations").as_uint());
  o.report.worst_stretch = j.at("worst_stretch").as_double();
  o.custom = j.at("custom").as_double();
  return o;
}

}  // namespace

Json CacheStats::to_json() const {
  Json j = Json::object();
  j.set("hits", hits);
  j.set("misses", misses);
  j.set("rejects", rejects);
  j.set("inserts", inserts);
  j.set("bypassed", bypassed);
  return j;
}

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::runtime_error("result cache needs a directory");
  }
  if (!options_.read_only) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    if (ec) {
      throw TransientError("cannot create cache directory " + options_.dir + " (" + ec.message() +
                           ")");
    }
  }
}

std::string ResultCache::entry_path(const RunSpec& spec) const {
  return options_.dir + "/" + fingerprint_hex(run_identity(spec)) + ".json";
}

void ResultCache::record_reject(const std::string& path, const std::string& cause) {
  rejects_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  reject_causes_.push_back(path + ": " + cause);
}

std::optional<RunOutcome> ResultCache::lookup(const ExpandedRun& run) noexcept {
  try {
    if (run.spec.trace.mode == "stream") {
      // A hit would skip writing the run's .cohtrace — the cache must never
      // change what artifacts a batch produces, so stream runs execute.
      bypassed_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    const std::string path = entry_path(run.spec);
    std::string content;
    {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }

    Json doc;
    try {
      doc = Json::parse(content);
    } catch (const std::exception& e) {
      record_reject(path, std::string("not valid JSON — truncated or torn entry (") + e.what() +
                              "); recomputing");
      return std::nullopt;
    }
    if (!doc.is_object() || doc.string_or("format", "") != kFormat) {
      record_reject(path, "missing/unknown format marker (expected \"" + std::string(kFormat) +
                              "\", got \"" + (doc.is_object() ? doc.string_or("format", "") : "") +
                              "\") — foreign or wrong-version entry; recomputing");
      return std::nullopt;
    }
    const std::string expected_id = fingerprint_hex(run_identity(run.spec));
    const std::string found_id = doc.string_or("identity", "");
    if (found_id != expected_id) {
      record_reject(path, "identity mismatch (entry " + found_id + ", this run " + expected_id +
                              ") — misfiled entry; recomputing");
      return std::nullopt;
    }
    const Json* payload = doc.find("outcome");
    if (!payload || !payload->is_object()) {
      record_reject(path, "entry carries no outcome object; recomputing");
      return std::nullopt;
    }
    const std::string expected_sum = fingerprint_hex(fnv1a64(payload->dump()));
    if (doc.string_or("checksum", "") != expected_sum) {
      record_reject(path, "checksum mismatch (entry " + doc.string_or("checksum", "<missing>") +
                              ", payload " + expected_sum + ") — bit rot or torn write; recomputing");
      return std::nullopt;
    }
    RunOutcome out;
    try {
      out = physics_from_json(*payload);
    } catch (const std::exception& e) {
      record_reject(path, std::string("payload is not a run outcome (") + e.what() +
                              "); recomputing");
      return std::nullopt;
    }
    // The grid shell is this run's, not the inserting run's: the same
    // physics may serve any sweep position that resolves to the same spec.
    out.index = run.index;
    out.variant = run.variant;
    out.repeat = run.repeat;
    out.label = run.label;
    out.seed = run.spec.seed;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  } catch (...) {
    // A sick cache degrades to a miss, never to a failed batch.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
}

void ResultCache::insert(const ExpandedRun& run, const RunOutcome& outcome) noexcept {
  try {
    if (options_.read_only) return;
    if (!outcome.error.empty() || outcome.skipped) return;

    const Json payload = physics_to_json(outcome);
    Json entry = Json::object();
    entry.set("format", kFormat);
    entry.set("identity", fingerprint_hex(run_identity(run.spec)));
    entry.set("outcome", payload);
    entry.set("checksum", fingerprint_hex(fnv1a64(payload.dump())));
    const std::string bytes = entry.dump() + "\n";

    // Atomic publish: unique temp file, full write + fsync, rename(2).
    // Concurrent inserters of one key race benignly — deterministic runs
    // make every contender's bytes identical, so last-rename-wins serves
    // the same entry regardless of interleaving.
    const std::string path = entry_path(run.spec);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(temp_serial_.fetch_add(1, std::memory_order_relaxed));
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) return;
    const bool ok = write_all(fd, bytes) && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
      ::unlink(tmp.c_str());
      return;
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Dropped insert: the entry is simply absent next time.
  }
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.rejects = rejects_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.bypassed = bypassed_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::string> ResultCache::reject_causes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return reject_causes_;
}

}  // namespace cohesion::run
