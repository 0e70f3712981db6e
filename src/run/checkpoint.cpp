#include "run/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "run/exit_codes.hpp"

namespace cohesion::run {

namespace {

constexpr const char* kFormat = "cohesion-checkpoint/1";

void fnv1a(std::uint64_t& h, std::string_view text) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
}

std::string hex16(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[static_cast<std::size_t>(i)] = digits[h & 0xF];
  return out;
}

std::string header_line(const std::string& fingerprint, std::size_t total_runs) {
  Json h = Json::object();
  h.set("format", kFormat);
  h.set("fingerprint", fingerprint);
  h.set("total_runs", total_runs);
  return h.dump() + "\n";
}

// Failures of the *input* (not a checkpoint, wrong fingerprint, corrupt
// body) are permanent: the same invocation fails the same way forever.
[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint " + path + ": " + what);
}

// Failures of the *environment* (open/write/truncate) are transient: a
// retry — possibly on another disk or after an operator fixes quota — can
// succeed, so supervisors may spend retry budget on them.
[[noreturn]] void fail_io(const std::string& path, const std::string& what) {
  throw TransientError("checkpoint " + path + ": " + what);
}

int open_or_throw(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) fail_io(path, std::string("cannot open (") + std::strerror(errno) + ")");
  return fd;
}

void write_all(int fd, const std::string& path, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ::ssize_t w = ::write(fd, data.data() + off, data.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail_io(path, std::string("write failed (") + std::strerror(errno) + ")");
    }
    off += static_cast<std::size_t>(w);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) fail_io(path, std::string("fsync failed (") + std::strerror(errno) + ")");
}

}  // namespace

std::string runs_fingerprint(const std::vector<ExpandedRun>& runs, const EarlyStop& early_stop) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv1a(h, "dynamics=" + std::to_string(kDynamicsVersion) + ";");
  for (const ExpandedRun& run : runs) {
    fnv1a(h, std::to_string(run.index));
    fnv1a(h, ":");
    fnv1a(h, run.spec.to_json().dump());
    fnv1a(h, ";");
  }
  fnv1a(h, "early_stop=");
  fnv1a(h, early_stop.to_json().dump());
  return hex16(h);
}

CheckpointJournal::CheckpointJournal(int fd, std::string path, std::size_t fsync_every)
    : fd_(fd), path_(std::move(path)), fsync_every_(fsync_every) {}

CheckpointJournal::~CheckpointJournal() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::create(const std::string& path,
                                                             const std::string& fingerprint,
                                                             std::size_t total_runs,
                                                             std::size_t fsync_every) {
  const int fd = open_or_throw(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND);
  try {
    write_all(fd, path, header_line(fingerprint, total_runs));
    fsync_or_throw(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return std::unique_ptr<CheckpointJournal>(new CheckpointJournal(fd, path, fsync_every));
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::resume(const std::string& path,
                                                             const std::string& fingerprint,
                                                             std::size_t total_runs,
                                                             std::size_t fsync_every,
                                                             Loaded& loaded) {
  loaded = Loaded{};
  std::ifstream in(path, std::ios::binary);
  if (!in) return create(path, fingerprint, total_runs, fsync_every);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  in.close();

  // Complete lines end in '\n'; anything after the last '\n' is a torn
  // final line from a crash mid-append and is dropped + truncated away.
  const std::size_t last_nl = content.rfind('\n');
  const std::size_t valid_bytes = last_nl == std::string::npos ? 0 : last_nl + 1;
  loaded.dropped_tail_bytes = content.size() - valid_bytes;

  // A file with no complete header line (crash before the very first
  // fsync, or an empty placeholder) holds no outcomes: start fresh.
  if (valid_bytes == 0) return create(path, fingerprint, total_runs, fsync_every);

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < valid_bytes) {
    const std::size_t nl = content.find('\n', pos);
    const std::string_view line(content.data() + pos, nl - pos);
    ++line_no;
    Json doc;
    try {
      doc = Json::parse(line);
    } catch (const std::exception& e) {
      fail(path, "line " + std::to_string(line_no) +
                     " is not valid JSON — the file is corrupted beyond simple tail "
                     "truncation; delete it to restart from scratch (" +
                     e.what() + ")");
    }
    if (line_no == 1) {
      if (!doc.is_object() || doc.string_or("format", "") != kFormat) {
        fail(path, std::string("missing/unknown format marker (expected \"") + kFormat +
                       "\") — not a cohesion checkpoint file");
      }
      const std::string found = doc.string_or("fingerprint", "");
      if (found != fingerprint) {
        fail(path, "fingerprint mismatch (file " + found + ", this run " + fingerprint +
                       ") — the checkpoint was written for a different spec, shard "
                       "selection or early-stop rule; rerun with the original "
                       "arguments or delete the file to start over");
      }
      if (doc.uint_or("total_runs", 0) != total_runs) {
        fail(path, "total_runs mismatch (file " + std::to_string(doc.uint_or("total_runs", 0)) +
                       ", this run " + std::to_string(total_runs) + ")");
      }
    } else {
      RunOutcome outcome;
      try {
        outcome = RunOutcome::from_json(doc);
      } catch (const std::exception& e) {
        fail(path, "line " + std::to_string(line_no) + " is not a run outcome (" + e.what() + ")");
      }
      // Indices are *global* grid positions (a shard's journal holds a
      // sparse subset), so membership is validated by the caller against
      // its run list, not against total_runs here.
      loaded.outcomes.push_back(std::move(outcome));
    }
    pos = nl + 1;
  }

  const int fd = open_or_throw(path, O_WRONLY | O_APPEND);
  if (loaded.dropped_tail_bytes > 0 &&
      ::ftruncate(fd, static_cast<::off_t>(valid_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    fail_io(path, std::string("cannot truncate torn tail (") + std::strerror(err) + ")");
  }
  return std::unique_ptr<CheckpointJournal>(new CheckpointJournal(fd, path, fsync_every));
}

void CheckpointJournal::append(const RunOutcome& outcome) noexcept {
  try {
    const std::string line = outcome.to_json().dump() + "\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_.empty()) return;  // journal already dead; keep the batch alive
    write_all(fd_, path_, line);
    if (fsync_every_ > 0 && ++since_sync_ >= fsync_every_) {
      fsync_or_throw(fd_, path_);
      since_sync_ = 0;
    }
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
