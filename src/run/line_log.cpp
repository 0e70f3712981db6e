#include "run/line_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "run/exit_codes.hpp"

namespace cohesion::run {

namespace {

[[noreturn]] void fail(const char* kind, const std::string& path, const std::string& what) {
  throw std::runtime_error(std::string(kind) + " " + path + ": " + what);
}

/// Reads errno: "<what> (<strerror>)".
[[noreturn]] void fail_io(const char* kind, const std::string& path, const std::string& what) {
  const std::string why = std::strerror(errno);
  throw TransientError(std::string(kind) + " " + path + ": " + what + " (" + why + ")");
}

}  // namespace

bool write_all(int fd, std::string_view data) noexcept {
  while (!data.empty()) {
    const ::ssize_t w = ::write(fd, data.data(), data.size());
    if (w < 0 && errno != EINTR) return false;
    if (w > 0) data.remove_prefix(static_cast<std::size_t>(w));
  }
  return true;
}

std::vector<std::string_view> complete_lines(std::string_view content) {
  std::vector<std::string_view> lines;
  for (std::size_t nl; (nl = content.find('\n')) != std::string_view::npos;) {
    lines.push_back(content.substr(0, nl));
    content.remove_prefix(nl + 1);
  }
  return lines;
}

LineLog::LineLog(int fd, std::string path, const char* kind, std::size_t fsync_every)
    : fd_(fd), path_(std::move(path)), kind_(kind), fsync_every_(fsync_every) {}

LineLog::LineLog(LineLog&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      kind_(other.kind_),
      fsync_every_(other.fsync_every_),
      unsynced_(other.unsynced_) {}

LineLog::~LineLog() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void LineLog::write_line(std::string_view line) {
  if (!write_all(fd_, line)) fail_io(kind_, path_, "write failed");
}

void LineLog::fsync_or_throw() const {
  if (::fsync(fd_) != 0) fail_io(kind_, path_, "fsync failed");
}

LineLog LineLog::create(const std::string& path, const Format& format, std::size_t fsync_every) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) fail_io(format.kind, path, "cannot open");
  LineLog log(fd, path, format.kind, fsync_every);
  log.write_line(format.header.dump() + "\n");
  log.fsync_or_throw();
  return log;
}

LineLog LineLog::open(const std::string& path, const Format& format, std::size_t fsync_every,
                      const LineVisitor& visit, std::size_t& dropped_tail_bytes) {
  dropped_tail_bytes = 0;
  // One fd reads the file, then appends to it. Only ENOENT means missing,
  // and O_EXCL never clobbers a file that appeared since. O_NONBLOCK ends
  // the read of a pipe or FIFO that runs dry instead of blocking.
  constexpr int kFlags = O_RDWR | O_APPEND | O_NONBLOCK | O_CLOEXEC;
  int fd = ::open(path.c_str(), kFlags);
  if (fd < 0 && errno == ENOENT) fd = ::open(path.c_str(), kFlags | O_CREAT | O_EXCL, 0644);
  if (fd < 0) fail_io(format.kind, path, "cannot open");
  LineLog log(fd, path, format.kind, fsync_every);
  std::string content;
  char chunk[1 << 16];
  for (::ssize_t got; (got = ::read(fd, chunk, sizeof(chunk))) != 0;) {
    if (got > 0) content.append(chunk, static_cast<std::size_t>(got));
    else if (errno == EAGAIN) break;
    else if (errno != EINTR) fail_io(format.kind, path, "cannot read");
  }
  if (::fcntl(fd, F_SETFL, O_APPEND) != 0) fail_io(format.kind, path, "cannot clear O_NONBLOCK");

  const std::vector<std::string_view> lines = complete_lines(content);
  const std::string header = format.header.dump();
  // Bytes without a complete line that this log would never have written
  // are someone else's file.
  if (lines.empty() && !std::string_view(header).starts_with(content)) {
    fail(format.kind, path,
         "no complete line, and its " + std::to_string(content.size()) +
             " bytes are not a torn header — not a " + format.noun + "; the file is left untouched");
  }
  const Json& marker = format.header.at("format");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Json doc;
    try {
      doc = Json::parse(lines[i]);
    } catch (const std::exception& e) {
      fail(format.kind, path,
           "line " + std::to_string(i + 1) +
               " is not valid JSON — the file is corrupted beyond simple tail truncation; move "
               "it aside to start afresh (" + e.what() + ")");
    }
    const Json* found = i > 0 || !doc.is_object() ? nullptr : doc.find("format");
    if (i == 0 && (found == nullptr || !(*found == marker))) {
      fail(format.kind, path,
           "missing/unknown format marker (expected \"" + marker.as_string() + "\") — not a " +
               format.noun);
    }
    try {
      visit(i + 1, std::move(doc));
    } catch (const TransientError&) {
      throw;
    } catch (const std::runtime_error& e) {
      fail(format.kind, path, e.what());
    }
  }

  // Anything after the last '\n' is a line torn by a crash mid-append.
  const std::size_t valid_bytes = lines.empty() ? 0 : content.rfind('\n') + 1;
  dropped_tail_bytes = content.size() - valid_bytes;
  if (dropped_tail_bytes > 0 && ::ftruncate(fd, static_cast<::off_t>(valid_bytes)) != 0) {
    fail_io(format.kind, path, "cannot truncate torn tail");
  }
  if (lines.empty()) {  // new, empty or a torn header: start afresh
    log.write_line(header + "\n");
    log.fsync_or_throw();
  }
  return log;
}

void LineLog::append(const Json& doc) {
  write_line(doc.dump() + "\n");
  if (fsync_every_ > 0 && ++unsynced_ >= fsync_every_) {
    fsync_or_throw();
    unsynced_ = 0;
  }
}

}  // namespace cohesion::run
