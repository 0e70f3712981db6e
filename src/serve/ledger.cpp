#include "serve/ledger.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "run/exit_codes.hpp"

namespace cohesion::serve {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("ledger " + path + ": " + what);
}

[[noreturn]] void fail_io(const std::string& path, const std::string& what) {
  throw run::TransientError("ledger " + path + ": " + what);
}

void write_all(int fd, const std::string& path, const std::string& data) {
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

JobLedger::JobLedger(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

JobLedger::~JobLedger() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

std::unique_ptr<JobLedger> JobLedger::open(const std::string& path, Loaded& loaded) {
  loaded = Loaded{};
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }
  }

  const std::size_t last_nl = content.rfind('\n');
  const std::size_t valid_bytes = last_nl == std::string::npos ? 0 : last_nl + 1;
  loaded.dropped_tail_bytes = content.size() - valid_bytes;

  if (valid_bytes == 0) {
    // Missing, empty, or torn before the first fsync: start fresh.
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    if (fd < 0) fail_io(path, std::string("cannot open (") + std::strerror(errno) + ")");
    Json header = Json::object();
    header.set("format", kLedgerFormat);
    try {
      write_all(fd, path, header.dump() + "\n");
      fsync_or_throw(fd, path);
    } catch (...) {
      ::close(fd);
      throw;
    }
    return std::unique_ptr<JobLedger>(new JobLedger(fd, path));
  }

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < valid_bytes) {
    const std::size_t nl = content.find('\n', pos);
    const std::string line = content.substr(pos, nl - pos);
    ++line_no;
    Json doc;
    try {
      doc = Json::parse(line);
    } catch (const std::exception& e) {
      fail(path, "line " + std::to_string(line_no) +
                     " is not valid JSON — corruption beyond tail truncation; move the "
                     "file aside to start a fresh ledger (" + e.what() + ")");
    }
    if (line_no == 1) {
      if (!doc.is_object() || doc.string_or("format", "") != kLedgerFormat) {
        fail(path, std::string("missing/unknown format marker (expected \"") + kLedgerFormat +
                       "\") — not a cohesion serve ledger");
      }
    } else {
      LedgerEvent event;
      event.event = doc.string_or("event", "");
      event.job = doc.uint_or("job", 0);
      if (event.event.empty()) {
        fail(path, "line " + std::to_string(line_no) + " has no \"event\" field");
      }
      event.payload = std::move(doc);
      loaded.events.push_back(std::move(event));
    }
    pos = nl + 1;
  }

  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd < 0) fail_io(path, std::string("cannot open (") + std::strerror(errno) + ")");
  if (loaded.dropped_tail_bytes > 0 &&
      ::ftruncate(fd, static_cast<::off_t>(valid_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    fail_io(path, std::string("cannot truncate torn tail (") + std::strerror(err) + ")");
  }
  return std::unique_ptr<JobLedger>(new JobLedger(fd, path));
}

void JobLedger::append(const Json& event) {
  write_all(fd_, path_, event.dump() + "\n");
  fsync_or_throw(fd_, path_);
}

}  // namespace cohesion::serve
