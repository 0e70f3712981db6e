// The one durable JSON-lines log. The checkpoint journal (run/checkpoint)
// and the serve job ledger (serve/ledger) are schemas over it.
//
// One JSON document per '\n'-terminated line; line 1 is a header object
// whose "format" marker names the schema. Each append is a single write(2)
// on an O_APPEND fd, fsync'd every `fsync_every` lines, so a crash tears at
// most the final line; open() drops that torn tail and truncates the file
// back to its last complete line. Anything else that does not parse is
// corruption or someone else's file, and is refused with the file left
// untouched. Errors read "<kind> <path>: …": std::runtime_error for bad
// input (permanent), run::TransientError for I/O failures (retryable).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "run/json.hpp"

namespace cohesion::run {

/// Write all of `data`, retrying short writes and EINTR; false (errno set)
/// when write(2) fails.
[[nodiscard]] bool write_all(int fd, std::string_view data) noexcept;

/// The complete lines of `content` without their '\n'; element i is line
/// i + 1. Bytes after the last '\n' (a torn tail) form no line.
[[nodiscard]] std::vector<std::string_view> complete_lines(std::string_view content);

class LineLog {
 public:
  struct Format {
    const char* kind;  ///< a literal naming the file in errors: "checkpoint", "ledger"
    const char* noun;  ///< what a foreign file is not: "cohesion checkpoint file"
    Json header;       ///< line 1 as written; open() checks its "format" marker
  };

  /// Receives each complete line's 1-based number and document, in file
  /// order; line 1 once its format marker checks out. A std::runtime_error
  /// it throws refuses the file, rethrown as "<kind> <path>: <what>".
  using LineVisitor = std::function<void(std::size_t line_no, Json&& doc)>;

  /// A fresh log at `path` (an existing file is overwritten): the header
  /// line, fsync'd.
  static LineLog create(const std::string& path, const Format& format, std::size_t fsync_every);

  /// Open `path` for appending. A missing file (ENOENT, nothing else) is
  /// created. A file without a complete line whose bytes are a prefix of
  /// the header line holds a header torn before its first fsync, and is
  /// rewritten fresh. Otherwise each complete line goes to `visit`, then a
  /// torn tail is truncated away and its size stored in
  /// `dropped_tail_bytes`. A refusal throws before any byte changes.
  static LineLog open(const std::string& path, const Format& format, std::size_t fsync_every,
                      const LineVisitor& visit, std::size_t& dropped_tail_bytes);

  /// One write(2) of `doc` and its '\n'; fsync every `fsync_every` appends
  /// (0: only on close).
  void append(const Json& doc);

  LineLog(LineLog&& other) noexcept;
  LineLog& operator=(LineLog&&) = delete;
  ~LineLog();  ///< fsync + close

 private:
  LineLog(int fd, std::string path, const char* kind, std::size_t fsync_every);
  void write_line(std::string_view line);
  void fsync_or_throw() const;

  int fd_ = -1;
  std::string path_;
  const char* kind_;
  std::size_t fsync_every_;
  std::size_t unsynced_ = 0;
};

}  // namespace cohesion::run
