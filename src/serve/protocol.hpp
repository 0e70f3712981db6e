// Wire layer of the cohesion_serve work-queue: line-delimited JSON over a
// stream socket (TCP or Unix-domain), one request → one response.
//
// Address forms ("unix:PATH" or "HOST:PORT") are parsed by Address::parse;
// listen_on/connect_to return blocking sockets with send/receive timeouts
// already applied, so neither side can wedge forever on a half-dead peer —
// a timeout surfaces as run::TransientNetworkError (exit code 5), which
// the worker's connect-retry loop treats as "daemon not there yet, back
// off and try again" rather than a permanent death.
//
// Framing is one '\n'-terminated JSON document per message (the same
// framing as the checkpoint journal, chosen for the same reason: torn data
// is detectable by the missing newline, and every complete line stands
// alone). LineConnection buffers reads, never splits a write, and treats
// EOF mid-line as a peer failure. Message schema (which keys mean what)
// lives one level up, in daemon/worker — this layer moves Json documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "run/json.hpp"

namespace cohesion::serve {

using Json = run::Json;
using JsonArray = run::JsonArray;

/// A daemon endpoint: "unix:PATH" (Unix-domain stream socket at PATH) or
/// "HOST:PORT" (TCP; HOST may be a name or dotted quad).
struct Address {
  bool is_unix = false;
  std::string path;  ///< unix: socket path
  std::string host;  ///< tcp: host
  std::uint16_t port = 0;

  /// Parse the CLI form. Throws std::runtime_error naming the defect on
  /// anything else (empty path, non-numeric/out-of-range port, ...).
  static Address parse(const std::string& text);
  [[nodiscard]] std::string describe() const;
};

/// Create, bind and listen. Unix sockets unlink a stale path first (the
/// daemon owns its socket file the way it owns its ledger). Throws
/// run::TransientNetworkError on bind/listen failure (the address may be
/// in use by a dying predecessor — retryable), std::runtime_error on
/// misuse. Returns the listening fd (caller owns/closes).
int listen_on(const Address& address);

/// Connect with timeouts applied. Throws run::TransientNetworkError on
/// refusal/unreachability/timeout — the retryable "daemon not up" family.
int connect_to(const Address& address, double timeout_seconds);

/// Accept one pending connection (listening fd must be readable, e.g.
/// after poll). Returns -1 when the accept would block or was aborted.
int accept_on(int listen_fd, double timeout_seconds);

/// Blocking line-framed JSON over one connected socket. Not thread-safe;
/// one owner per side. The destructor closes the fd.
class LineConnection {
 public:
  /// Longest line receive() accepts. The largest line the serve e2e suite
  /// sends is a served report of ~8.6 KB; this leaves room for reports of
  /// ~100k runs while bounding what one peer can make the daemon buffer.
  static constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

  explicit LineConnection(int fd);
  ~LineConnection();
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;
  LineConnection(LineConnection&& other) noexcept;
  LineConnection& operator=(LineConnection&& other) noexcept;

  /// Send one document as a single '\n'-terminated line. Throws
  /// run::TransientNetworkError when the peer is gone or the send times
  /// out. (SIGPIPE must be ignored process-wide; the CLIs do.)
  void send(const Json& message);

  /// Receive the next complete line and parse it. std::nullopt on clean
  /// EOF at a message boundary; throws run::TransientNetworkError on
  /// timeout, reset, or EOF mid-line; std::runtime_error on a line that is
  /// not valid JSON or is longer than kMaxLineBytes (a protocol bug, not an
  /// environment failure).
  std::optional<Json> receive();

  [[nodiscard]] int fd() const { return fd_; }
  /// A complete line already sits in the read buffer — receive() will
  /// return without touching the socket. Poll loops must drain these
  /// before sleeping: poll(2) cannot see user-space buffers.
  [[nodiscard]] bool has_buffered_line() const {
    return buffer_.find('\n') != std::string::npos;
  }
  void close_now();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace cohesion::serve
