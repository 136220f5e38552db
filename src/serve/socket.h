// zipr-serve wire protocol over a local Unix-domain stream socket.
//
// One connection carries one request/response exchange (the CLI `submit`
// subcommand opens a fresh connection per job; amortizing connections is
// not worth protocol state at local-socket latencies). All integers are
// little-endian. Options travel in their canonical text form (see
// zipr/options_codec.h) -- the exact string the cache key hashes, so the
// client and server can never disagree about which configuration a job
// names.
//
//   request:  u32 magic 'ZSQ1' | u32 options_len | u64 input_len
//             | options text | input ZELF bytes
//   response: u32 magic 'ZSP1' | u8 ok | u8 source | u8 error_kind | u8 0
//             | f64 wall_ms | u64 payload_len | payload
//             (payload = output image bytes when ok, error text when not)
//
// Malformed frames, oversized lengths, short reads and peers that hang up
// before the reply produce checked errors on both ends, and the server
// keeps serving. Connections are served one at a time on the accept
// thread, so every read and write on an accepted connection is bounded by
// kConnectionDeadline: a client that connects and sends nothing (or stops
// reading its reply) costs the clients queued behind it that long, not
// forever. The bound is per blocked call, not per exchange, and a client
// that builds its whole frame before writing (submit_over_socket) never
// comes near it.
#pragma once

#include <chrono>
#include <string>

#include "serve/engine.h"

namespace zipr::serve {

/// Longest a server-side read or write on one connection may block.
inline constexpr std::chrono::seconds kConnectionDeadline{2};

struct SocketServerOptions {
  std::string path;       ///< filesystem path to bind (unlinked first)
  int backlog = 16;
  /// Serve exactly this many requests then return; < 0 = run until the
  /// process dies. Tests and the smoke harness use a finite count.
  long max_requests = -1;
  /// Refuse request frames larger than this (options + input).
  std::uint64_t max_request_bytes = std::uint64_t{1} << 30;
};

/// Bind `options.path` and serve requests against `engine` on the calling
/// thread. Returns after max_requests exchanges (or on a fatal socket
/// error); per-connection failures are answered in-band and never abort
/// the loop.
Status serve_on_socket(ServeEngine& engine, const SocketServerOptions& options);

struct SubmitReply {
  Bytes output;
  Source source = Source::kCold;
  double wall_ms = 0;
};

/// Client side: send one rewrite job to a serve_on_socket() server.
Result<SubmitReply> submit_over_socket(const std::string& path, ByteView input,
                                       const RewriteOptions& options);

}  // namespace zipr::serve
