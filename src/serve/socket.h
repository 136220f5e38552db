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
// keeps serving. Connections are served concurrently: acceptor_count()
// threads (the calling thread is one) each accept on the shared listening
// socket and serve what they accept, and the kernel listen backlog is the
// admission queue. A client gets kConnectionDeadline from accept() to
// deliver the frame header, and the body's announced size at
// kMinRequestRate on top of that to deliver the rest (every read is
// bounded by the time left, so trickling bytes does not extend it): a
// 1 GiB frame, the max_request_bytes default, gets 18 s.
// The engine's work has no bound, and each write of the reply may block
// for at most kConnectionDeadline. A client that connects and sends
// nothing, or stops reading its reply, therefore holds one acceptor for
// that long, not forever. submit_over_socket builds its whole frame before
// it connects, so the server's clock times only the transfer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "serve/engine.h"

namespace zipr::serve {

/// Time a client has from accept() to deliver its request header, and the
/// longest a single write of the reply may block.
inline constexpr std::chrono::seconds kConnectionDeadline{2};

/// Bytes per second a request body must arrive at, on top of
/// kConnectionDeadline: the body's share of the whole-request deadline.
inline constexpr std::uint64_t kMinRequestRate = std::uint64_t{64} << 20;

struct SocketServerOptions {
  std::string path;       ///< filesystem path to bind (replaces a stale file)
  /// Accept and serve exactly this many connections, then return once all
  /// are done; < 0 = run until the process dies. Tests and the smoke
  /// harness use a finite count.
  long max_requests = -1;
  /// Refuse request frames larger than this (options + input).
  std::uint64_t max_request_bytes = std::uint64_t{1} << 30;
};

/// Acceptor threads serve_on_socket() starts for ServeOptions::jobs and
/// SocketServerOptions::max_requests: effective_jobs(jobs), never more
/// than max_requests.
std::size_t acceptor_count(int jobs, long max_requests);

/// Bind `options.path` and serve requests against `engine` on
/// acceptor_count() threads, the calling thread among them. The socket
/// file appears at `options.path` only once the server listens, so its
/// existence means a connect succeeds (a path too long for a temporary
/// sibling name binds in place). Returns after max_requests exchanges, or
/// on the first fatal socket error once every acceptor has stopped;
/// per-connection failures are answered in-band and never abort the loop.
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
