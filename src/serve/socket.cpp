#include "serve/socket.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>

#include "batch/worker_pool.h"
#include "support/log.h"
#include "zipr/options_codec.h"

namespace zipr::serve {

namespace {

constexpr std::uint32_t kRequestMagic = 0x3151535AU;   // 'ZSQ1' little-endian
constexpr std::uint32_t kResponseMagic = 0x3150535AU;  // 'ZSP1' little-endian
constexpr int kListenBacklog = 16;  // connections waiting for a free acceptor

Error sys_error(const std::string& what) {
  return Error::internal(what + ": " + std::strerror(errno));
}

using Clock = std::chrono::steady_clock;

Error late_request() { return Error::invalid_argument("request not received within deadline"); }

/// Bound the next blocking read on `fd` by the time left until `deadline`
/// (SO_RCVTIMEO); past the deadline the read is refused with a checked
/// error. A zero timeval would mean "no timeout", so the bound rounds up.
Status bound_read(int fd, Clock::time_point deadline) {
  auto left = std::chrono::ceil<std::chrono::microseconds>(deadline - Clock::now());
  if (left.count() <= 0) return late_request();
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(left.count() / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(left.count() % 1000000);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) < 0)
    return sys_error("setsockopt");
  return {};
}

/// Full-buffer read/write with EINTR retry; short end-of-stream is an error.
/// A read with a `deadline` re-bounds every read(2) by the time left.
Status read_exact(int fd, void* buf, std::size_t n,
                  std::optional<Clock::time_point> deadline = std::nullopt) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    if (deadline) ZIPR_TRY(bound_read(fd, *deadline));
    ssize_t got = ::read(fd, p, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (deadline && (errno == EAGAIN || errno == EWOULDBLOCK)) return late_request();
      return sys_error("socket read");
    }
    if (got == 0) return Error::parse("socket closed mid-frame");
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return {};
}

/// MSG_NOSIGNAL: a peer that already hung up yields EPIPE here instead of
/// a process-killing SIGPIPE.
Status write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return sys_error("socket write");
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return {};
}

/// Bound every write on `fd` by kConnectionDeadline: a peer that stops
/// reading its reply then fails write_exact with EAGAIN instead of blocking.
Status set_deadline(int fd) {
  timeval tv{};
  tv.tv_sec = kConnectionDeadline.count();
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) < 0)
    return sys_error("setsockopt");
  return {};
}

struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

Status fill_sockaddr(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path))
    return Error::invalid_argument("socket path empty or too long: '" + path + "'");
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return {};
}

Status send_response(int fd, bool ok, Source source, Error::Kind kind, double wall_ms,
                     ByteView payload) {
  Bytes frame;
  put_u32(frame, kResponseMagic);
  put_u8(frame, ok ? 1 : 0);
  put_u8(frame, static_cast<std::uint8_t>(source));
  put_u8(frame, static_cast<std::uint8_t>(kind));
  put_u8(frame, 0);
  std::uint64_t wall_bits;
  std::memcpy(&wall_bits, &wall_ms, sizeof wall_bits);
  put_u64(frame, wall_bits);
  put_u64(frame, payload.size());
  put_bytes(frame, payload);
  return write_exact(fd, frame.data(), frame.size());
}

Status send_error(int fd, const Error& e) {
  const auto* msg = reinterpret_cast<const Byte*>(e.message.data());
  return send_response(fd, false, Source::kCold, e.kind, 0.0,
                       ByteView(msg, e.message.size()));
}

/// One request/response exchange. Frame-level failures are returned (the
/// connection is dead); engine-level failures are answered in-band. The
/// header must arrive by `deadline`, and the body by `deadline` plus its
/// announced size at kMinRequestRate.
Status serve_connection(ServeEngine& engine, int fd, std::uint64_t max_request_bytes,
                        Clock::time_point deadline) {
  std::uint8_t header[4 + 4 + 8];
  ZIPR_TRY(read_exact(fd, header, sizeof header, deadline));
  ByteView hv(header, sizeof header);
  if (get_u32(hv, 0) != kRequestMagic) {
    (void)send_error(fd, Error::parse("bad request magic"));
    return Error::parse("bad request magic");
  }
  std::uint64_t options_len = get_u32(hv, 4);
  std::uint64_t input_len = get_u64(hv, 8);
  if (input_len > max_request_bytes || options_len + input_len > max_request_bytes) {
    Error e = Error::invalid_argument("request exceeds max_request_bytes");
    (void)send_error(fd, e);
    return e;
  }
  deadline += std::chrono::milliseconds((options_len + input_len) / (kMinRequestRate / 1000));

  std::string options_text(options_len, '\0');
  ZIPR_TRY(read_exact(fd, options_text.data(), options_text.size(), deadline));
  Bytes input(static_cast<std::size_t>(input_len));
  ZIPR_TRY(read_exact(fd, input.data(), input.size(), deadline));

  auto options = parse_options(options_text);
  if (!options.ok()) return send_error(fd, options.error());

  auto response = engine.handle(input, *options);
  if (!response.ok()) return send_error(fd, response.error());
  return send_response(fd, true, response->source, Error::Kind::kInternal,
                       response->wall_ms, response->output);
}

}  // namespace

std::size_t acceptor_count(int jobs, long max_requests) {
  return batch::effective_jobs(
      jobs, max_requests < 0 ? SIZE_MAX : static_cast<std::size_t>(max_requests));
}

Status serve_on_socket(ServeEngine& engine, const SocketServerOptions& options) {
  sockaddr_un addr;
  ZIPR_TRY(fill_sockaddr(options.path, &addr));

  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return sys_error("socket");
  FdCloser listen_closer{listen_fd};

  // bind() creates the socket file before listen() makes it connectable.
  // Bind a temporary sibling and rename() it into place once it listens,
  // so a file at options.path always accepts connections; rename also
  // replaces a stale socket from a previous run atomically. A path too long
  // for the sibling's suffix binds in place.
  std::string bound = options.path + "." + std::to_string(::getpid()) + ".tmp";
  sockaddr_un bound_addr;
  if (!fill_sockaddr(bound, &bound_addr).ok()) {
    bound = options.path;
    bound_addr = addr;
  }
  ::unlink(bound.c_str());  // stale file from a previous run
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&bound_addr), sizeof bound_addr) < 0)
    return sys_error("bind " + bound);
  if (::listen(listen_fd, kListenBacklog) < 0 ||
      (bound != options.path && ::rename(bound.c_str(), options.path.c_str()) < 0)) {
    Error err = sys_error("listen on " + options.path);
    ::unlink(bound.c_str());
    return err;
  }

  // Every acceptor loops: claim a ticket, accept, serve. The ticket comes
  // first, so no thread waits in accept() for a connection nobody owes it
  // and exactly max_requests connections are served.
  std::atomic<long> tickets{options.max_requests};
  std::mutex error_mu;
  Status first_error;
  auto acceptor = [&](std::size_t) {
    while (options.max_requests < 0 || tickets.fetch_sub(1) > 0) {
      int fd;
      do fd = ::accept(listen_fd, nullptr, nullptr);
      while (fd < 0 && errno == EINTR);
      if (fd < 0) {
        Status st = sys_error("accept");
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          first_error = std::move(st);
          ::shutdown(listen_fd, SHUT_RDWR);  // fails the other acceptors' accept()
        }
        return;
      }
      FdCloser conn_closer{fd};
      const Clock::time_point deadline = Clock::now() + kConnectionDeadline;
      Status st = set_deadline(fd);
      try {
        if (st.ok()) st = serve_connection(engine, fd, options.max_request_bytes, deadline);
      } catch (const std::exception& e) {
        // An exception leaving a thread ends the process; fail only this
        // connection (e.g. a frame too large to allocate).
        st = Error::internal(std::string("uncaught exception: ") + e.what());
      }
      if (!st.ok()) {
        ZIPR_WARN << "serve: connection failed: " << st.error().message;
      }
    }
  };
  // One parallel_for index per acceptor, so each runs on its own thread
  // (the calling thread is one). A thread only picks up a second index
  // after its loop has ended: the tickets are gone or the socket failed.
  batch::parallel_for(engine.options().jobs,
                      acceptor_count(engine.options().jobs, options.max_requests), acceptor);
  if (!first_error.ok()) return first_error;
  ::unlink(options.path.c_str());
  return {};
}

Result<SubmitReply> submit_over_socket(const std::string& path, ByteView input,
                                       const RewriteOptions& options) {
  sockaddr_un addr;
  ZIPR_TRY(fill_sockaddr(path, &addr));

  // Build the whole frame before connecting: the server's request deadline
  // starts at accept(), so it should time the transfer, not this copy.
  std::string options_text = serialize_options(options);
  Bytes frame;
  put_u32(frame, kRequestMagic);
  put_u32(frame, static_cast<std::uint32_t>(options_text.size()));
  put_u64(frame, input.size());
  frame.insert(frame.end(), options_text.begin(), options_text.end());
  put_bytes(frame, input);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return sys_error("socket");
  FdCloser closer{fd};
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    return sys_error("connect " + path);
  ZIPR_TRY(write_exact(fd, frame.data(), frame.size()));

  std::uint8_t header[4 + 1 + 1 + 1 + 1 + 8 + 8];
  ZIPR_TRY(read_exact(fd, header, sizeof header));
  ByteView hv(header, sizeof header);
  if (get_u32(hv, 0) != kResponseMagic) return Error::parse("bad response magic");
  bool ok = header[4] == 1;
  auto source = static_cast<Source>(header[5]);
  auto kind = static_cast<Error::Kind>(header[6]);
  std::uint64_t wall_bits = get_u64(hv, 8);
  std::uint64_t payload_len = get_u64(hv, 16);
  if (payload_len > (std::uint64_t{1} << 31))
    return Error::parse("implausible response payload length");

  Bytes payload(static_cast<std::size_t>(payload_len));
  ZIPR_TRY(read_exact(fd, payload.data(), payload.size()));

  if (!ok)
    return Error(kind, "server: " + std::string(payload.begin(), payload.end()));

  SubmitReply reply;
  reply.output = std::move(payload);
  reply.source = source;
  std::memcpy(&reply.wall_ms, &wall_bits, sizeof reply.wall_ms);
  return reply;
}

}  // namespace zipr::serve
