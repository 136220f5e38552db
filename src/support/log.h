// Leveled logging to stderr.
//
// The rewriter follows the paper's practice of emitting warnings when it
// makes conservative calls (e.g. ambiguous code/data classification) so
// failures are debuggable; those flow through LOG at kWarn level.
//
// The logger is THREAD-SAFE: the level is atomic, and sink dispatch is
// serialized under a mutex so concurrent rewrites (batch::parallel_for)
// never interleave bytes within a line or race a sink swap. Each message is
// formatted into a private buffer first; only the final emit takes the lock.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace zipr {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped. Default: kWarn.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Receives every emitted line (already filtered by level). Invoked under
/// the logger mutex: calls are serialized, and the sink must not log.
using LogSink = std::function<void(LogLevel, const std::string&)>;

/// Replace the output sink (nullptr restores the default stderr writer).
/// Safe to call while other threads are logging.
void set_log_sink(LogSink sink);

namespace detail {
void log_line(LogLevel level, const std::string& msg);

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { log_line(level_, os_.str()); }
  template <typename T>
  LogMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

#define ZIPR_LOG(level)                                   \
  if (::zipr::log_level() > ::zipr::LogLevel::level) {    \
  } else                                                  \
    ::zipr::detail::LogMessage(::zipr::LogLevel::level)

#define ZIPR_DEBUG ZIPR_LOG(kDebug)
#define ZIPR_INFO ZIPR_LOG(kInfo)
#define ZIPR_WARN ZIPR_LOG(kWarn)
#define ZIPR_ERROR ZIPR_LOG(kError)

}  // namespace zipr
