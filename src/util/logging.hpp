#pragma once

/// \file logging.hpp
/// Minimal leveled logger. Defaults to Info; benches lower it to Warn so
/// table output stays clean. Thread-safe: the level is an atomic, emission
/// takes a mutex, and each line carries a small per-thread id (t0, t1, ...)
/// so interleaved executor-worker logs stay attributable.

#include <sstream>
#include <string>

namespace gns {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
void log_emit(LogLevel level, const std::string& message);
}

#define GNS_LOG(level, expr)                                        \
  do {                                                              \
    if (static_cast<int>(level) >= static_cast<int>(::gns::log_level())) { \
      std::ostringstream gns_log_os_;                               \
      gns_log_os_ << expr;                                          \
      ::gns::detail::log_emit(level, gns_log_os_.str());            \
    }                                                               \
  } while (false)

#define GNS_DEBUG(expr) GNS_LOG(::gns::LogLevel::Debug, expr)
#define GNS_INFO(expr) GNS_LOG(::gns::LogLevel::Info, expr)
#define GNS_WARN(expr) GNS_LOG(::gns::LogLevel::Warn, expr)
#define GNS_ERROR(expr) GNS_LOG(::gns::LogLevel::Error, expr)

}  // namespace gns
