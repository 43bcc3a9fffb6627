// Minimal leveled logger writing to stderr.
//
// The library itself logs sparingly: progress notes (dropped samples,
// Krylov breakdowns) at Debug, caveats about a result at Warn.
#pragma once

#include <sstream>
#include <string>

namespace pmtbr {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

void log_message(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
void log_fmt(LogLevel level, Args&&... args) {
  if (level < log_level()) return;
  std::ostringstream os;
  (os << ... << args);
  log_message(level, os.str());
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  detail::log_fmt(LogLevel::kDebug, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(Args&&... args) {
  detail::log_fmt(LogLevel::kWarn, std::forward<Args>(args)...);
}

}  // namespace pmtbr
