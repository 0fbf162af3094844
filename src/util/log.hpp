#pragma once
// Minimal leveled logger. Single global sink (stderr) with a runtime level;
// benches raise the level to keep reproduction output clean.

#include <sstream>
#include <string>

namespace nsdc {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that will be emitted.
void set_log_level(LogLevel level);

/// Emits a single log line (thread-safe) if `level` passes the filter.
void log_message(LogLevel level, const std::string& msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }

}  // namespace nsdc
