#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace nsdc {
namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

void log_message(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < g_level.load()) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[nsdc %s] %s\n", level_name(level), msg.c_str());
}

}  // namespace nsdc
