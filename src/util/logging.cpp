#include "util/logging.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdio>

namespace fedra {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug:
      return "DEBUG";
    case LogLevel::Info:
      return "INFO";
    case LogLevel::Warn:
      return "WARN";
    case LogLevel::Error:
      return "ERROR";
    case LogLevel::Off:
      return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

void log(LogLevel level, const char* fmt, ...) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  char msg[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, args);
  va_end(args);
  std::fprintf(stderr, "[fedra %s] %s\n", level_name(level), msg);
}

}  // namespace fedra
