// Leveled stderr logging. Level is an explicit process-wide setting changed
// only at startup by executables (benches flip to Info, tests to Warn), so
// the relaxed atomic is race-free in practice and safe regardless.
#pragma once

#include <string>

namespace fedra {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_log_level(LogLevel level);

/// printf-style logging; no-op when below the current level.
void log(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

#define FEDRA_LOG_DEBUG(...) ::fedra::log(::fedra::LogLevel::Debug, __VA_ARGS__)
#define FEDRA_LOG_INFO(...) ::fedra::log(::fedra::LogLevel::Info, __VA_ARGS__)
#define FEDRA_LOG_WARN(...) ::fedra::log(::fedra::LogLevel::Warn, __VA_ARGS__)
#define FEDRA_LOG_ERROR(...) ::fedra::log(::fedra::LogLevel::Error, __VA_ARGS__)

}  // namespace fedra
