// Minimal levelled logger.
//
// The library is a simulation substrate, so logging is kept deliberately
// simple: a process-wide level, printf-style formatting, and an optional
// sink override for capturing output in tests. Hot paths guard with
// `PCAP_LOG_ENABLED` so disabled levels cost one branch.
#pragma once

#include <cstdarg>
#include <functional>
#include <string>

namespace pcap::common {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the printable name of a level ("INFO", ...).
const char* log_level_name(LogLevel level);

class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// Process-wide logger instance.
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  /// Replaces the output sink (default: stderr). Pass nullptr to restore.
  void set_sink(Sink sink);

  /// printf-style log entry.
  void logf(LogLevel level, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

}  // namespace pcap::common

#define PCAP_LOG_ENABLED(lvl) (::pcap::common::Logger::instance().enabled(lvl))

#define PCAP_LOG(lvl, ...)                                     \
  do {                                                         \
    if (PCAP_LOG_ENABLED(lvl)) {                               \
      ::pcap::common::Logger::instance().logf(lvl, __VA_ARGS__); \
    }                                                          \
  } while (0)

#define PCAP_TRACE(...) PCAP_LOG(::pcap::common::LogLevel::kTrace, __VA_ARGS__)
#define PCAP_DEBUG(...) PCAP_LOG(::pcap::common::LogLevel::kDebug, __VA_ARGS__)
#define PCAP_INFO(...) PCAP_LOG(::pcap::common::LogLevel::kInfo, __VA_ARGS__)
#define PCAP_WARN(...) PCAP_LOG(::pcap::common::LogLevel::kWarn, __VA_ARGS__)
#define PCAP_ERROR(...) PCAP_LOG(::pcap::common::LogLevel::kError, __VA_ARGS__)
