#include "common/logging.hpp"

#include <cstdio>
#include <vector>

namespace pcap::common {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) { sink_ = std::move(sink); }

void Logger::logf(LogLevel level, const char* fmt, ...) {
  if (!enabled(level)) return;
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string msg;
  if (needed > 0) {
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    msg.assign(buf.data(), static_cast<std::size_t>(needed));
  }
  va_end(args);
  if (sink_) {
    sink_(level, msg);
  } else {
    std::fprintf(stderr, "[%s] %s\n", log_level_name(level), msg.c_str());
  }
}

}  // namespace pcap::common
