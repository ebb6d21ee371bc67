#include "common/logging.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pcap::common {
namespace {

/// RAII capture of logger output; restores level and sink on destruction.
class LogCapture {
 public:
  LogCapture() : saved_level_(Logger::instance().level()) {
    Logger::instance().set_sink([this](LogLevel level, const std::string& m) {
      entries_.emplace_back(level, m);
    });
  }
  ~LogCapture() {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(saved_level_);
  }
  const std::vector<std::pair<LogLevel, std::string>>& entries() const {
    return entries_;
  }

 private:
  LogLevel saved_level_;
  std::vector<std::pair<LogLevel, std::string>> entries_;
};

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(log_level_name(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(log_level_name(LogLevel::kWarn), "WARN");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
  EXPECT_STREQ(log_level_name(LogLevel::kOff), "OFF");
}

TEST(Logging, SinkReceivesFormattedMessage) {
  LogCapture cap;
  Logger::instance().set_level(LogLevel::kInfo);
  PCAP_INFO("power %d W on node %s", 415, "n07");
  ASSERT_EQ(cap.entries().size(), 1u);
  EXPECT_EQ(cap.entries()[0].first, LogLevel::kInfo);
  EXPECT_EQ(cap.entries()[0].second, "power 415 W on node n07");
}

TEST(Logging, LevelFiltersLowerSeverity) {
  LogCapture cap;
  Logger::instance().set_level(LogLevel::kWarn);
  PCAP_DEBUG("dropped %d", 1);
  PCAP_INFO("dropped too");
  PCAP_WARN("kept");
  PCAP_ERROR("kept %s", "also");
  ASSERT_EQ(cap.entries().size(), 2u);
  EXPECT_EQ(cap.entries()[0].second, "kept");
  EXPECT_EQ(cap.entries()[1].second, "kept also");
}

TEST(Logging, OffSilencesEverything) {
  LogCapture cap;
  Logger::instance().set_level(LogLevel::kOff);
  PCAP_ERROR("even errors");
  EXPECT_TRUE(cap.entries().empty());
}

TEST(Logging, EnabledGuard) {
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_TRUE(PCAP_LOG_ENABLED(LogLevel::kError));
  EXPECT_TRUE(PCAP_LOG_ENABLED(LogLevel::kWarn));
  EXPECT_FALSE(PCAP_LOG_ENABLED(LogLevel::kInfo));
  Logger::instance().set_level(LogLevel::kWarn);
}

TEST(Logging, LongMessagesSurviveFormatting) {
  LogCapture cap;
  Logger::instance().set_level(LogLevel::kInfo);
  const std::string big(4096, 'x');
  PCAP_INFO("%s", big.c_str());
  ASSERT_EQ(cap.entries().size(), 1u);
  EXPECT_EQ(cap.entries()[0].second.size(), 4096u);
}

}  // namespace
}  // namespace pcap::common
