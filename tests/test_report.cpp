#include "metrics/report.hpp"

#include <gtest/gtest.h>

namespace pcap::metrics {
namespace {

TEST(Table, RendersHeaderRuleAndRows) {
  Table t({"name", "value"});
  t.cell("x").cell(std::int64_t{42});
  t.end_row();
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, ColumnsAligned) {
  Table t({"a", "b"});
  t.cell("longvalue").cell("x");
  t.end_row();
  t.cell("s").cell("y");
  t.end_row();
  const std::string out = t.to_string();
  // Column b starts at the same offset in both data lines.
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= out.size(); ++i) {
    if (i == out.size() || out[i] == '\n') {
      lines.push_back(out.substr(start, i - start));
      start = i + 1;
    }
  }
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[2].find('x'), lines[3].find('y'));
}

TEST(Table, DoublePrecision) {
  Table t({"v"});
  t.cell(3.14159, 2);
  t.end_row();
  EXPECT_NE(t.to_string().find("3.14"), std::string::npos);
  EXPECT_EQ(t.to_string().find("3.142"), std::string::npos);
}

TEST(Table, PercentFormatting) {
  Table t({"v"});
  t.cell_percent(0.0213);
  t.end_row();
  EXPECT_NE(t.to_string().find("2.13%"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  t.cell("only");
  EXPECT_THROW(t.end_row(), std::logic_error);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowsCounter) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.cell("1");
  t.end_row();
  t.cell("2");
  t.end_row();
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NoTrailingSpaces) {
  Table t({"a", "b"});
  t.cell("x").cell("y");
  t.end_row();
  // Keep the rendered string alive for the whole scan: iterating over the
  // c_str() of a temporary reads freed memory.
  const std::string rendered = t.to_string();
  for (const char* line = rendered.c_str(); *line != '\0';) {
    const char* nl = line;
    while (*nl != '\0' && *nl != '\n') ++nl;
    if (nl > line) {
      EXPECT_NE(*(nl - 1), ' ');
    }
    line = *nl == '\0' ? nl : nl + 1;
  }
}

}  // namespace
}  // namespace pcap::metrics
