#include "common/config.hpp"

#include <gtest/gtest.h>

namespace pcap::common {
namespace {

TEST(Config, ParseBasicPairs) {
  const Config c = Config::parse("a = 1\nb = hello\n");
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_EQ(c.get_string("b", ""), "hello");
}

TEST(Config, CommentsAndBlanksIgnored) {
  const Config c = Config::parse("# comment\n\n; other comment\nx = 2\n");
  EXPECT_EQ(c.get_int("x", 0), 2);
  EXPECT_EQ(c.keys().size(), 1u);
}

TEST(Config, SectionsPrefixKeys) {
  const Config c = Config::parse("[power]\nbudget = 42\n[cluster]\nnodes=128");
  EXPECT_EQ(c.get_int("power.budget", 0), 42);
  EXPECT_EQ(c.get_int("cluster.nodes", 0), 128);
}

TEST(Config, WhitespaceTrimmed) {
  const Config c = Config::parse("  key   =   value with spaces  \n");
  EXPECT_EQ(c.get_string("key", ""), "value with spaces");
}

TEST(Config, MissingKeyUsesDefault) {
  const Config c = Config::parse("");
  EXPECT_EQ(c.get_int("nope", 7), 7);
  EXPECT_EQ(c.get_string("nope", "d"), "d");
  EXPECT_DOUBLE_EQ(c.get_double("nope", 1.5), 1.5);
  EXPECT_TRUE(c.get_bool("nope", true));
}

TEST(Config, DoubleParsing) {
  const Config c = Config::parse("x = 3.25\ny = -1e3\n");
  EXPECT_DOUBLE_EQ(c.get_double("x", 0.0), 3.25);
  EXPECT_DOUBLE_EQ(c.get_double("y", 0.0), -1000.0);
}

TEST(Config, BoolForms) {
  const Config c = Config::parse(
      "a=true\nb=FALSE\nc=1\nd=0\ne=yes\nf=no\ng=on\nh=off\n");
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
  EXPECT_TRUE(c.get_bool("e", false));
  EXPECT_FALSE(c.get_bool("f", true));
  EXPECT_TRUE(c.get_bool("g", false));
  EXPECT_FALSE(c.get_bool("h", true));
}

TEST(Config, BadIntThrows) {
  const Config c = Config::parse("x = abc\n");
  EXPECT_THROW((void)c.get_int("x", 0), std::runtime_error);
}

TEST(Config, BadBoolThrows) {
  const Config c = Config::parse("x = maybe\n");
  EXPECT_THROW((void)c.get_bool("x", false), std::runtime_error);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::parse("this is not a pair\n"), std::runtime_error);
}

TEST(Config, UnterminatedSectionThrows) {
  EXPECT_THROW(Config::parse("[power\n"), std::runtime_error);
}

TEST(Config, EmptyKeyThrows) {
  EXPECT_THROW(Config::parse(" = value\n"), std::runtime_error);
}

TEST(Config, LastValueWins) {
  const Config c = Config::parse("x = 1\nx = 2\n");
  EXPECT_EQ(c.get_int("x", 0), 2);
}

TEST(Config, RoundTripThroughToString) {
  const Config c = Config::parse("a = 1\nsection.key = v\n");
  const Config c2 = Config::parse(c.to_string());
  EXPECT_EQ(c2.get_int("a", 0), 1);
  EXPECT_EQ(c2.get_string("section.key", ""), "v");
}

TEST(Config, HasAndRaw) {
  const Config c = Config::parse("x = 7\n");
  EXPECT_EQ(c.raw("x").value(), "7");
  EXPECT_FALSE(c.raw("y").has_value());
}

TEST(Config, LoadFileMissingThrows) {
  EXPECT_THROW(Config::load_file("/nonexistent/path/cfg.ini"),
               std::runtime_error);
}

}  // namespace
}  // namespace pcap::common
