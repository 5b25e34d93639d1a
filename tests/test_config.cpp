#include "common/config.hpp"

#include <gtest/gtest.h>

namespace unsync {
namespace {

TEST(Config, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "fi=30", "latency=40", "bench=galgel"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_int("fi", 0), 30);
  EXPECT_EQ(cfg.get_int("latency", 0), 40);
  EXPECT_EQ(cfg.get_string("bench", ""), "galgel");
}

TEST(Config, PositionalArgsCollected) {
  const char* argv[] = {"prog", "run", "x=1", "fast"};
  std::vector<std::string> pos;
  const Config cfg = Config::from_args(4, argv, &pos);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], "run");
  EXPECT_EQ(pos[1], "fast");
  EXPECT_TRUE(cfg.has("x"));
}

TEST(Config, FallbacksWhenMissing) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("b", true));
  EXPECT_EQ(cfg.get_string("s", "dflt"), "dflt");
}

TEST(Config, BoolSpellings) {
  Config cfg;
  cfg.set("a", "true");
  cfg.set("b", "0");
  cfg.set("c", "YES");
  cfg.set("d", "off");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, BadIntThrows) {
  Config cfg;
  cfg.set("n", "abc");
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
}

// Numbers are parsed whole: a prefix parse would read "5e4" as 5.
TEST(Config, IntRejectsTrailingCharacters) {
  Config cfg;
  cfg.set("insts", "5e4");
  cfg.set("seed", "12abc");
  EXPECT_THROW(cfg.get_int("insts", 0), ConfigError);
  EXPECT_THROW(cfg.get_int("seed", 0), ConfigError);
  EXPECT_THROW(cfg.get_count("insts", std::uint64_t{0}), ConfigError);
  EXPECT_THROW(cfg.get_count("seed", std::uint64_t{0}), ConfigError);
}

TEST(Config, DoubleRejectsTrailingCharacters) {
  Config cfg;
  cfg.set("ser", "1e-5x");
  EXPECT_THROW(cfg.get_double("ser", 0.0), ConfigError);
}

TEST(Config, CountRejectsNegativeAndOutOfRange) {
  Config cfg;
  cfg.set("threads", "-1");
  cfg.set("workers", "4294967296");
  cfg.set("blank", "");
  EXPECT_THROW(cfg.get_count<unsigned>("threads", 0), ConfigError);
  EXPECT_THROW(cfg.get_count<unsigned>("workers", 0), ConfigError);
  EXPECT_THROW(cfg.get_count<unsigned>("blank", 0), ConfigError);
  EXPECT_EQ(cfg.get_count<std::uint64_t>("workers", 0), 4294967296u);
}

TEST(Config, CountParsesAndFallsBack) {
  Config cfg;
  cfg.set("insts", "50000");
  EXPECT_EQ(cfg.get_count<std::uint64_t>("insts", 7), 50000u);
  EXPECT_EQ(cfg.get_count<unsigned>("threads", 3), 3u);
}

TEST(Config, ErrorNamesTheKey) {
  Config cfg;
  cfg.set("insts", "abc");
  try {
    cfg.get_count("insts", std::uint64_t{0});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'insts'"), std::string::npos);
  }
}

TEST(Config, BadBoolThrows) {
  Config cfg;
  cfg.set("b", "maybe");
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, SetOverwrites) {
  Config cfg;
  cfg.set("k", "1");
  cfg.set("k", "2");
  EXPECT_EQ(cfg.get_int("k", 0), 2);
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(Config, DoubleParsing) {
  Config cfg;
  cfg.set("ser", "2.89e-17");
  EXPECT_DOUBLE_EQ(cfg.get_double("ser", 0.0), 2.89e-17);
}

}  // namespace
}  // namespace unsync
