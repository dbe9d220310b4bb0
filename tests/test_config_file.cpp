// Tests for the regression tool's configuration-file front end.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "regress/config_file.h"

namespace crve::regress {
namespace {

using stbus::ArbPolicy;
using stbus::Architecture;
using stbus::ProtocolType;

TEST(ConfigFile, ParsesFullConfig) {
  std::istringstream is(R"(
# a node configuration
name = node_a
n_initiators = 3
n_targets    = 2
bus_bytes    = 8
type         = 3
arch         = partial
arb          = latency
programming_port = 1
priorities   = 5, 3, 1
latency_deadline = 4,10,16
bandwidth_quota = 8,0,0
bandwidth_window = 32
xbar_group   = 0,0
)");
  const auto cfg = parse_config(is, "test");
  EXPECT_EQ(cfg.name, "node_a");
  EXPECT_EQ(cfg.n_initiators, 3);
  EXPECT_EQ(cfg.n_targets, 2);
  EXPECT_EQ(cfg.bus_bytes, 8);
  EXPECT_EQ(cfg.type, ProtocolType::kType3);
  EXPECT_EQ(cfg.arch, Architecture::kPartialCrossbar);
  EXPECT_EQ(cfg.arb, ArbPolicy::kLatencyBased);
  EXPECT_TRUE(cfg.programming_port);
  EXPECT_EQ(cfg.priorities, (std::vector<int>{5, 3, 1}));
  EXPECT_EQ(cfg.bandwidth_window, 32);
  EXPECT_EQ(cfg.xbar_group, (std::vector<int>{0, 0}));
}

TEST(ConfigFile, DefaultsWhenKeysOmitted) {
  std::istringstream is("n_initiators = 2\nn_targets = 2\n");
  const auto cfg = parse_config(is, "test");
  EXPECT_EQ(cfg.bus_bytes, 4);
  EXPECT_EQ(cfg.type, ProtocolType::kType2);
  EXPECT_EQ(cfg.address_map.size(), 2u);
}

TEST(ConfigFile, RejectsUnknownKey) {
  std::istringstream is("bogus = 1\n");
  EXPECT_THROW(parse_config(is, "test"), std::invalid_argument);
}

TEST(ConfigFile, RejectsMalformedLine) {
  std::istringstream is("just some text\n");
  EXPECT_THROW(parse_config(is, "test"), std::invalid_argument);
}

TEST(ConfigFile, RejectsBadEnumValues) {
  {
    std::istringstream is("arch = diagonal\n");
    EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
  }
  {
    std::istringstream is("arb = coinflip\n");
    EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
  }
  {
    std::istringstream is("type = 1\n");
    EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
  }
}

// Enum-like fields name the key, the offending value, and the accepted set.
TEST(ConfigFile, EnumErrorsListAcceptedValues) {
  auto message_of = [](const char* text) -> std::string {
    std::istringstream is(text);
    try {
      parse_config(is, "t");
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::string arch = message_of("arch = diagonal\n");
  EXPECT_NE(arch.find("arch"), std::string::npos);
  EXPECT_NE(arch.find("'diagonal'"), std::string::npos);
  EXPECT_NE(arch.find("shared, full, partial"), std::string::npos);

  const std::string arb = message_of("arb = coinflip\n");
  EXPECT_NE(arb.find("'coinflip'"), std::string::npos);
  EXPECT_NE(arb.find("fixed, rr, lru, latency, bandwidth, prog"),
            std::string::npos);

  const std::string type = message_of("type = 7\n");
  EXPECT_NE(type.find("type"), std::string::npos);
  EXPECT_NE(type.find("accepted: 2, 3"), std::string::npos);

  const std::string integer = message_of("n_initiators = soon\n");
  EXPECT_NE(integer.find("n_initiators"), std::string::npos);
  EXPECT_NE(integer.find("'soon'"), std::string::npos);
}

TEST(ConfigFile, RejectsTrailingJunkOnIntegers) {
  std::istringstream is("n_targets = 4x\n");
  EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
}

// Both comment styles, whole-line and trailing (config_file.h documents
// this; the linter's scanner applies the same grammar).
TEST(ConfigFile, AcceptsHashAndSlashComments) {
  std::istringstream is(
      "# whole-line hash\n"
      "// whole-line slashes\n"
      "name = c   // trailing slashes\n"
      "n_initiators = 3 # trailing hash\n"
      "n_targets = 2\n");
  const auto cfg = parse_config(is, "t");
  EXPECT_EQ(cfg.name, "c");
  EXPECT_EQ(cfg.n_initiators, 3);
}

// Edge cases the linter formalizes as CRVE0xx rules: the parser must agree
// with the lint verdict (see test_lint.cpp LintConfig.VerdictsAgreeWithParser).
TEST(ConfigFile, RejectsZeroPorts) {
  std::istringstream is("n_initiators = 0\n");
  EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
  std::istringstream is2("n_targets = 0\n");
  EXPECT_THROW(parse_config(is2, "t"), std::invalid_argument);
}

TEST(ConfigFile, RejectsNonPowerOfTwoWidth) {
  std::istringstream is("bus_bytes = 6\n");
  EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
  std::istringstream is2("bus_bytes = 64\n");  // > 32 bytes (256 bits)
  EXPECT_THROW(parse_config(is2, "t"), std::invalid_argument);
}

TEST(ConfigFile, RejectsOutOfRangeXbarGroup) {
  std::istringstream is(
      "n_targets = 2\narch = partial\nxbar_group = 0,5\n");
  EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
}

TEST(ConfigFile, RejectsListLengthMismatch) {
  std::istringstream is("n_initiators = 2\npriorities = 1,2,3\n");
  EXPECT_THROW(parse_config(is, "t"), std::invalid_argument);
  std::istringstream is2("n_initiators = 2\nlatency_deadline = 4\n");
  EXPECT_THROW(parse_config(is2, "t"), std::invalid_argument);
}

TEST(ConfigFile, ErrorMessagesCarryLineNumbers) {
  std::istringstream is("name = x\nbogus = 1\n");
  try {
    parse_config(is, "myfile.cfg");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("myfile.cfg:2"), std::string::npos);
  }
  // Validation failures name the file too.
  std::istringstream window("bandwidth_window = 0\n");
  try {
    parse_config(window, "myfile.cfg");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("myfile.cfg: ", 0), 0u) << e.what();
  }
}

TEST(ConfigFile, RoundTripsThroughFormat) {
  std::istringstream is(
      "name = rt\nn_initiators = 4\nn_targets = 3\nbus_bytes = 16\n"
      "type = 3\narch = shared\narb = bandwidth\n"
      "bandwidth_quota = 1,2,3,4\n");
  const auto cfg = parse_config(is, "t");
  std::istringstream is2(format_config(cfg));
  const auto cfg2 = parse_config(is2, "t2");
  EXPECT_EQ(cfg2.name, cfg.name);
  EXPECT_EQ(cfg2.n_initiators, cfg.n_initiators);
  EXPECT_EQ(cfg2.n_targets, cfg.n_targets);
  EXPECT_EQ(cfg2.bus_bytes, cfg.bus_bytes);
  EXPECT_EQ(cfg2.type, cfg.type);
  EXPECT_EQ(cfg2.arch, cfg.arch);
  EXPECT_EQ(cfg2.arb, cfg.arb);
  EXPECT_EQ(cfg2.bandwidth_quota, cfg.bandwidth_quota);
}

TEST(ConfigFile, LoadsDirectorySorted) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "crve_cfg_test";
  fs::create_directories(dir);
  {
    std::ofstream(dir / "b_node.cfg") << "name = bbb\n";
    std::ofstream(dir / "a_node.cfg") << "name = aaa\n";
    std::ofstream(dir / "ignored.txt") << "name = nope\n";
  }
  const auto cfgs = configs_from_dir(dir.string());
  ASSERT_EQ(cfgs.size(), 2u);
  EXPECT_EQ(cfgs[0].name, "aaa");
  EXPECT_EQ(cfgs[1].name, "bbb");
  EXPECT_THROW(configs_from_dir((dir / "missing").string()),
               std::invalid_argument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace crve::regress
