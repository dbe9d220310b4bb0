// Command-line contracts of crve_stba and crve_regress, run as the built
// executables: threshold validation and the text verdict's threshold.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "stba/analyzer.h"

namespace crve {
namespace {

namespace fs = std::filesystem;

struct Outcome {
  int status = -1;     // exit code
  std::string output;  // stdout and stderr, interleaved
};

Outcome run(const std::string& command) {
  Outcome out;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.output.append(buf, n);
  }
  const int raw = pclose(pipe);
  if (raw != -1 && WIFEXITED(raw)) out.status = WEXITSTATUS(raw);
  return out;
}

// A one-port dump of `cycles` cycles whose request is granted on the
// listed cycles only.
std::string dump(std::uint64_t cycles, const std::vector<std::uint64_t>& hot) {
  std::string s = "$timescale 1ns $end\n$scope module tb $end\n"
                  "$scope module p0 $end\n";
  const auto& names = stba::Analyzer::port_fields();
  for (std::size_t f = 0; f < names.size(); ++f) {
    s += "$var wire 1 " + std::string(1, static_cast<char>('!' + f)) + " " +
         names[f] + " $end\n";
  }
  s += "$upscope $end\n$upscope $end\n$enddefinitions $end\n#0\n";
  for (const std::uint64_t c : hot) {
    s += "#" + std::to_string(c) + "\n1!\n1\"\n";
    s += "#" + std::to_string(c + 1) + "\n0!\n0\"\n";
  }
  s += "#" + std::to_string(cycles - 1) + "\n";
  return s;
}

void write(const fs::path& p, const std::string& text) {
  std::ofstream(p) << text;
}

const char* const kBadThresholds[] = {"abc", "nan", "0", "-0.5", "1.5"};

TEST(StbaCli, RejectsInvalidThresholdWithUsageExit) {
  for (const char* bad : kBadThresholds) {
    const Outcome r = run(std::string(CRVE_STBA_BIN) +
                          " a.vcd b.vcd --ports tb.p0 --threshold " + bad);
    EXPECT_EQ(r.status, 2) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("invalid --threshold '" + std::string(bad) +
                            "': expected a number in (0, 1]"),
              std::string::npos)
        << r.output;
  }
}

TEST(RegressCli, RejectsInvalidThresholdWithUsageExit) {
  for (const char* bad : kBadThresholds) {
    const Outcome r = run(std::string(CRVE_REGRESS_BIN) +
                          " --configs " CRVE_SOURCE_DIR "/configs"
                          " --threshold " +
                          bad);
    EXPECT_EQ(r.status, 2) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("invalid --threshold '" + std::string(bad) +
                            "': expected a number in (0, 1]"),
              std::string::npos)
        << r.output;
  }
}

// A 97% pair: signed off at 0.95, in the text verdict and the exit code
// alike; not at the default 0.99.
TEST(StbaCli, TextVerdictFollowsThreshold) {
  const fs::path dir = fs::temp_directory_path() / "crve_cli_text_verdict";
  fs::create_directories(dir);
  write(dir / "a.vcd", dump(100, {5}));
  write(dir / "b.vcd", dump(100, {5, 10, 40, 70}));
  const std::string cmd = std::string(CRVE_STBA_BIN) + " " +
                          (dir / "a.vcd").string() + " " +
                          (dir / "b.vcd").string() + " --ports tb.p0";

  const Outcome at95 = run(cmd + " --threshold 0.95");
  EXPECT_EQ(at95.status, 0) << at95.output;
  EXPECT_NE(at95.output.find("min rate 97%, SIGNED OFF (>=95% everywhere)"),
            std::string::npos)
      << at95.output;

  const Outcome at99 = run(cmd);
  EXPECT_EQ(at99.status, 1) << at99.output;
  EXPECT_NE(at99.output.find("min rate 97%, NOT signed off"),
            std::string::npos)
      << at99.output;
  fs::remove_all(dir);
}

// A --configs directory that does not exist is a reported error with
// exit 2, from the lint preflight and from the loader alike.
TEST(RegressCli, MissingConfigDirExitsTwo) {
  const std::string missing =
      (fs::temp_directory_path() / "crve_cli_no_such_dir").string();
  fs::remove_all(missing);
  for (const char* lint : {"", " --no-lint"}) {
    const Outcome r =
        run(std::string(CRVE_REGRESS_BIN) + " --configs " + missing + lint);
    EXPECT_EQ(r.status, 2) << lint << ": " << r.output;
    EXPECT_NE(r.output.find("cannot list config directory " + missing),
              std::string::npos)
        << r.output;
  }
}

// Numeric flags take the whole value or exit 2 before any campaign starts:
// no sign, no trailing junk, nothing past the flag's bound, and no gate
// tolerance that is not a finite number >= 0.
TEST(RegressCli, RejectsMisreadNumericFlagsWithUsageExit) {
  const std::pair<const char*, const char*> bad[] = {
      {"--jobs", "-1"},
      {"--jobs", "5x"},
      {"--jobs", "1025"},
      {"--flight-recorder", "-1"},
      {"--flight-recorder", "1000001"},
      {"--gate-rate-drop", "nan"},
      {"--gate-rate-drop", "inf"},
      {"--gate-rate-drop", "-0.1"},
      {"--gate-coverage-drop", "nan"},
      {"--cache-max-mb", "17592186044416"},
      {"--seeds", "-3"},
      {"--seeds", "1,2x"},
      {"--tx", "5x"},
      {"--tx", "+5"},
      {"--tx", "2147483648"},
      {"--triage-window", "-1"},
  };
  for (const auto& [flag, value] : bad) {
    const Outcome r = run(std::string(CRVE_REGRESS_BIN) +
                          " --configs " CRVE_SOURCE_DIR "/configs " + flag +
                          " " + value);
    EXPECT_EQ(r.status, 2) << flag << " " << value << ": " << r.output;
    const std::string item = std::string(value) == "1,2x" ? "2x" : value;
    EXPECT_NE(r.output.find("invalid " + std::string(flag) + " '" + item +
                            "'"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("signed off"), std::string::npos) << r.output;
  }
}

}  // namespace
}  // namespace crve
