// Tests for the crve_lint rule engine: config/campaign rules, the source
// determinism scanner (with inline suppressions), the SARIF 2.1.0 renderer,
// and the two in-place checks the CI lint job relies on — the shipped
// configs/ directory lints clean and the real src/ tree has zero
// unsuppressed determinism findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "common/json.h"
#include "common/rng.h"
#include "lint/lint.h"
#include "regress/config_file.h"

namespace crve::lint {
namespace {

bool has_rule(const Report& r, const std::string& id) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) { return f.rule_id == id; });
}

const Finding* first_of(const Report& r, const std::string& id) {
  for (const auto& f : r.findings) {
    if (f.rule_id == id) return &f;
  }
  return nullptr;
}

// --- catalogue ------------------------------------------------------------

TEST(LintCatalogue, IdsAreUniqueSortedAndFindable) {
  const auto& rules = rule_catalogue();
  ASSERT_FALSE(rules.empty());
  std::set<std::string> ids;
  std::string prev;
  for (const auto& r : rules) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    EXPECT_LT(prev, r.id) << "catalogue not sorted at " << r.id;
    prev = r.id;
    const Rule* found = find_rule(r.id);
    ASSERT_NE(found, nullptr);
    EXPECT_STREQ(found->id, r.id);
  }
  EXPECT_EQ(find_rule("CRVE999"), nullptr);
}

// --- config text rules ----------------------------------------------------

TEST(LintConfig, CleanConfigHasNoFindings) {
  const Report r = lint_config_text(
      "name = ok\nn_initiators = 3\nn_targets = 2\narb = latency\n"
      "latency_deadline = 4, 8, 12\n",
      "ok.cfg");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(LintConfig, SyntaxAndKeyRules) {
  const Report r = lint_config_text(
      "just words\n"       // CRVE001
      "bogus = 1\n"        // CRVE002
      "n_targets = 2\n"
      "n_targets = 3\n",   // CRVE003
      "t.cfg");
  EXPECT_TRUE(has_rule(r, "CRVE001"));
  EXPECT_TRUE(has_rule(r, "CRVE002"));
  EXPECT_TRUE(has_rule(r, "CRVE003"));
  const Finding* dup = first_of(r, "CRVE003");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->line, 4);
  EXPECT_NE(dup->message.find("line 3"), std::string::npos);
}

TEST(LintConfig, AcceptsBothCommentStyles) {
  const Report r = lint_config_text(
      "# hash comment\n// slash comment\nname = c   // trailing\n"
      "n_initiators = 2 # trailing hash\n",
      "c.cfg");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintConfig, PaperLimits) {
  const Report zero = lint_config_text("n_initiators = 0\n", "z.cfg");
  EXPECT_TRUE(has_rule(zero, "CRVE010"));
  const Report many = lint_config_text("n_initiators = 33\n", "m.cfg");
  EXPECT_TRUE(has_rule(many, "CRVE010"));
  const Report tgt = lint_config_text("n_targets = 0\n", "t.cfg");
  EXPECT_TRUE(has_rule(tgt, "CRVE011"));
  const Report width = lint_config_text("bus_bytes = 6\n", "w.cfg");
  EXPECT_TRUE(has_rule(width, "CRVE012"));
  const Report wide = lint_config_text("bus_bytes = 64\n", "w2.cfg");
  EXPECT_TRUE(has_rule(wide, "CRVE012"));
}

TEST(LintConfig, BadValuesNameKeyAndAcceptedSet) {
  const Report r = lint_config_text(
      "n_initiators = soon\narch = diagonal\narb = coinflip\ntype = 1\n",
      "v.cfg");
  EXPECT_TRUE(has_rule(r, "CRVE004"));
  const Finding* arch = first_of(r, "CRVE005");
  ASSERT_NE(arch, nullptr);
  EXPECT_NE(arch->message.find("shared, full, partial"), std::string::npos);
  int enum_findings = 0;
  for (const auto& f : r.findings) enum_findings += f.rule_id == "CRVE005";
  EXPECT_EQ(enum_findings, 3);  // arch, arb, type
}

TEST(LintConfig, ArbCoupling) {
  // latency without deadlines: the acceptance-criteria example.
  const Report lat = lint_config_text("arb = latency\n", "lat.cfg");
  EXPECT_TRUE(has_rule(lat, "CRVE013"));
  EXPECT_EQ(lat.exit_code(), 2);

  const Report lat_bad = lint_config_text(
      "n_initiators = 2\narb = latency\nlatency_deadline = 4, 0\n",
      "lat2.cfg");
  EXPECT_TRUE(has_rule(lat_bad, "CRVE021"));

  const Report bw = lint_config_text("arb = bandwidth\n", "bw.cfg");
  EXPECT_TRUE(has_rule(bw, "CRVE015"));
  const Report bw_win = lint_config_text(
      "arb = bandwidth\nbandwidth_quota = 1,1\nbandwidth_window = 0\n",
      "bw2.cfg");
  EXPECT_TRUE(has_rule(bw_win, "CRVE015"));

  const Report prog = lint_config_text("arb = prog\n", "p.cfg");
  EXPECT_TRUE(has_rule(prog, "CRVE016"));
  const Report prog_ok = lint_config_text(
      "arb = prog\nprogramming_port = 1\n", "p2.cfg");
  EXPECT_FALSE(has_rule(prog_ok, "CRVE016"));
}

TEST(LintConfig, ListLengthMismatch) {
  const Report r = lint_config_text(
      "n_initiators = 2\npriorities = 1,2,3\n", "l.cfg");
  const Finding* f = first_of(r, "CRVE014");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("3 entries for 2"), std::string::npos);
}

TEST(LintConfig, PartialCrossbarRules) {
  const Report len = lint_config_text(
      "n_targets = 3\narch = partial\nxbar_group = 0,1\n", "x1.cfg");
  EXPECT_TRUE(has_rule(len, "CRVE017"));

  const Report range = lint_config_text(
      "n_targets = 2\narch = partial\nxbar_group = 0,5\n", "x2.cfg");
  EXPECT_TRUE(has_rule(range, "CRVE018"));

  const Report sparse = lint_config_text(
      "n_targets = 3\narch = partial\nxbar_group = 0,2,2\n", "x3.cfg");
  EXPECT_TRUE(has_rule(sparse, "CRVE019"));

  const Report ignored = lint_config_text(
      "n_targets = 2\narch = full\nxbar_group = 0,1\n", "x4.cfg");
  const Finding* f = first_of(ignored, "CRVE020");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kNote);
  EXPECT_EQ(ignored.exit_code(), 0);  // notes never fail a run
}

// The agreement property between the linter and the parser: a config
// parse_config rejects gets at least one lint error, and a config with no
// lint finding parses. parse_config throws nothing but
// std::invalid_argument. Returns whether the text parsed.
bool expect_agreement(const std::string& text) {
  const Report lint = lint_config_text(text, "agree.cfg");
  std::istringstream is(text);
  bool parsed = true;
  try {
    regress::parse_config(is, "agree.cfg");
  } catch (const std::invalid_argument&) {
    parsed = false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse_config threw " << e.what() << " on\n" << text;
    parsed = false;
  }
  if (!parsed) {
    EXPECT_GE(lint.exit_code(), 2) << text;
  }
  if (lint.findings.empty()) {
    EXPECT_TRUE(parsed) << text;
  }
  return parsed;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

const char* const kBrokenTexts[] = {
    "n_initiators = 0\n",                                  // zero ports
    "bus_bytes = 6\n",                                     // non-power-of-two
    "n_targets = 2\narch = partial\nxbar_group = 0,5\n",  // out of range
    "n_initiators = 2\npriorities = 1,2,3\n",             // length mismatch
};
const char* const kFineText =
    "name = ok\nn_initiators = 2\nn_targets = 2\narch = partial\n"
    "xbar_group = 0,1\n";

TEST(LintConfig, VerdictsAgreeWithParser) {
  for (const char* text : kBrokenTexts) {
    EXPECT_FALSE(expect_agreement(text)) << text;
  }
  EXPECT_TRUE(expect_agreement(kFineText));
  EXPECT_EQ(lint_config_text(kFineText, "ok.cfg").exit_code(), 0);

  // Variants of a shipped config that a lint-side copy of the grammar once
  // passed clean while the parser rejected them. Each needs an error
  // finding on the line it changed.
  struct Variant {
    const char* from;
    const char* to;
    int line;
  };
  const Variant variants[] = {
      {"n_initiators = 3", "n_initiators = 4294967299", 2},
      {"type = 2", "type = 02", 5},
      {"type = 2", "type = +3", 5},
      {"bandwidth_window = 64", "bandwidth_window = 0", 9},
      {"arb = lru", "arb = fixed\npriorities = 4294967296,1,2", 8},
  };
  const std::string shipped =
      slurp(CRVE_SOURCE_DIR "/configs/a_node_t2_xbar_lru.cfg");
  for (const Variant& v : variants) {
    std::string text = shipped;
    const auto at = text.find(v.from);
    ASSERT_NE(at, std::string::npos) << v.from;
    text.replace(at, std::string(v.from).size(), v.to);
    EXPECT_FALSE(expect_agreement(text)) << text;
    const Report r = lint_config_text(text, "variant.cfg");
    EXPECT_TRUE(std::any_of(r.findings.begin(), r.findings.end(),
                            [&](const Finding& f) {
                              return f.severity == Severity::kError &&
                                     f.line == v.line;
                            }))
        << v.to << "\n" << render_text(r);
  }
}

// A seeded mutation sweep over the config grammar, no external fuzzer:
// mutants of the shipped configs and this file's texts — lines dropped,
// duplicated, truncated or key-swapped, values set to out-of-range,
// signed, zero-padded, empty or random printable text — must all keep the
// agreement property, and nothing may crash.
TEST(LintConfig, SeededMutantsAgreeWithParser) {
  std::vector<std::string> bases = {
      slurp(CRVE_SOURCE_DIR "/configs/a_node_t2_xbar_lru.cfg"),
      slurp(CRVE_SOURCE_DIR "/configs/b_node_t3_shared_latency.cfg"),
      slurp(CRVE_SOURCE_DIR "/configs/c_node_t2_wide_prog.cfg"),
      kFineText,
      "name = ok\nn_initiators = 3\nn_targets = 2\narb = latency\n"
      "latency_deadline = 4, 8, 12\n",
      "arb = bandwidth\nbandwidth_quota = 1,1\nbandwidth_window = 0\n",
      "# hash comment\n// slash comment\nname = c   // trailing\n"
      "n_initiators = 2 # trailing hash\n",
  };
  bases.insert(bases.end(), std::begin(kBrokenTexts), std::end(kBrokenTexts));
  const char* const keys[] = {
      "name",       "n_initiators",     "n_targets",        "bus_bytes",
      "type",       "arch",             "arb",              "programming_port",
      "priorities", "latency_deadline", "bandwidth_quota",  "bandwidth_window",
      "xbar_group"};
  const char* const numbers[] = {
      "4294967296", "-2147483649", "2147483648", "99999999999999999999",
      "+2",         "-1",          "02",         "0",
      "1,2",        "0,0,1",       "3,,4",       "1,x"};

  Rng rng(20);
  auto key_of = [](const std::string& line) {
    const auto eq = line.find('=');
    return eq == std::string::npos ? line : line.substr(0, eq);
  };
  int mutants = 0;
  int parsed = 0;
  for (int round = 0; round < 3000; ++round) {
    std::vector<std::string> lines;
    {
      std::istringstream is(bases[rng.index(bases.size())]);
      for (std::string l; std::getline(is, l);) lines.push_back(l);
    }
    const int edits = 1 + rng.index(3);
    for (int e = 0; e < edits; ++e) {
      const std::size_t i = lines.empty() ? 0 : rng.index(lines.size());
      const bool have = i < lines.size();
      std::string value;
      switch (rng.index(8)) {
        case 0:  // drop a line
          if (have) lines.erase(lines.begin() + static_cast<long>(i));
          continue;
        case 1:  // duplicate a line
          if (have) lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
          continue;
        case 2:  // truncate a line
          if (have) lines[i].resize(rng.index(lines[i].size() + 1));
          continue;
        case 3: {  // swap the keys of two lines
          if (lines.size() < 2) continue;
          const std::size_t j = rng.index(lines.size());
          const std::string ki = key_of(lines[i]);
          const std::string kj = key_of(lines[j]);
          lines[i] = kj + lines[i].substr(ki.size());
          lines[j] = ki + lines[j].substr(kj.size());
          continue;
        }
        case 4:  // a number out of range, signed, zero-padded or a list
        case 5:
          value = numbers[rng.index(std::size(numbers))];
          break;
        case 6:  // empty
          break;
        default:  // random printable bytes
          for (int n = 1 + rng.index(10); n > 0; --n) {
            value += static_cast<char>(' ' + rng.index(95));
          }
          break;
      }
      const std::string line =
          std::string(keys[rng.index(std::size(keys))]) + " = " + value;
      if (have && rng.chance(1, 2)) {
        lines[i] = line;
      } else {
        lines.push_back(line);
      }
    }
    std::string text;
    for (const auto& l : lines) text += l + "\n";
    parsed += expect_agreement(text) ? 1 : 0;
    ++mutants;
  }
  std::printf("[ sweep    ] %d config mutants, %d parsed\n", mutants, parsed);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, mutants);
}

// --- directory rules ------------------------------------------------------

TEST(LintConfigDir, DuplicateNamesAndEmptyDir) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "crve_lint_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "a.cfg") << "name = same\n";
  std::ofstream(dir / "b.cfg") << "name = same\n";
  const Report r = lint_config_dir(dir.string());
  const Finding* f = first_of(r, "CRVE030");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->file.find("b.cfg"), std::string::npos);
  EXPECT_NE(f->message.find("a.cfg"), std::string::npos);

  const fs::path empty = fs::temp_directory_path() / "crve_lint_empty";
  fs::remove_all(empty);
  fs::create_directories(empty);
  const Report e = lint_config_dir(empty.string());
  EXPECT_TRUE(has_rule(e, "CRVE031"));
  EXPECT_EQ(e.exit_code(), 0);

  const Report missing = lint_config_dir((empty / "missing").string());
  EXPECT_TRUE(has_rule(missing, "CRVE001"));
  EXPECT_EQ(missing.exit_code(), 2);
  fs::remove_all(dir);
  fs::remove_all(empty);
}

TEST(LintConfigDir, ShippedConfigsPassClean) {
  const Report r = lint_config_dir(CRVE_SOURCE_DIR "/configs");
  for (const auto& f : r.findings) ADD_FAILURE() << f.text();
  EXPECT_EQ(r.exit_code(), 0);
}

// --- campaign rules -------------------------------------------------------

TEST(LintCampaign, DuplicatePairsAndThreshold) {
  CampaignSpec spec;
  spec.tests = {"t02", "t05", "t02"};
  spec.seeds = {1, 2, 1};
  spec.alignment_threshold = 1.5;
  const Report r = lint_campaign(spec);
  int dups = 0;
  for (const auto& f : r.findings) dups += f.rule_id == "CRVE040";
  EXPECT_EQ(dups, 2);  // one per axis
  EXPECT_TRUE(has_rule(r, "CRVE041"));

  CampaignSpec zero;
  zero.alignment_threshold = 0.0;
  EXPECT_TRUE(has_rule(lint_campaign(zero), "CRVE041"));
  EXPECT_TRUE(has_rule(lint_campaign(zero), "CRVE042"));

  CampaignSpec ok;
  ok.tests = {"t02"};
  ok.seeds = {1, 2};
  ok.alignment_threshold = 0.99;
  EXPECT_TRUE(lint_campaign(ok).findings.empty());
}

// --- source determinism rules ---------------------------------------------

TEST(LintSource, SeededUnorderedMapInReportModuleIsCaught) {
  // The acceptance-criteria fixture: an unordered_map loop in report.cpp.
  const char* fixture =
      "#include <unordered_map>\n"
      "std::string render() {\n"
      "  std::unordered_map<std::string, int> rates;\n"
      "  for (const auto& [port, rate] : rates) emit(port, rate);\n"
      "}\n";
  const Report r = lint_source_text(fixture, "src/regress/report.cpp");
  EXPECT_TRUE(has_rule(r, "CRVE050"));
  EXPECT_EQ(r.exit_code(), 2);
  // Same tokens in a non-output module: no finding.
  const Report ok = lint_source_text(fixture, "src/verif/bfm_target.cpp");
  EXPECT_FALSE(has_rule(ok, "CRVE050"));
  // Filename alone marks an output module (fixture files in temp dirs).
  const Report by_name = lint_source_text(fixture, "report.cpp");
  EXPECT_TRUE(has_rule(by_name, "CRVE050"));
}

TEST(LintSource, RandomnessOutsideRngHeader) {
  const char* fixture =
      "int pick() { return rand() % 4; }\n"
      "std::random_device rd;\n"
      "long stamp = time(nullptr);\n";
  const Report r = lint_source_text(fixture, "src/verif/tests.cpp");
  int hits = 0;
  for (const auto& f : r.findings) hits += f.rule_id == "CRVE051";
  EXPECT_EQ(hits, 3);
  // The one sanctioned home for randomness primitives.
  const Report rng = lint_source_text(fixture, "src/common/rng.h");
  EXPECT_FALSE(has_rule(rng, "CRVE051"));
}

TEST(LintSource, RawStreamsOutsideMain) {
  const char* fixture = "void f() { std::cout << 1; std::cerr << 2; }\n";
  const Report r = lint_source_text(fixture, "src/regress/runner.cpp");
  int hits = 0;
  for (const auto& f : r.findings) hits += f.rule_id == "CRVE052";
  EXPECT_EQ(hits, 2);
  const Report main_ok = lint_source_text(fixture, "src/regress/main.cpp");
  EXPECT_FALSE(has_rule(main_ok, "CRVE052"));
}

TEST(LintSource, CommentsAndStringsDoNotTrigger) {
  const char* fixture =
      "// std::cout in a comment\n"
      "/* rand() in a block\n   comment */\n"
      "const char* s = \"std::cerr and rand()\";\n"
      "const char* r = R\"css(std::cout time(nullptr))css\";\n"
      "int separated = 1'000'000;\n";
  const Report r = lint_source_text(fixture, "src/verif/x.cpp");
  for (const auto& f : r.findings) ADD_FAILURE() << f.text();
}

TEST(LintSource, RawStringInvalidDelimiterDoesNotSwallowFile) {
  // `R")"` is not a raw string: ')' cannot appear in a d-char-seq. The
  // scanner must fall back to an ordinary string literal ending at the next
  // quote instead of hunting for a `)...\"` closer across the rest of the
  // file — the runaway that used to hide every finding below such a line.
  const char* fixture =
      "const char* s = R\")\";\n"
      "int r = rand();\n";
  const Report rep = lint_source_text(fixture, "src/verif/x.cpp");
  EXPECT_TRUE(has_rule(rep, "CRVE051")) << render_text(rep);

  // Same runaway shape with a backslash and a space in the would-be
  // delimiter; both are invalid d-chars and must trigger the fallback.
  const char* slash =
      "const char* s = R\"a\\b\";\n"
      "std::random_device rd;\n";
  EXPECT_TRUE(has_rule(lint_source_text(slash, "src/verif/x.cpp"),
                       "CRVE051"));
}

TEST(LintSource, RawStringCloseParenBeforeOpenParenInContent) {
  // A valid raw string whose content begins with ')' and contains a fake
  // closer for a different delimiter: only `)x"` ends it. rand() inside
  // the literal is data; rand() after it is code.
  const char* fixture =
      "const char* s = R\"x()y\" rand() )x\";\n"
      "int tail = rand();\n";
  const Report rep = lint_source_text(fixture, "src/verif/x.cpp");
  int hits = 0;
  for (const auto& f : rep.findings) hits += f.rule_id == "CRVE051";
  EXPECT_EQ(hits, 1) << render_text(rep);
}

TEST(LintSource, InlineSuppressionAndUnusedSuppression) {
  const char* suppressed =
      "void f() {\n"
      "  std::cerr << 1;  // crve-lint: allow(CRVE052)\n"
      "}\n";
  EXPECT_TRUE(
      lint_source_text(suppressed, "src/common/x.cpp").findings.empty());

  // A comment-only suppression line covers the next line.
  const char* next_line =
      "// crve-lint: allow(CRVE052)\n"
      "void f() { std::cerr << 1; }\n";
  EXPECT_TRUE(
      lint_source_text(next_line, "src/common/x.cpp").findings.empty());

  // Wrong rule id: the finding stays and the suppression is flagged.
  const char* wrong =
      "void f() { std::cerr << 1; }  // crve-lint: allow(CRVE050)\n";
  const Report r = lint_source_text(wrong, "src/regress/x.cpp");
  EXPECT_TRUE(has_rule(r, "CRVE052"));
  EXPECT_TRUE(has_rule(r, "CRVE053"));
}

TEST(LintSource, DuplicateProcessNameLiterals) {
  // Same literal twice — including across add_comb/add_clocked, which share
  // one namespace in the kernel.
  const char* dup =
      "void build(sim::Context& ctx) {\n"
      "  ctx.add_comb(\"arb\", [] {});\n"
      "  ctx.add_clocked(\"arb\", [] {});\n"
      "}\n";
  const Report r = lint_source_text(dup, "src/verif/x.cpp");
  ASSERT_TRUE(has_rule(r, "CRVE061"));
  EXPECT_NE(r.findings.front().message.find("\"arb\""), std::string::npos);
  EXPECT_NE(r.findings.front().message.find("line 2"), std::string::npos);

  // Computed names (literal + suffix) are out of scope for a static check.
  const char* computed =
      "void build(sim::Context& ctx, int i) {\n"
      "  ctx.add_comb(\"arb\" + std::to_string(i), [] {});\n"
      "  ctx.add_comb(\"arb\" + std::to_string(i + 1), [] {});\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_source_text(computed, "src/verif/x.cpp"),
                        "CRVE061"));

  // Distinct literals are clean; mentions in comments don't count as sites.
  const char* clean =
      "// ctx.add_comb(\"arb\", ...) registers the arbitration block\n"
      "void build(sim::Context& ctx) {\n"
      "  ctx.add_comb(\"arb\", [] {});\n"
      "  ctx.add_comb(\"mux\", [] {});\n"
      "}\n";
  EXPECT_FALSE(
      has_rule(lint_source_text(clean, "src/verif/x.cpp"), "CRVE061"));
}

TEST(LintSource, DuplicateObservabilityNameLiterals) {
  // counter/gauge/histogram/CRVE_SPAN share one observability namespace: a
  // repeated literal silently merges two series into one.
  const char* dup =
      "void f() {\n"
      "  obs::counter(\"regress.jobs\").inc();\n"
      "  obs::gauge(\"regress.jobs\").set(1);\n"
      "}\n";
  const Report r = lint_source_text(dup, "src/verif/x.cpp");
  ASSERT_TRUE(has_rule(r, "CRVE062"));
  EXPECT_NE(r.findings.front().message.find("\"regress.jobs\""),
            std::string::npos);
  EXPECT_NE(r.findings.front().message.find("line 2"), std::string::npos);

  // Intentional sharing is suppressed at the site; because file scope
  // cannot prove the absence of a cross-file duplicate, the suppression
  // always counts as used (no CRVE053).
  const char* suppressed =
      "void f() {\n"
      "  CRVE_SPAN(\"build\");\n"
      "  // crve-lint: allow(CRVE062)\n"
      "  CRVE_SPAN(\"build\");\n"
      "}\n";
  const Report ok = lint_source_text(suppressed, "src/verif/x.cpp");
  EXPECT_FALSE(has_rule(ok, "CRVE062"));
  EXPECT_FALSE(has_rule(ok, "CRVE053"));

  // Computed names, distinct literals and comment mentions are all clean.
  const char* clean =
      "// obs::counter(\"regress.jobs\") is bumped once per job\n"
      "void f(int i) {\n"
      "  obs::counter(\"jobs.\" + std::to_string(i)).inc();\n"
      "  obs::counter(\"jobs.\" + std::to_string(i + 1)).inc();\n"
      "  obs::histogram(\"regress.wall_ms\", 1.0).observe(2.0);\n"
      "  obs::counter(\"regress.jobs\").inc();\n"
      "}\n";
  EXPECT_FALSE(
      has_rule(lint_source_text(clean, "src/verif/x.cpp"), "CRVE062"));
}

TEST(LintSource, SpanGuardDeclarationFormCountsAsObservabilitySite) {
  // The named-guard declaration SpanGuard var("name") registers the same
  // span namespace as CRVE_SPAN("name"); both spellings feed one CRVE062
  // accounting.
  const char* dup =
      "void f() {\n"
      "  obs::SpanGuard job_span(\"job\");\n"
      "  CRVE_SPAN(\"job\");\n"
      "}\n";
  const Report r = lint_source_text(dup, "src/verif/x.cpp");
  ASSERT_TRUE(has_rule(r, "CRVE062"));
  EXPECT_NE(r.findings.front().message.find("\"job\""), std::string::npos);
  EXPECT_NE(r.findings.front().message.find("SpanGuard()"),
            std::string::npos);

  // Constructor definitions, non-literal arguments and glued identifiers
  // (SpanGuard_helper) are not registration sites.
  const char* clean =
      "SpanGuard::SpanGuard(const char* name) : name_(name) {}\n"
      "void SpanGuard_helper(const char* n);\n"
      "void f(const char* n) {\n"
      "  obs::SpanGuard span(n);\n"
      "  obs::SpanGuard named(\"campaign\");\n"
      "}\n";
  EXPECT_FALSE(
      has_rule(lint_source_text(clean, "src/verif/x.cpp"), "CRVE062"));
}

TEST(LintSource, DuplicateObservabilityNameAcrossFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "crve_lint_obs_tree";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream a(dir / "alpha.cpp");
    a << "void a() { obs::counter(\"shared.series\").inc(); }\n";
    std::ofstream b(dir / "beta.cpp");
    b << "void b() { CRVE_SPAN(\"shared.series\"); }\n";
  }

  const Report r = lint_source_tree(dir.string());
  ASSERT_TRUE(has_rule(r, "CRVE062"));
  // The later file (sorted order) is flagged against the first use.
  const Finding* f = nullptr;
  for (const auto& finding : r.findings) {
    if (finding.rule_id == "CRVE062") f = &finding;
  }
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->file.find("beta.cpp"), std::string::npos);
  EXPECT_NE(f->message.find("alpha.cpp"), std::string::npos);
  EXPECT_NE(f->message.find("\"shared.series\""), std::string::npos);

  // A site-level suppression removes the name from the cross-file
  // accounting too.
  {
    std::ofstream b(dir / "beta.cpp");
    b << "// crve-lint: allow(CRVE062)\n"
      << "void b() { CRVE_SPAN(\"shared.series\"); }\n";
  }
  EXPECT_FALSE(has_rule(lint_source_tree(dir.string()), "CRVE062"));

  fs::remove_all(dir);
}

TEST(LintSource, RealSourceTreeHasZeroUnsuppressedFindings) {
  const Report r = lint_source_tree(CRVE_SOURCE_DIR "/src");
  for (const auto& f : r.findings) ADD_FAILURE() << f.text();
  EXPECT_EQ(r.exit_code(), 0);
}

// --- renderers ------------------------------------------------------------

Report sample_report() {
  Report r;
  r.add("CRVE013", "configs/broken.cfg", 3,
        "arb = latency needs a latency_deadline list");
  r.add("CRVE003", "configs/broken.cfg", 7, "duplicate 'n_targets'");
  r.add("CRVE040", "<plan>", 0, "seed 1 listed twice");
  r.sort();
  return r;
}

TEST(LintRender, TextAndJson) {
  const Report r = sample_report();
  const std::string text = render_text(r);
  EXPECT_NE(text.find("configs/broken.cfg:3: error[CRVE013]"),
            std::string::npos);
  EXPECT_NE(text.find("2 error(s), 1 warning(s)"), std::string::npos);

  const auto doc = json::parse(render_json(r));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("summary")->number_or("errors", -1), 2);
  EXPECT_EQ(doc.find("findings")->items.size(), 3u);
  EXPECT_NE(doc.find("build"), nullptr);
  EXPECT_EQ(doc.number_or("exit_code", -1), 2);
}

// Structural SARIF 2.1.0 validation: every constraint GitHub code scanning
// needs, checked through the tree's own JSON parser.
TEST(LintRender, SarifIsSchemaValid) {
  const Report r = sample_report();
  const auto doc = json::parse(render_sarif(r));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("version", ""), "2.1.0");
  EXPECT_NE(doc.string_or("$schema", "").find("sarif-schema-2.1.0"),
            std::string::npos);

  const json::Value* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->items.size(), 1u);
  const json::Value& run = runs->items[0];

  const json::Value* driver = run.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->string_or("name", ""), "crve_lint");
  const json::Value* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->items.size(), rule_catalogue().size());
  for (const auto& rule : rules->items) {
    EXPECT_NE(find_rule(rule.string_or("id", "")), nullptr);
    ASSERT_NE(rule.find("shortDescription"), nullptr);
    const std::string level =
        rule.find("defaultConfiguration")->string_or("level", "");
    EXPECT_TRUE(level == "note" || level == "warning" || level == "error");
  }

  const json::Value* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), 3u);
  for (const auto& res : results->items) {
    const std::string id = res.string_or("ruleId", "");
    EXPECT_NE(find_rule(id), nullptr);
    const double idx = res.number_or("ruleIndex", -1);
    ASSERT_GE(idx, 0);
    EXPECT_STREQ(rule_catalogue()[static_cast<std::size_t>(idx)].id,
                 id.c_str());
    ASSERT_NE(res.find("message"), nullptr);
    EXPECT_FALSE(res.find("message")->string_or("text", "").empty());
    if (const json::Value* locs = res.find("locations")) {
      for (const auto& loc : locs->items) {
        const json::Value* phys = loc.find("physicalLocation");
        ASSERT_NE(phys, nullptr);
        EXPECT_FALSE(phys->find("artifactLocation")
                         ->string_or("uri", "")
                         .empty());
      }
    } else {
      // Only the pseudo-origin plan finding may omit locations.
      EXPECT_EQ(id, "CRVE040");
    }
  }
}

TEST(LintRender, ExitCodesAndWerror) {
  Report clean;
  EXPECT_EQ(clean.exit_code(), 0);
  clean.add("CRVE020", "c.cfg", 1, "note");
  EXPECT_EQ(clean.exit_code(), 0);

  Report warn;
  warn.add("CRVE003", "c.cfg", 1, "dup");
  EXPECT_EQ(warn.exit_code(), 1);
  EXPECT_EQ(warn.exit_code(/*werror=*/true), 2);

  Report err;
  err.add("CRVE013", "c.cfg", 1, "broken");
  EXPECT_EQ(err.exit_code(), 2);
}

// The regression that motivated the render_json werror parameter: the JSON
// document embeds an "exit_code" field, and it must agree with the process
// exit status under --werror in every renderer — a CI consumer reading the
// JSON and a shell reading $? must never disagree about pass/fail.
TEST(LintRender, JsonExitCodeAgreesWithWerror) {
  Report warn;
  warn.add("CRVE003", "c.cfg", 1, "dup");
  EXPECT_EQ(json::parse(render_json(warn)).number_or("exit_code", -1), 1);
  EXPECT_EQ(json::parse(render_json(warn, /*werror=*/true))
                .number_or("exit_code", -1),
            2);
  EXPECT_EQ(json::parse(render_json(warn, true)).number_or("exit_code", -1),
            warn.exit_code(true));

  // Werror promotes warnings and only warnings: a notes-only report stays
  // exit 0 in both the Report contract and the rendered document.
  Report note;
  note.add("CRVE020", "c.cfg", 1, "informational");
  EXPECT_EQ(note.exit_code(/*werror=*/true), 0);
  EXPECT_EQ(json::parse(render_json(note, /*werror=*/true))
                .number_or("exit_code", -1),
            0);

  // Severities themselves are not rewritten — promotion is an exit-code
  // concern, so the findings array still says "warning".
  const auto doc = json::parse(render_json(warn, /*werror=*/true));
  EXPECT_EQ(doc.find("findings")->items[0].string_or("severity", ""),
            "warning");
}

}  // namespace
}  // namespace crve::lint
