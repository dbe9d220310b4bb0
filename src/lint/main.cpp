// crve_lint — static config/campaign linter, determinism scanner and
// elaboration-time design linter.
//
//   crve_lint PATH... [--format text|json|sarif] [--out FILE] [--werror]
//   crve_lint --design PATH... [--design-summary FILE] [same output flags]
//   crve_lint --design-selftest [same output flags]
//   crve_lint --rules
//
// Default mode classifies each PATH by what it holds:
//   *.cfg file                  -> config rules (CRVE001..021)
//   directory with *.cfg files  -> config + cross-file rules (CRVE030..031)
//   .h/.hpp/.cpp/.cc/.cxx file  -> source determinism rules (CRVE050..053)
//   any other directory         -> recursive source scan
//
// --design elaborates each configuration's full verification environment
// once per DUT view (no simulation) and runs the CRVE100..110 design rules
// over the exported graphs; --design-summary additionally writes the
// per-config design summary JSON artifact. --design-selftest lints a
// deliberately defective built-in design (guaranteed CRVE102 error +
// CRVE100 warning) so CI can assert the exit-2 path without a broken model
// in the tree.
//
// Exit status: 0 = clean or notes only, 1 = warnings, 2 = errors (or
// warnings under --werror), matching Report::exit_code. Usage errors also
// exit 2. The full catalogue is in DESIGN.md §12 and §17.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/design_lint.h"
#include "lint/lint.h"
#include "regress/config_file.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: crve_lint PATH... [--format text|json|sarif]\n"
               "                 [--out FILE] [--werror]\n"
               "       crve_lint --design PATH... [--design-summary FILE]\n"
               "       crve_lint --design-selftest\n"
               "       crve_lint --rules\n");
  return 2;
}

bool has_ext(const std::filesystem::path& p,
             std::initializer_list<const char*> exts) {
  const std::string e = p.extension().string();
  for (const char* x : exts) {
    if (e == x) return true;
  }
  return false;
}

// A directory with .cfg files is a config set, any other a source tree.
// One that cannot be listed goes to lint_config_dir, which reports it.
bool holds_configs(const std::string& dir) {
  try {
    return !crve::regress::config_files(dir).empty();
  } catch (const std::invalid_argument&) {
    return true;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string out_path;
  std::string summary_path;
  bool werror = false;
  bool design = false;
  bool selftest = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--format") {
      const char* v = next();
      if (!v) return usage();
      format = v;
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
        return usage();
      }
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage();
      out_path = v;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--design") {
      design = true;
    } else if (arg == "--design-summary") {
      const char* v = next();
      if (!v) return usage();
      summary_path = v;
    } else if (arg == "--design-selftest") {
      selftest = true;
    } else if (arg == "--rules") {
      std::printf("%s", crve::lint::render_rules().c_str());
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (!selftest && paths.empty()) return usage();

  namespace fs = std::filesystem;
  crve::lint::Report report;
  std::vector<crve::lint::DesignSummary> summaries;
  if (selftest) {
    report = crve::lint::lint_design_selftest().report;
  } else if (design) {
    for (const auto& p : paths) {
      const fs::path path(p);
      std::error_code ec;
      crve::lint::DesignLintResult res;
      if (fs::is_directory(path, ec)) {
        res = crve::lint::lint_design_dir(p);
      } else if (fs::is_regular_file(path, ec) && has_ext(path, {".cfg"})) {
        res = crve::lint::lint_design_file(p);
      } else {
        std::fprintf(stderr, "error: --design expects .cfg files or "
                             "directories, got %s\n", p.c_str());
        return 2;
      }
      report.merge(std::move(res.report));
      summaries.insert(summaries.end(),
                       std::make_move_iterator(res.summaries.begin()),
                       std::make_move_iterator(res.summaries.end()));
    }
  } else {
    for (const auto& p : paths) {
      const fs::path path(p);
      std::error_code ec;
      if (fs::is_directory(path, ec)) {
        report.merge(holds_configs(p) ? crve::lint::lint_config_dir(p)
                                      : crve::lint::lint_source_tree(p));
      } else if (fs::is_regular_file(path, ec)) {
        if (has_ext(path, {".cfg"})) {
          report.merge(crve::lint::lint_config_file(p));
        } else if (has_ext(path, {".h", ".hpp", ".cpp", ".cc", ".cxx"})) {
          report.merge(crve::lint::lint_source_file(p));
        } else {
          std::fprintf(stderr, "skipping %s: not a .cfg or C++ source\n",
                       p.c_str());
        }
      } else {
        std::fprintf(stderr, "error: cannot stat %s\n", p.c_str());
        return 2;
      }
    }
  }
  report.sort();

  if (!summary_path.empty()) {
    std::ofstream ss(summary_path);
    ss << crve::lint::design_summary_json(summaries);
    if (!ss) {
      std::fprintf(stderr, "error: cannot write %s\n", summary_path.c_str());
      return 2;
    }
  }

  std::string rendered;
  if (format == "json") {
    rendered = crve::lint::render_json(report, werror);
  } else if (format == "sarif") {
    rendered = crve::lint::render_sarif(report);
  } else {
    rendered = crve::lint::render_text(report);
  }
  if (out_path.empty()) {
    std::printf("%s", rendered.c_str());
  } else {
    std::ofstream os(out_path);
    os << rendered;
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 2;
    }
    // Keep the human summary on stdout even when the report goes to a file.
    std::printf("%s", crve::lint::render_text(report).c_str());
  }
  return report.exit_code(werror);
}
