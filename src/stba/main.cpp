// crve_stba — the STBus Analyzer as a command-line tool.
//
//   crve_stba RTL.vcd BCA.vcd --ports tb.init0,tb.init1,tb.targ0
//             [--threshold 0.99] [--cells] [--json]
//
// Compares the two dumps port by port, prints the alignment report (rate,
// first divergence, transaction diff) and exits 0 when every port is at or
// above the sign-off threshold, a number in (0, 1]; any other threshold
// exits 2 with a diagnostic. With --json the full AlignmentReport is
// emitted as a machine-readable document (build stamp, per-port rate /
// first-divergence / diverged-signal / cell-stream detail) instead of the
// human summary; the exit code is unchanged.
#include <cstdio>
#include <string>
#include <vector>

#include "stba/analyzer.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: crve_stba A.vcd B.vcd --ports p1,p2,... "
               "[--threshold 0.99] [--cells] [--json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file_a, file_b;
  std::vector<std::string> ports;
  double threshold = 0.99;
  bool show_cells = false;
  bool as_json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ports") {
      if (++i >= argc) return usage();
      std::string item;
      for (const char* p = argv[i];; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!item.empty()) ports.push_back(item);
          item.clear();
          if (*p == '\0') break;
        } else {
          item.push_back(*p);
        }
      }
    } else if (arg == "--threshold") {
      if (++i >= argc) return usage();
      const auto t = crve::stba::parse_threshold(argv[i]);
      if (!t) {
        std::fprintf(stderr,
                     "invalid --threshold '%s': expected a number in (0, 1]\n",
                     argv[i]);
        return usage();
      }
      threshold = *t;
    } else if (arg == "--cells") {
      show_cells = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (file_a.empty()) {
      file_a = arg;
    } else if (file_b.empty()) {
      file_b = arg;
    } else {
      return usage();
    }
  }
  if (file_a.empty() || file_b.empty() || ports.empty()) return usage();

  try {
    const auto report =
        crve::stba::Analyzer::compare_files(file_a, file_b, ports);
    if (as_json) {
      std::printf("%s", report.json(threshold).c_str());
    } else {
      std::printf("%s", report.summary(threshold).c_str());
      if (show_cells) {
        for (const auto& p : report.ports) {
          std::printf("%s: %llu vs %llu cells, %llu matching in order\n",
                      p.port.c_str(),
                      static_cast<unsigned long long>(p.cells_a),
                      static_cast<unsigned long long>(p.cells_b),
                      static_cast<unsigned long long>(p.cells_matching));
        }
      }
    }
    return report.signed_off(threshold) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
