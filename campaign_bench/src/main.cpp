// Campaign benchmark program.
//
//   crve_campaign_bench prepare --workload NAME --seed N --dir DIR
//       generate the workload's inputs from the seed (and, for warm_rerun,
//       fill its cache) in DIR; nothing here is timed
//   crve_campaign_bench run --dir DIR --seconds S --trace 0|1
//       trace 0: time the workload end to end through run_matrix
//       trace 1: the serial traced runner and its per-layer ledger
//
// Both modes print human-readable lines and, last, one JSON result line.
#include <cstdio>
#include <cstring>
#include <string>

#include "campaign.h"
#include "common/build_info.h"
#include "common/log.h"
#include "ledger.h"
#include "workload.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: crve_campaign_bench prepare --workload NAME --seed N "
               "--dir DIR\n"
               "       crve_campaign_bench run --dir DIR --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload, dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        seed = std::stoull(val);
      } else if (key == "--dir") {
        dir = val;
      } else if (key == "--seconds") {
        seconds = std::stod(val);
      } else if (key == "--trace") {
        trace = std::stoi(val);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (dir.empty()) return usage();

  // Timings of anything but an optimized, uninstrumented build would be
  // meaningless as a baseline.
  const crve::BuildInfo& bi = crve::build_info();
  if (std::strcmp(bi.build_type, "Release") != 0 || bi.sanitize) {
    std::fprintf(stderr, "refusing a %s%s build: the benchmark times Release "
                 "builds only\n", bi.build_type,
                 bi.sanitize ? " sanitizer" : "");
    return 3;
  }
  crve::log_threshold() = crve::LogLevel::kError;

  try {
    if (mode == "prepare") {
      if (!cbench::known_workload(workload)) return usage();
      cbench::generate(workload, seed, dir);
      const cbench::Workload w = cbench::load(dir);
      if (w.warm) cbench::fill_cache(w);
      return 0;
    }
    if (mode == "run" && (trace == 0 || trace == 1) && seconds > 0.0) {
      const cbench::Workload w = cbench::load(dir);
      std::printf("build: git %s, %s, %s, flags \"%s\"\n", bi.git_hash,
                  bi.compiler, bi.build_type, CAMPAIGN_BENCH_FLAGS);
      return trace == 0 ? cbench::run_end_to_end(w, seconds)
                        : cbench::run_traced(w, seconds);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
