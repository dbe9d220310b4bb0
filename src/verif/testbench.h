// Generic testbench (paper Fig. 2 / Fig. 6).
//
// Builds, for one node configuration and one test specification, the full
// common verification environment — initiator/target BFMs, monitors and
// protocol checkers stepped by one PortAgent per port, scoreboard,
// functional coverage, optional programming initiator, VCD dump and
// in-process trace recorder — around either view of
// the DUT. The choice of model (RTL, BCA, or BCA-behind-wrappers) is a
// single enum: nothing else in the environment changes, which is the
// paper's central claim.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bca/faults.h"
#include "bca/node.h"
#include "obs/profiler.h"
#include "obs/txn_trace.h"
#include "rtl/node.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/pins.h"
#include "vcd/recorder.h"
#include "verif/agent.h"
#include "verif/bfm_initiator.h"
#include "verif/bfm_target.h"
#include "verif/coverage.h"
#include "verif/monitor.h"
#include "verif/prog_initiator.h"
#include "verif/protocol_checker.h"
#include "verif/reference_model.h"
#include "verif/scoreboard.h"
#include "verif/type1_checker.h"

namespace crve::verif {

enum class ModelKind { kRtl, kBca, kBcaWrapped };

std::string to_string(ModelKind m);

// One of the twelve (plus old-flow) generic test cases. All hooks receive
// the final node configuration so tests adapt to any HDL parameter set.
struct TestSpec {
  std::string name;
  std::string description;
  int n_transactions = 100;  // per initiator
  // Configuration demands of the test (e.g. forces an arbitration policy).
  std::function<void(stbus::NodeConfig&)> adjust;
  // Random profile per initiator (required unless `directed` is set).
  std::function<InitiatorProfile(const stbus::NodeConfig&, int)> profile;
  // Directed sequence per initiator (old-flow harness, smoke tests).
  std::function<std::vector<stbus::Request>(const stbus::NodeConfig&, int)>
      directed;
  // Target profile per target (default: short per-target-staggered latency).
  std::function<TargetProfile(const stbus::NodeConfig&, int)> target;
  // Programming-port schedule (requires cfg.programming_port).
  std::function<std::vector<ProgOp>(const stbus::NodeConfig&)> prog;
};

struct TestbenchOptions {
  ModelKind model = ModelKind::kRtl;
  // Simulation kernel: compiled levelized schedule (default) or the
  // reference delta-cycle interpreter (`--sim-kernel interp`).
  sim::KernelKind kernel = sim::KernelKind::kCompiled;
  std::uint64_t seed = 1;
  bca::Faults faults;        // applied to the BCA view only
  std::string vcd_path;      // non-empty: dump all signals to this file
  std::ostream* vcd_stream = nullptr;  // alternative in-memory dump target
  // In-process trace of all signals (not owned): what alignment reads
  // without a VCD round trip. A dump target above is written from this
  // recording when one is set, else from a recorder of the Testbench's own.
  vcd::Recorder* recorder = nullptr;
  // Port protocol checkers. The programming port's Type1 checker belongs to
  // the port's active side with its initiator and is always built.
  bool enable_checkers = true;
  bool enable_scoreboard = true;
  bool enable_coverage = true;
  // Replays observed traffic through the untimed TLM view and checks the
  // end-to-end data semantics. Auto-disabled when a target BFM injects
  // random errors (the reference model cannot predict those).
  bool enable_reference_model = true;
  // Monitors are required by the scoreboard, coverage and the reference
  // model; disabling them is only legal (and only useful) for raw
  // model-speed measurements and active-side-only runs
  // (drop_passive_environment).
  bool enable_monitors = true;
  bool keep_history = false;  // record completed transactions in the BFMs
  std::uint64_t max_cycles = 500000;
  // Kernel hotspot profiler (DESIGN.md §15): attribute wall time and
  // evaluation/skip counts to every named process; RunResult::profile
  // carries the per-run snapshot. Off by default — the disabled path is one
  // branch per evaluation site, inside the obs <2% overhead budget.
  bool profile = false;
  // Transaction-lifecycle tracer (DESIGN.md §16): stitch BFM issue events
  // and monitor packet taps into per-transaction spans; RunResult::txn
  // carries the per-run data. Requires monitors. Off by default — when off,
  // no tracer, no taps and no BFM hooks exist at all.
  bool txn_trace = false;

  // Turns the passive environment off — monitors, port protocol checkers,
  // scoreboard, coverage and reference model — and keeps the active side
  // that drives the pins: the BFMs, the programming-port initiator and its
  // Type1 checker. Every port agent stays registered, so the run costs the
  // kernel the same evaluations (DESIGN.md §4.2).
  void drop_passive_environment() {
    enable_monitors = false;
    enable_checkers = false;
    enable_scoreboard = false;
    enable_coverage = false;
    enable_reference_model = false;
  }
};

struct RunResult {
  bool completed = false;  // all traffic drained before max_cycles
  std::uint64_t cycles = 0;
  std::uint64_t evaluations = 0;  // kernel process evaluations (sim cost)
  std::uint64_t checker_violations = 0;
  std::uint64_t scoreboard_errors = 0;
  std::uint64_t reference_mismatches = 0;
  double coverage_percent = 0.0;
  std::uint64_t coverage_digest = 0;
  // Per-port utilisation (cycles with any transfer / total cycles).
  struct PortUtilisation {
    std::string port;
    std::uint64_t busy_cycles = 0;
    std::uint64_t request_packets = 0;
    std::uint64_t response_packets = 0;
  };
  std::vector<PortUtilisation> utilisation;
  std::vector<Violation> violations;         // first ~100
  std::vector<ScoreboardError> sb_errors;    // first ~100
  std::vector<ReferenceError> ref_errors;    // first ~100
  // Per-process hotspot profile (empty unless TestbenchOptions::profile).
  obs::ProfileData profile;
  // Transaction spans (empty unless TestbenchOptions::txn_trace).
  obs::TxnTraceData txn;
  // Traffic mix seen by the initiator-side monitors (target-side monitors
  // see the same packets again after arbitration): packets each way and
  // request cells per opcode, indexed by static_cast<int>(Opcode).
  std::uint64_t request_packets = 0;
  std::uint64_t response_packets = 0;
  std::array<std::uint64_t, stbus::kNumOpcodes> request_opcode_cells{};

  bool passed() const {
    return completed && checker_violations == 0 && scoreboard_errors == 0 &&
           reference_mismatches == 0;
  }

  // Takes from `other` every field the passive environment and the Type1
  // checker compute: checker violations, scoreboard errors, reference
  // mismatches, functional coverage, utilisation and the traffic mix.
  // completed, cycles, evaluations, profile and txn stay.
  void take_passive_verdict(const RunResult& other);
};

// Publishes a run's verdict counters (verif.*: runs, violations, errors,
// traffic mix). The caller publishes once the verdict is final — for a
// replayed BCA view, the result settled from the RTL view's (DESIGN.md
// §8).
void publish_verdict_metrics(const RunResult& r);

// The configuration a test runs on: `cfg` after the test's adjustments,
// with the programming port when the test programs, validated and
// normalized.
stbus::NodeConfig test_config(stbus::NodeConfig cfg, const TestSpec& spec);

// The device side of a testbench, elaborated into a context: the
// environment-side pin bundles (initiator ports, target ports, then the
// programming port when `cfg` has one) and the DUT view behind them, which
// registers no signal of its own but, in wrapped mode, its DUT-side
// bundles. A Testbench builds its environment around one; the regression
// runner's BCA replay (regress/replay.h) drives one from a recording.
// Both register the same signals in the same order, so a view records
// under one variable table either way.
struct Dut {
  // `cfg` as test_config gives it; `faults` apply to the BCA views.
  Dut(sim::Context& ctx, const stbus::NodeConfig& cfg, ModelKind model,
      const bca::Faults& faults);

  std::vector<std::unique_ptr<stbus::PortPins>> ipins;
  std::vector<std::unique_ptr<stbus::PortPins>> tpins;
  std::unique_ptr<stbus::PortPins> prog_pins;
  // Wrapped mode: DUT-side bundles behind the relays.
  std::vector<std::unique_ptr<stbus::PortPins>> dut_ipins;
  std::vector<std::unique_ptr<stbus::PortPins>> dut_tpins;

  std::unique_ptr<rtl::Node> rtl_node;
  std::unique_ptr<bca::Node> bca_node;
};

class Testbench {
 public:
  Testbench(stbus::NodeConfig cfg, const TestSpec& spec,
            TestbenchOptions opts);
  ~Testbench();

  Testbench(const Testbench&) = delete;
  Testbench& operator=(const Testbench&) = delete;

  // Runs to completion (or opts.max_cycles), gathers the result, then
  // publishes the run's kernel (sim.*) and transaction tracer (txn.*)
  // counters; the verdict counters are the caller's
  // (publish_verdict_metrics).
  RunResult run();

  // --- component access for tests and benches -----------------------------
  sim::Context& ctx() { return ctx_; }
  const stbus::NodeConfig& config() const { return cfg_; }
  InitiatorBfm& initiator(int i) { return *bfms_[static_cast<std::size_t>(i)]; }
  TargetBfm& target(int t) { return *targets_[static_cast<std::size_t>(t)]; }
  Monitor& initiator_monitor(int i) {
    return *imons_[static_cast<std::size_t>(i)];
  }
  Monitor& target_monitor(int t) {
    return *tmons_[static_cast<std::size_t>(t)];
  }
  const StbusCoverage* coverage() const { return coverage_.get(); }
  const ReferenceModel* reference_model() const { return reference_.get(); }
  ProgInitiator* prog_initiator() { return prog_bfm_.get(); }
  rtl::Node* rtl_node() { return dut_.rtl_node.get(); }
  bca::Node* bca_node() { return dut_.bca_node.get(); }

  static std::string initiator_port_name(int i);
  static std::string target_port_name(int t);
  static std::string prog_port_name() { return "tb.prog"; }

 private:
  // run() without the publishing.
  RunResult simulate();
  bool traffic_drained() const;

  stbus::NodeConfig cfg_;
  TestbenchOptions opts_;
  sim::Context ctx_;
  Dut dut_;

  std::vector<std::unique_ptr<InitiatorBfm>> bfms_;
  std::vector<std::unique_ptr<TargetBfm>> targets_;
  std::unique_ptr<ProgInitiator> prog_bfm_;

  std::vector<std::unique_ptr<Monitor>> imons_;
  std::vector<std::unique_ptr<Monitor>> tmons_;
  std::vector<std::unique_ptr<ProtocolChecker>> checkers_;
  std::unique_ptr<Type1Checker> prog_checker_;
  std::unique_ptr<Scoreboard> scoreboard_;
  std::unique_ptr<ReferenceModel> reference_;
  std::unique_ptr<StbusCoverage> coverage_;
  std::vector<std::unique_ptr<MonitorListener>> cov_taps_;
  std::unique_ptr<obs::TxnTracer> txn_tracer_;
  std::vector<std::unique_ptr<MonitorListener>> txn_taps_;
  // One per environment-side port: steps its BFM, checker and monitor.
  std::vector<std::unique_ptr<PortAgent>> agents_;
  // The attached recorder: opts.recorder, or wave_recorder_ when only a
  // dump target (wave_os_: wave_file_ or opts.vcd_stream) needs one.
  vcd::Recorder* recorder_ = nullptr;
  std::unique_ptr<vcd::Recorder> wave_recorder_;
  std::ostream* wave_os_ = nullptr;
  std::ofstream wave_file_;
};

}  // namespace crve::verif
