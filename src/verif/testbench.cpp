#include "verif/testbench.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "vcd/excerpt.h"
#include "verif/wrapper.h"

namespace crve::verif {

std::string to_string(ModelKind m) {
  switch (m) {
    case ModelKind::kRtl:
      return "RTL";
    case ModelKind::kBca:
      return "BCA";
    case ModelKind::kBcaWrapped:
      return "BCA-wrapped";
  }
  return "?";
}

namespace {

// Coverage tap: forwards initiator-port packets into the coverage model.
class CoverageTap : public MonitorListener {
 public:
  CoverageTap(StbusCoverage& cov, int initiator)
      : cov_(cov), initiator_(initiator) {}
  void on_request_packet(const ObservedRequest& pkt) override {
    cov_.sample_request(initiator_, pkt);
  }
  void on_response_packet(const ObservedResponse& pkt) override {
    cov_.sample_response(initiator_, pkt);
  }

 private:
  StbusCoverage& cov_;
  int initiator_;
};

// Transaction-tracer taps (DESIGN.md §16). The initiator-side tap converts
// observed packets into grant/response lifecycle events; the target-side
// tap enriches open spans with service timing. Both forward plain integers
// and mnemonics so obs stays free of stbus types.
class TxnInitTap : public MonitorListener {
 public:
  TxnInitTap(obs::TxnTracer& tr, std::string port)
      : tracer_(tr), port_(std::move(port)) {}
  void on_request_packet(const ObservedRequest& pkt) override {
    const stbus::RequestCell& c = pkt.cells.front();
    tracer_.on_request(port_, c.src, c.tid, pkt.start_cycle(),
                       pkt.end_cycle());
  }
  void on_response_packet(const ObservedResponse& pkt) override {
    const stbus::ResponseCell& c = pkt.cells.front();
    bool ok = true;
    for (const auto& cell : pkt.cells) {
      ok = ok && cell.opc == stbus::RspOpcode::kOk;
    }
    tracer_.on_response(port_, c.src, c.tid, pkt.start_cycle(),
                        pkt.end_cycle(), ok);
  }

 private:
  obs::TxnTracer& tracer_;
  std::string port_;
};

class TxnTargTap : public MonitorListener {
 public:
  TxnTargTap(obs::TxnTracer& tr, std::string target)
      : tracer_(tr), target_(std::move(target)) {}
  void on_request_packet(const ObservedRequest& pkt) override {
    const stbus::RequestCell& c = pkt.cells.front();
    tracer_.on_target_request(target_, c.src, c.tid, c.add, pkt.end_cycle());
  }
  void on_response_packet(const ObservedResponse& pkt) override {
    const stbus::ResponseCell& c = pkt.cells.front();
    tracer_.on_target_response(target_, c.src, c.tid, pkt.start_cycle());
  }

 private:
  obs::TxnTracer& tracer_;
  std::string target_;
};

TargetProfile default_target_profile(const stbus::NodeConfig&, int t) {
  TargetProfile p;
  // Staggered speeds: the mix of fast and slow targets the paper's
  // out-of-order test relies on.
  p.fixed_latency = 1 + (t % 3) * 2;
  return p;
}

}  // namespace

std::string Testbench::initiator_port_name(int i) {
  return "tb.init" + std::to_string(i);
}

std::string Testbench::target_port_name(int t) {
  return "tb.targ" + std::to_string(t);
}

stbus::NodeConfig test_config(stbus::NodeConfig cfg, const TestSpec& spec) {
  if (spec.adjust) spec.adjust(cfg);
  if (spec.prog) cfg.programming_port = true;
  cfg.validate_and_normalize();
  return cfg;
}

Dut::Dut(sim::Context& ctx, const stbus::NodeConfig& cfg, ModelKind model,
         const bca::Faults& faults) {
  // --- environment-side pins ----------------------------------------------
  for (int i = 0; i < cfg.n_initiators; ++i) {
    ipins.push_back(std::make_unique<stbus::PortPins>(
        ctx, Testbench::initiator_port_name(i), cfg));
  }
  for (int t = 0; t < cfg.n_targets; ++t) {
    tpins.push_back(std::make_unique<stbus::PortPins>(
        ctx, Testbench::target_port_name(t), cfg));
  }
  if (cfg.programming_port) {
    prog_pins = std::make_unique<stbus::PortPins>(
        ctx, Testbench::prog_port_name(), 4, cfg.address_bits, cfg.src_bits,
        cfg.tid_bits);
  }

  // --- DUT ------------------------------------------------------------
  std::vector<stbus::PortPins*> node_iports;
  std::vector<stbus::PortPins*> node_tports;
  if (model == ModelKind::kBcaWrapped) {
    // The paper's VHDL-wrapper plumbing: DUT-side bundles behind relays.
    for (int i = 0; i < cfg.n_initiators; ++i) {
      dut_ipins.push_back(std::make_unique<stbus::PortPins>(
          ctx, "dutwrap.init" + std::to_string(i), cfg));
      make_port_wrapper(ctx, "wrap.init" + std::to_string(i),
                        *ipins[static_cast<std::size_t>(i)],
                        *dut_ipins.back(), /*dut_receives_requests=*/true);
      node_iports.push_back(dut_ipins.back().get());
    }
    for (int t = 0; t < cfg.n_targets; ++t) {
      dut_tpins.push_back(std::make_unique<stbus::PortPins>(
          ctx, "dutwrap.targ" + std::to_string(t), cfg));
      make_port_wrapper(ctx, "wrap.targ" + std::to_string(t),
                        *tpins[static_cast<std::size_t>(t)],
                        *dut_tpins.back(), /*dut_receives_requests=*/false);
      node_tports.push_back(dut_tpins.back().get());
    }
  } else {
    for (auto& p : ipins) node_iports.push_back(p.get());
    for (auto& p : tpins) node_tports.push_back(p.get());
  }

  switch (model) {
    case ModelKind::kRtl:
      rtl_node = std::make_unique<rtl::Node>(ctx, cfg, node_iports,
                                             node_tports, prog_pins.get());
      break;
    case ModelKind::kBca:
    case ModelKind::kBcaWrapped:
      bca_node = std::make_unique<bca::Node>(ctx, cfg, node_iports,
                                             node_tports, prog_pins.get(),
                                             faults);
      break;
  }
}

Testbench::Testbench(stbus::NodeConfig cfg, const TestSpec& spec,
                     TestbenchOptions opts)
    : cfg_(test_config(std::move(cfg), spec)),
      opts_(std::move(opts)),
      dut_(ctx_, cfg_, opts_.model, opts_.faults) {
  ctx_.set_kernel(opts_.kernel);
  if (opts_.profile) ctx_.set_profiling(true);
  const auto& ipins = dut_.ipins;
  const auto& tpins = dut_.tpins;
  const auto& prog_pins = dut_.prog_pins;

  // --- BFMs --------------------------------------------------------------
  Rng master(opts_.seed);
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    InitiatorProfile prof =
        spec.profile ? spec.profile(cfg_, i) : InitiatorProfile{};
    prof.n_transactions = spec.n_transactions;
    prof.keep_history = prof.keep_history || opts_.keep_history;
    std::vector<stbus::Request> directed;
    if (spec.directed) {
      directed = spec.directed(cfg_, i);
      // A directed test drives only the sequences it specifies; ports with
      // an empty sequence stay silent.
      if (directed.empty()) prof.n_transactions = 0;
    }
    if (!directed.empty()) {
      bfms_.push_back(std::make_unique<InitiatorBfm>(
          ctx_, "init" + std::to_string(i),
          *ipins[static_cast<std::size_t>(i)], cfg_.type, i, cfg_, prof,
          master.fork(), std::move(directed)));
    } else {
      bfms_.push_back(std::make_unique<InitiatorBfm>(
          ctx_, "init" + std::to_string(i),
          *ipins[static_cast<std::size_t>(i)], cfg_.type, i, cfg_, prof,
          master.fork()));
    }
  }
  std::vector<std::uint64_t> mem_patterns;
  bool targets_inject_errors = false;
  for (int t = 0; t < cfg_.n_targets; ++t) {
    const TargetProfile prof = spec.target ? spec.target(cfg_, t)
                                           : default_target_profile(cfg_, t);
    mem_patterns.push_back(prof.mem_pattern);
    targets_inject_errors |= prof.error_permille > 0;
    targets_.push_back(std::make_unique<TargetBfm>(
        ctx_, "targ" + std::to_string(t),
        *tpins[static_cast<std::size_t>(t)], cfg_.type, prof,
        master.fork()));
  }
  if (spec.prog) {
    prog_bfm_ = std::make_unique<ProgInitiator>(ctx_, "prog", *prog_pins,
                                                spec.prog(cfg_));
  }

  // --- monitors, checkers, scoreboard, coverage ---------------------------
  if (!opts_.enable_monitors &&
      (opts_.enable_scoreboard || opts_.enable_coverage)) {
    throw std::invalid_argument(
        "TestbenchOptions: scoreboard/coverage require monitors");
  }
  if (opts_.enable_monitors) {
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      imons_.push_back(std::make_unique<Monitor>(
          "init" + std::to_string(i),
          *ipins[static_cast<std::size_t>(i)]));
    }
    for (int t = 0; t < cfg_.n_targets; ++t) {
      tmons_.push_back(std::make_unique<Monitor>(
          "targ" + std::to_string(t),
          *tpins[static_cast<std::size_t>(t)]));
    }
  }
  if (opts_.enable_checkers) {
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      checkers_.push_back(std::make_unique<ProtocolChecker>(
          ctx_, "init" + std::to_string(i),
          *ipins[static_cast<std::size_t>(i)], cfg_.type,
          ProtocolChecker::Role::kInitiatorPort, i, &cfg_));
    }
    for (int t = 0; t < cfg_.n_targets; ++t) {
      checkers_.push_back(std::make_unique<ProtocolChecker>(
          ctx_, "targ" + std::to_string(t),
          *tpins[static_cast<std::size_t>(t)], cfg_.type,
          ProtocolChecker::Role::kTargetPort, -1, &cfg_));
    }
  }
  if (prog_pins) {
    prog_checker_ = std::make_unique<Type1Checker>(ctx_, "prog", *prog_pins);
  }
  // One agent per port, initiator ports first: monitor listeners (the
  // scoreboard, reference model and txn tracer below) see each cycle's
  // packets in that port order.
  auto part = [](const auto& parts, std::size_t k) {
    return k < parts.size() ? parts[k].get() : nullptr;
  };
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    const auto k = static_cast<std::size_t>(i);
    agents_.push_back(std::make_unique<PortAgent>(
        ctx_, "init" + std::to_string(i), *ipins[k],
        PortAgent::Parts{.initiator = bfms_[k].get(),
                         .checker = part(checkers_, k),
                         .monitor = part(imons_, k)}));
  }
  for (int t = 0; t < cfg_.n_targets; ++t) {
    const auto k = static_cast<std::size_t>(t);
    agents_.push_back(std::make_unique<PortAgent>(
        ctx_, "targ" + std::to_string(t), *tpins[k],
        PortAgent::Parts{
            .target = targets_[k].get(),
            .checker = part(checkers_,
                            static_cast<std::size_t>(cfg_.n_initiators) + k),
            .monitor = part(tmons_, k)}));
  }
  if (opts_.enable_scoreboard) {
    scoreboard_ = std::make_unique<Scoreboard>(cfg_);
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      scoreboard_->attach_initiator(*imons_[static_cast<std::size_t>(i)], i);
    }
    for (int t = 0; t < cfg_.n_targets; ++t) {
      scoreboard_->attach_target(*tmons_[static_cast<std::size_t>(t)], t);
    }
  }
  if (opts_.enable_reference_model && opts_.enable_monitors &&
      !targets_inject_errors) {
    reference_ = std::make_unique<ReferenceModel>(cfg_, mem_patterns);
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      reference_->attach_initiator(*imons_[static_cast<std::size_t>(i)], i);
    }
    for (int t = 0; t < cfg_.n_targets; ++t) {
      reference_->attach_target(*tmons_[static_cast<std::size_t>(t)], t);
    }
  }
  if (opts_.enable_coverage) {
    coverage_ = std::make_unique<StbusCoverage>(cfg_);
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      cov_taps_.push_back(std::make_unique<CoverageTap>(*coverage_, i));
      imons_[static_cast<std::size_t>(i)]->subscribe(cov_taps_.back().get());
    }
  }
  if (opts_.txn_trace) {
    if (!opts_.enable_monitors) {
      throw std::invalid_argument(
          "TestbenchOptions: txn_trace requires monitors");
    }
    txn_tracer_ = std::make_unique<obs::TxnTracer>();
    obs::TxnTracer* tr = txn_tracer_.get();
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      const std::string port = "init" + std::to_string(i);
      bfms_[static_cast<std::size_t>(i)]->set_issue_hook(
          [tr, port](const stbus::Request& r, std::uint64_t cycle) {
            tr->on_issue(port, r.src, r.tid, cycle, stbus::to_string(r.opc),
                         r.add);
          });
      txn_taps_.push_back(std::make_unique<TxnInitTap>(*txn_tracer_, port));
      imons_[static_cast<std::size_t>(i)]->subscribe(txn_taps_.back().get());
    }
    for (int t = 0; t < cfg_.n_targets; ++t) {
      txn_taps_.push_back(std::make_unique<TxnTargTap>(
          *txn_tracer_, "targ" + std::to_string(t)));
      tmons_[static_cast<std::size_t>(t)]->subscribe(txn_taps_.back().get());
    }
  }
  if (!opts_.vcd_path.empty()) {
    // Opened now so a bad path fails before the run, not after it.
    wave_file_.open(opts_.vcd_path);
    if (!wave_file_) {
      throw std::runtime_error("vcd: cannot open " + opts_.vcd_path);
    }
    wave_os_ = &wave_file_;
  } else {
    wave_os_ = opts_.vcd_stream;
  }
  recorder_ = opts_.recorder;
  if (wave_os_ != nullptr && recorder_ == nullptr) {
    wave_recorder_ = std::make_unique<vcd::Recorder>();
    recorder_ = wave_recorder_.get();
  }
  if (recorder_ != nullptr) ctx_.attach_tracer(recorder_);
}

Testbench::~Testbench() = default;

bool Testbench::traffic_drained() const {
  for (const auto& b : bfms_) {
    if (!b->done()) return false;
  }
  for (const auto& t : targets_) {
    if (!t->idle()) return false;
  }
  if (prog_bfm_ && !prog_bfm_->done()) return false;
  return true;
}

void RunResult::take_passive_verdict(const RunResult& other) {
  checker_violations = other.checker_violations;
  violations = other.violations;
  scoreboard_errors = other.scoreboard_errors;
  sb_errors = other.sb_errors;
  reference_mismatches = other.reference_mismatches;
  ref_errors = other.ref_errors;
  coverage_percent = other.coverage_percent;
  coverage_digest = other.coverage_digest;
  utilisation = other.utilisation;
  request_packets = other.request_packets;
  response_packets = other.response_packets;
  request_opcode_cells = other.request_opcode_cells;
}

void publish_verdict_metrics(const RunResult& r) {
  if (!obs::metrics_enabled()) return;
  obs::counter("verif.runs").inc();
  if (r.completed) obs::counter("verif.runs_completed").inc();
  obs::counter("verif.checker_violations").add(r.checker_violations);
  obs::counter("verif.scoreboard_errors").add(r.scoreboard_errors);
  obs::counter("verif.reference_mismatches").add(r.reference_mismatches);
  obs::counter("verif.request_packets").add(r.request_packets);
  obs::counter("verif.response_packets").add(r.response_packets);
  for (int o = 0; o < stbus::kNumOpcodes; ++o) {
    const std::uint64_t n = r.request_opcode_cells[static_cast<std::size_t>(o)];
    if (n != 0) {
      obs::counter("verif.opc." +
                   stbus::to_string(static_cast<stbus::Opcode>(o)))
          .add(n);
    }
  }
  obs::histogram("verif.request_packets_per_run").observe(r.request_packets);
}

RunResult Testbench::run() {
  RunResult res = simulate();
  if (txn_tracer_ && obs::metrics_enabled()) {
    obs::counter("txn.spans").add(res.txn.total_spans());
    for (const auto& p : res.txn.ports) {
      obs::counter("txn.incomplete").add(p.incomplete);
      obs::gauge("txn.max_in_flight").observe_max(p.max_in_flight);
    }
    // Exact per-span values (the port histograms are already binned).
    for (const auto& s : res.txn.spans) {
      if (s.complete()) {
        obs::histogram("txn.total_cycles").observe(s.total());
        obs::histogram("txn.queue_wait_cycles").observe(s.queue_wait());
      }
    }
  }
  ctx_.publish_metrics();
  return res;
}

RunResult Testbench::simulate() {
  RunResult res;
  ctx_.initialize();
  while (ctx_.cycle() < opts_.max_cycles) {
    ctx_.step();
    if (traffic_drained()) {
      res.completed = true;
      // A few drain cycles so monitors flush final packets.
      ctx_.step(4);
      break;
    }
  }
  for (auto& c : checkers_) c->end_of_test();
  if (scoreboard_) scoreboard_->end_of_test();
  if (reference_) reference_->end_of_test();
  if (wave_os_ != nullptr) {
    // The wave is the recording, written as VCD text once.
    vcd::write_wave(recorder_->trace(), *wave_os_);
    vcd::check_written(*wave_os_, opts_.vcd_path.empty() ? "the VCD stream"
                                                         : opts_.vcd_path);
  }

  res.cycles = ctx_.cycle();
  res.evaluations = ctx_.evaluations();
  for (auto& c : checkers_) {
    res.checker_violations += c->violation_count();
    for (const auto& v : c->violations()) {
      if (res.violations.size() < 100) res.violations.push_back(v);
    }
  }
  if (prog_checker_) {
    res.checker_violations += prog_checker_->violation_count();
    for (const auto& v : prog_checker_->violations()) {
      if (res.violations.size() < 100) res.violations.push_back(v);
    }
  }
  if (scoreboard_) {
    res.scoreboard_errors = scoreboard_->error_count();
    res.sb_errors = scoreboard_->errors();
  }
  if (reference_) {
    res.reference_mismatches = reference_->error_count();
    res.ref_errors = reference_->errors();
  }
  if (coverage_) {
    res.coverage_percent = coverage_->percent();
    res.coverage_digest = coverage_->digest();
  }
  auto add_util = [&res](const Monitor& m) {
    res.utilisation.push_back({m.name(), m.stats().busy_cycles,
                               m.stats().request_packets,
                               m.stats().response_packets});
  };
  for (const auto& m : imons_) {
    add_util(*m);
    res.request_packets += m->stats().request_packets;
    res.response_packets += m->stats().response_packets;
    for (std::size_t o = 0; o < res.request_opcode_cells.size(); ++o) {
      res.request_opcode_cells[o] += m->stats().request_opcode_cells[o];
    }
  }
  for (const auto& m : tmons_) add_util(*m);
  if (opts_.profile) res.profile = ctx_.profile();
  if (txn_tracer_) res.txn = txn_tracer_->finish();
  return res;
}

}  // namespace crve::verif
