// Equivalence and edge-case tests for the change-driven trace fast path.
//
// The kernel/VCD/STBA trio was rewritten to be change-driven (no per-cycle,
// per-signal string work). The refactor's contract is byte-identical output,
// so these tests pit the fast path against naive reference implementations
// of the pre-change algorithms: a full-scan per-cycle VCD writer and a
// per-cycle binary-search alignment scan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "metrics_guard.h"
#include "obs/metrics.h"
#include "regress/config_file.h"
#include "regress/job_spec.h"
#include "regress/runner.h"
#include "sim/context.h"
#include "stba/analyzer.h"
#include "stba_expect.h"
#include "vcd/excerpt.h"
#include "vcd/parser.h"
#include "vcd/recorder.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations (the pre-change algorithms, kept verbatim).
// ---------------------------------------------------------------------------

// Per-cycle full-scan VCD writer: materializes vcd_value() for every signal
// every cycle and diffs strings. Every wave vcd::write_wave emits from a
// recording must equal its bytes.
class ReferenceWriter : public sim::Tracer {
 public:
  explicit ReferenceWriter(std::ostream& os) : os_(os) {}

  void sample(std::uint64_t cycle, const std::vector<sim::SignalBase*>& signals,
              const std::vector<int>& /*changed*/) override {
    if (!header_done_) {
      write_header(signals);
      header_done_ = true;
    }
    bool time_emitted = false;
    for (std::size_t i = 0; i < signals.size(); ++i) {
      const std::string v = signals[i]->vcd_value();
      if (v == last_[i]) continue;
      if (!time_emitted) {
        os_ << "#" << cycle << "\n";
        time_emitted = true;
      }
      emit(static_cast<int>(i), v);
      last_[i] = v;
    }
  }

 private:
  void write_header(const std::vector<sim::SignalBase*>& signals) {
    os_ << "$date crve $end\n";
    os_ << "$version crve vcd writer $end\n";
    os_ << "$timescale 1ns $end\n";
    std::vector<std::string> open;
    for (std::size_t i = 0; i < signals.size(); ++i) {
      std::vector<std::string> scopes;
      std::string part;
      std::istringstream is(signals[i]->name());
      while (std::getline(is, part, '.')) scopes.push_back(part);
      const std::string leaf = scopes.back();
      scopes.pop_back();
      std::size_t common = 0;
      while (common < open.size() && common < scopes.size() &&
             open[common] == scopes[common]) {
        ++common;
      }
      for (std::size_t j = open.size(); j > common; --j) {
        os_ << "$upscope $end\n";
      }
      open.resize(common);
      for (std::size_t j = common; j < scopes.size(); ++j) {
        os_ << "$scope module " << scopes[j] << " $end\n";
        open.push_back(scopes[j]);
      }
      os_ << "$var wire " << signals[i]->width() << " "
          << vcd::id_code(static_cast<int>(i)) << " " << leaf
          << " $end\n";
    }
    for (std::size_t j = open.size(); j > 0; --j) os_ << "$upscope $end\n";
    os_ << "$enddefinitions $end\n";
    last_.assign(signals.size(), std::string());
  }

  void emit(int index, const std::string& value) {
    if (value.size() == 1) {
      os_ << value << vcd::id_code(index) << "\n";
    } else {
      std::size_t first = value.find('1');
      const std::string trimmed =
          first == std::string::npos ? "0" : value.substr(first);
      os_ << "b" << trimmed << " " << vcd::id_code(index) << "\n";
    }
  }

  std::ostream& os_;
  bool header_done_ = false;
  std::vector<std::string> last_;
};

// Per-cycle alignment scan over value_at() binary searches: the pre-change
// Analyzer::compare body (cycle loop only; cell diff reuses extract).
stba::PortAlignment reference_compare_port(const vcd::Trace& a,
                                           const vcd::Trace& b,
                                           const std::string& port) {
  const auto& fields = stba::Analyzer::port_fields();
  std::vector<int> ia, ib;
  for (const auto& f : fields) {
    ia.push_back(*a.find(port + "." + f));
    ib.push_back(*b.find(port + "." + f));
  }
  stba::PortAlignment pa;
  pa.port = port;
  pa.total_cycles = std::max(a.max_time(), b.max_time()) + 1;
  for (std::uint64_t c = 0; c < pa.total_cycles; ++c) {
    bool aligned = true;
    for (std::size_t f = 0; f < ia.size(); ++f) {
      if (a.value_at(ia[f], c) != b.value_at(ib[f], c)) {
        aligned = false;
        if (!pa.diverged()) {
          pa.diverged_signals.push_back(port + "." + fields[f]);
        }
      }
    }
    if (aligned) {
      ++pa.aligned_cycles;
    } else if (!pa.diverged()) {
      pa.first_divergence = c;
    }
  }
  return pa;
}

// One granted cell as binary field text, as the per-cycle reference
// decodes it.
struct RefCell {
  std::uint64_t cycle = 0;
  bool response = false;
  std::string opc, add, data, be;
  bool eop = false;
  bool lck = false;
  std::string src, tid;
};

// Holds a CellCursor cell to the reference cell field by field (a
// response cell's add/be are empty on both sides).
void expect_cell_matches(const stba::CellView& got, const RefCell& want,
                         const std::string& where) {
  EXPECT_EQ(got.cycle, want.cycle) << where;
  EXPECT_EQ(got.response, want.response) << where;
  EXPECT_EQ(got.opc.text(), want.opc) << where;
  EXPECT_EQ(got.add.text(), want.add) << where;
  EXPECT_EQ(got.data.text(), want.data) << where;
  EXPECT_EQ(got.be.text(), want.be) << where;
  EXPECT_EQ(got.eop, want.eop) << where;
  EXPECT_EQ(got.lck, want.lck) << where;
  EXPECT_EQ(got.src.text(), want.src) << where;
  EXPECT_EQ(got.tid.text(), want.tid) << where;
}

// Per-cycle extraction: every cycle's handshake and fields read through
// value_at() binary searches.
std::vector<RefCell> reference_extract(const vcd::Trace& t,
                                       const std::string& port) {
  const auto& fields = stba::Analyzer::port_fields();
  std::vector<int> idx;
  for (const auto& f : fields) idx.push_back(*t.find(port + "." + f));
  auto field = [&](int f, std::uint64_t cyc) {
    return t.value_at(idx[static_cast<std::size_t>(f)], cyc).text();
  };
  enum {
    kReq, kGnt, kOpc, kAdd, kData, kBe, kEop, kLck, kSrc, kTid,
    kRReq, kRGnt, kROpc, kRData, kREop, kRSrc, kRTid
  };
  std::vector<RefCell> cells;
  for (std::uint64_t c = 0; c <= t.max_time(); ++c) {
    if (field(kReq, c) == "1" && field(kGnt, c) == "1") {
      RefCell cell;
      cell.cycle = c;
      cell.response = false;
      cell.opc = field(kOpc, c);
      cell.add = field(kAdd, c);
      cell.data = field(kData, c);
      cell.be = field(kBe, c);
      cell.eop = field(kEop, c) == "1";
      cell.lck = field(kLck, c) == "1";
      cell.src = field(kSrc, c);
      cell.tid = field(kTid, c);
      cells.push_back(std::move(cell));
    }
    if (field(kRReq, c) == "1" && field(kRGnt, c) == "1") {
      RefCell cell;
      cell.cycle = c;
      cell.response = true;
      cell.opc = field(kROpc, c);
      cell.data = field(kRData, c);
      cell.eop = field(kREop, c) == "1";
      cell.src = field(kRSrc, c);
      cell.tid = field(kRTid, c);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

void expect_ports_equal(const stba::PortAlignment& fast,
                        const stba::PortAlignment& ref) {
  EXPECT_EQ(fast.port, ref.port);
  EXPECT_EQ(fast.total_cycles, ref.total_cycles);
  EXPECT_EQ(fast.aligned_cycles, ref.aligned_cycles);
  EXPECT_EQ(fast.first_divergence, ref.first_divergence);
  EXPECT_EQ(fast.diverged_signals, ref.diverged_signals);
}

// Runs both model views of a testbench into VCD streams.
void dump_views(const stbus::NodeConfig& cfg, const verif::TestSpec& base,
                int n_transactions, const bca::Faults& faults,
                std::string& rtl, std::string& bca) {
  std::ostringstream rtl_os, bca_os;
  for (int m = 0; m < 2; ++m) {
    verif::TestbenchOptions opts;
    opts.model = m == 0 ? verif::ModelKind::kRtl : verif::ModelKind::kBca;
    opts.seed = 21;
    opts.vcd_stream = m == 0 ? &rtl_os : &bca_os;
    if (m == 1) opts.faults = faults;
    verif::TestSpec spec = base;
    spec.n_transactions = n_transactions;
    verif::Testbench tb(cfg, spec, opts);
    tb.run();
  }
  rtl = rtl_os.str();
  bca = bca_os.str();
}

vcd::Trace parse(const std::string& s) {
  std::istringstream is(s);
  return vcd::Trace::parse(is);
}

stbus::NodeConfig small_cfg() {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Writer equivalence
// ---------------------------------------------------------------------------

TEST(TracePathGolden, WriterMatchesFullScanReference) {
  sim::Context ctx;
  sim::SignalBool req(ctx, "tb.p0.req");
  sim::SignalU64 add(ctx, "tb.p0.add", 16);
  sim::SignalBits data(ctx, "tb.p0.data", 64);
  sim::SignalU64 quiet(ctx, "tb.p0.quiet", 8);
  sim::SignalBool comb_out(ctx, "tb.comb.out");
  std::ostringstream wave_os, ref_os;
  vcd::Recorder rec;
  ReferenceWriter ref(ref_os);
  ctx.attach_tracer(&rec);
  ctx.attach_tracer(&ref);
  ctx.add_clocked("drv", [&] {
    const auto c = ctx.cycle();
    req.write(c % 3 == 1);
    if (c % 4 != 0) add.write(c * 0x123);
    data.write(crve::Bits(64, 0xdeadbeef00ull + c * 7));
  });
  // Combinational feedback: out follows req with delta settling, so some
  // values change mid-cycle and settle back — the changed-set must still
  // produce the same bytes as the full scan.
  ctx.add_comb("mirror", [&] { comb_out.write(req.read()); });
  ctx.step(200);
  const std::uint64_t bytes = vcd::write_wave(rec.trace(), wave_os);
  EXPECT_EQ(wave_os.str(), ref_os.str());
  EXPECT_EQ(bytes, wave_os.str().size());
}

TEST(TracePathGolden, WriterMatchesReferenceOnRealTestbench) {
  // No recorder in the options: the Testbench records the wave itself.
  std::ostringstream wave_os, ref_os;
  ReferenceWriter ref(ref_os);
  {
    verif::TestbenchOptions opts;
    opts.seed = 21;
    opts.vcd_stream = &wave_os;
    verif::TestSpec spec = verif::t02_random_all_opcodes();
    spec.n_transactions = 40;
    verif::Testbench tb(small_cfg(), spec, opts);
    tb.ctx().attach_tracer(&ref);
    tb.run();
  }
  EXPECT_EQ(wave_os.str(), ref_os.str());
  // The dump parses and re-aligns 100% against itself.
  const auto t = parse(wave_os.str());
  EXPECT_GT(t.vars().size(), 0u);
  const auto rep = stba::Analyzer::compare(t, t, {"tb.init0", "tb.targ0"});
  for (const auto& p : rep.ports) {
    EXPECT_EQ(p.aligned_cycles, p.total_cycles) << p.port;
  }
}

// ---------------------------------------------------------------------------
// Analyzer equivalence
// ---------------------------------------------------------------------------

TEST(TracePathGolden, CompareMatchesPerCycleReferenceClean) {
  std::string rtl, bca;
  dump_views(small_cfg(), verif::t02_random_all_opcodes(), 40, {}, rtl, bca);
  const auto a = parse(rtl);
  const auto b = parse(bca);
  const std::vector<std::string> ports = {"tb.init0", "tb.init1", "tb.targ0",
                                          "tb.targ1"};
  const auto rep = stba::Analyzer::compare(a, b, ports);
  for (std::size_t i = 0; i < ports.size(); ++i) {
    expect_ports_equal(rep.ports[i], reference_compare_port(a, b, ports[i]));
    EXPECT_TRUE(rep.ports[i].note.empty());
  }
}

TEST(TracePathGolden, CompareMatchesPerCycleReferenceFaulted) {
  bca::Faults faults;
  faults.grant_during_lock = true;
  stbus::NodeConfig cfg = small_cfg();
  cfg.n_initiators = 3;
  cfg.arb = stbus::ArbPolicy::kLru;
  std::string rtl, bca_dump;
  dump_views(cfg, verif::t05_chunked_traffic(), 60, faults, rtl, bca_dump);
  const auto a = parse(rtl);
  const auto b = parse(bca_dump);
  const std::vector<std::string> ports = {"tb.init0", "tb.init1", "tb.init2",
                                          "tb.targ0", "tb.targ1"};
  const auto rep = stba::Analyzer::compare(a, b, ports);
  bool any_diverged = false;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    expect_ports_equal(rep.ports[i], reference_compare_port(a, b, ports[i]));
    any_diverged |= rep.ports[i].diverged();
  }
  EXPECT_TRUE(any_diverged);  // the fault must actually bite
}

TEST(TracePathGolden, ExtractMatchesPerCycleReference) {
  bca::Faults faults;
  faults.response_src_swap = true;
  std::string rtl, bca_dump;
  dump_views(small_cfg(), verif::t03_out_of_order(), 30, faults, rtl,
             bca_dump);
  for (const auto* dump : {&rtl, &bca_dump}) {
    const auto t = parse(*dump);
    for (const auto* port : {"tb.init0", "tb.init1", "tb.targ1"}) {
      const auto fast = test::cells_of(t, port);
      const auto ref = reference_extract(t, port);
      ASSERT_EQ(fast.size(), ref.size()) << port;
      for (std::size_t i = 0; i < fast.size(); ++i) {
        expect_cell_matches(fast[i], ref[i], port);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recorder equivalence: the in-process trace equals the VCD round trip
// ---------------------------------------------------------------------------

std::vector<stbus::NodeConfig> shipped_configs() {
  return regress::configs_from_dir(CRVE_SOURCE_DIR "/configs");
}

// One view run's recording.
vcd::Trace record_view(const stbus::NodeConfig& cfg,
                       const verif::TestSpec& spec, verif::ModelKind model,
                       const bca::Faults& faults) {
  vcd::Recorder rec;
  verif::TestbenchOptions opts;
  opts.model = model;
  opts.seed = 21;
  opts.faults = faults;
  opts.recorder = &rec;
  verif::Testbench(cfg, spec, opts).run();
  return rec.take();
}

// One view run recorded and written as a wave by the Testbench, with the
// full-scan reference writer attached to the very same simulation.
struct BothSinks {
  vcd::Trace recorded;
  std::string wave;       // what the Testbench wrote from the recording
  std::string reference;  // what ReferenceWriter wrote
};

BothSinks run_both_sinks(const stbus::NodeConfig& cfg,
                         const verif::TestSpec& spec, verif::ModelKind model,
                         sim::KernelKind kernel, const bca::Faults& faults) {
  std::ostringstream wave_os, ref_os;
  ReferenceWriter ref(ref_os);
  vcd::Recorder rec;
  {
    verif::TestbenchOptions opts;
    opts.model = model;
    opts.kernel = kernel;
    opts.seed = 21;
    opts.faults = faults;
    opts.vcd_stream = &wave_os;
    opts.recorder = &rec;
    verif::Testbench tb(cfg, spec, opts);
    tb.ctx().attach_tracer(&ref);
    tb.run();
  }
  return {rec.take(), wave_os.str(), ref_os.str()};
}

TEST(RecorderGolden, EqualsParsedWriterOutputOnShippedConfigs) {
  const auto configs = shipped_configs();
  ASSERT_FALSE(configs.empty());
  std::size_t runs = 0;
  for (const auto& cfg : configs) {
    for (const auto& spec : verif::catg_test_suite()) {
      for (const auto model :
           {verif::ModelKind::kRtl, verif::ModelKind::kBca}) {
        for (const auto kernel :
             {sim::KernelKind::kCompiled, sim::KernelKind::kInterp}) {
          const BothSinks t = run_both_sinks(cfg, spec, model, kernel, {});
          const std::string where = cfg.name + "/" + spec.name + "/" +
                                    verif::to_string(model) +
                                    (kernel == sim::KernelKind::kInterp
                                         ? "/interp"
                                         : "/compiled");
          // The wave written from the recording is the reference's bytes.
          EXPECT_EQ(t.wave, t.reference) << where;
          // And the recording is what parsing those bytes gives: field by
          // field first, for a readable failure, then the whole.
          const vcd::Trace parsed = parse(t.reference);
          ASSERT_EQ(t.recorded.vars(), parsed.vars()) << where;
          EXPECT_EQ(t.recorded.max_time(), parsed.max_time()) << where;
          for (std::size_t v = 0; v < parsed.vars().size(); ++v) {
            const auto a = t.recorded.changes(static_cast<int>(v));
            const auto b = parsed.changes(static_cast<int>(v));
            ASSERT_EQ(a.size(), b.size())
                << where << " " << parsed.vars()[v].name;
            for (std::size_t k = 0; k < a.size(); ++k) {
              ASSERT_EQ(a[k].time, b[k].time) << where;
              ASSERT_EQ(a[k].value, b[k].value) << where;
            }
          }
          EXPECT_TRUE(t.recorded == parsed) << where;
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, configs.size() * 12 * 2 * 2);
}

TEST(RecorderGolden, RecordsOnlyValueChangesAndIds) {
  sim::Context ctx;
  sim::SignalBool req(ctx, "tb.p0.req");
  sim::SignalU64 add(ctx, "tb.p0.add", 16);
  sim::SignalBits data(ctx, "tb.p0.data", 64);
  sim::SignalU64 quiet(ctx, "tb.p0.quiet", 8);
  sim::SignalBool comb_out(ctx, "tb.comb.out");
  std::ostringstream os;
  ReferenceWriter ref(os);
  vcd::Recorder rec;
  ctx.attach_tracer(&ref);
  ctx.attach_tracer(&rec);
  ctx.add_clocked("drv", [&] {
    const auto c = ctx.cycle();
    if (c >= 150) return;  // a quiet tail
    req.write(c % 3 == 1);
    if (c % 4 != 0) add.write(c * 0x123);
    data.write(crve::Bits(64, 0xdeadbeef00ull + c * 7));
  });
  ctx.add_comb("mirror", [&] { comb_out.write(req.read()); });
  ctx.step(200);
  std::ostringstream wave;
  vcd::write_wave(rec.trace(), wave);
  EXPECT_EQ(wave.str(), os.str());
  const vcd::Trace recorded = rec.take();
  EXPECT_TRUE(recorded == parse(os.str()));
  EXPECT_EQ(recorded.vars()[3].id, vcd::id_code(3));
  // The quiet signal holds its initial snapshot only.
  EXPECT_EQ(recorded.changes(3).size(), 1u);
  // max_time is the last cycle that changed something, not the last cycle
  // sampled: the quiet tail does not count.
  EXPECT_EQ(recorded.max_time(), 149u);
}

// With each of the paper's five C3 faults, the streaming cell diff inside
// compare() counts exactly what materializing both cell streams and
// diffing them position by position counts.
TEST(StreamingCellDiff, MatchesExtractCountsUnderEachC3Fault) {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.arb = stbus::ArbPolicy::kLru;
  const char* const kFaults[] = {"lru_stale_on_chunk", "grant_during_lock",
                                 "byte_enable_dropped", "response_src_swap",
                                 "size_conv_endianness"};
  bool any_mismatch = false;
  for (const char* name : kFaults) {
    bca::Faults faults;
    ASSERT_TRUE(regress::set_fault_by_name(faults, name));
    for (auto spec : verif::catg_test_suite()) {
      spec.n_transactions = 40;
      const vcd::Trace a =
          record_view(cfg, spec, verif::ModelKind::kRtl, {});
      const vcd::Trace b =
          record_view(cfg, spec, verif::ModelKind::kBca, faults);
      std::vector<std::string> ports;
      for (int i = 0; i < cfg.n_initiators; ++i) {
        ports.push_back(verif::Testbench::initiator_port_name(i));
      }
      for (int t = 0; t < cfg.n_targets; ++t) {
        ports.push_back(verif::Testbench::target_port_name(t));
      }
      const auto rep = stba::Analyzer::compare(a, b, ports);
      for (const auto& p : rep.ports) {
        const auto ca = test::cells_of(a, p.port);
        const auto cb = test::cells_of(b, p.port);
        std::uint64_t matching = 0;
        for (std::size_t i = 0; i < std::min(ca.size(), cb.size()); ++i) {
          if (ca[i].same_content(cb[i])) ++matching;
        }
        const std::string where =
            std::string(name) + "/" + spec.name + "/" + p.port;
        EXPECT_EQ(p.cells_a, ca.size()) << where;
        EXPECT_EQ(p.cells_b, cb.size()) << where;
        EXPECT_EQ(p.cells_matching, matching) << where;
        any_mismatch |= matching < std::max(ca.size(), cb.size());
      }
    }
  }
  EXPECT_TRUE(any_mismatch);  // the faults must actually bite
}

// ---------------------------------------------------------------------------
// Whole-recording proof: compare() credits every port of two equal
// recordings without walking any. On real recordings it must report
// exactly what the merge reports.
// ---------------------------------------------------------------------------

std::vector<std::string> all_ports(const stbus::NodeConfig& cfg) {
  std::vector<std::string> ports;
  for (int i = 0; i < cfg.n_initiators; ++i) {
    ports.push_back(verif::Testbench::initiator_port_name(i));
  }
  for (int t = 0; t < cfg.n_targets; ++t) {
    ports.push_back(verif::Testbench::target_port_name(t));
  }
  return ports;
}

// One clean view run's recording under `kernel`.
vcd::Trace record_on_kernel(const stbus::NodeConfig& cfg,
                            const verif::TestSpec& spec,
                            verif::ModelKind model, sim::KernelKind kernel) {
  vcd::Recorder rec;
  verif::TestbenchOptions opts;
  opts.model = model;
  opts.kernel = kernel;
  opts.seed = 21;
  opts.recorder = &rec;
  verif::Testbench(cfg, spec, opts).run();
  return rec.take();
}

TEST(IdentityProof, MatchesMergeOnShippedConfigs) {
  const auto configs = shipped_configs();
  ASSERT_FALSE(configs.empty());
  std::size_t pairs = 0, equal = 0;
  for (const auto& cfg : configs) {
    const auto names = all_ports(cfg);
    for (const auto& spec : verif::catg_test_suite()) {
      for (const auto kernel :
           {sim::KernelKind::kCompiled, sim::KernelKind::kInterp}) {
        const vcd::Trace a =
            record_on_kernel(cfg, spec, verif::ModelKind::kRtl, kernel);
        const vcd::Trace b =
            record_on_kernel(cfg, spec, verif::ModelKind::kBca, kernel);
        const std::string where =
            cfg.name + "/" + spec.name +
            (kernel == sim::KernelKind::kInterp ? "/interp" : "/compiled");
        equal += test::expect_proof_matches_merge(a, b, names, where);
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, configs.size() * 12 * 2);
  // The clean views record equal traces, so every pair takes the proof.
  EXPECT_EQ(equal, pairs);
}

TEST(IdentityProof, MatchesMergeUnderEachC3Fault) {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.arb = stbus::ArbPolicy::kLru;
  const auto names = all_ports(cfg);
  for (const char* fault :
       {"lru_stale_on_chunk", "grant_during_lock", "byte_enable_dropped",
        "response_src_swap", "opcode_corrupt_on_busy"}) {
    bca::Faults faults;
    ASSERT_TRUE(regress::set_fault_by_name(faults, fault));
    std::size_t pairs = 0, equal = 0;
    for (auto spec : verif::catg_test_suite()) {
      spec.n_transactions = 40;
      const vcd::Trace a =
          record_view(cfg, spec, verif::ModelKind::kRtl, {});
      const vcd::Trace b =
          record_view(cfg, spec, verif::ModelKind::kBca, faults);
      equal += test::expect_proof_matches_merge(
          a, b, names, std::string(fault) + "/" + spec.name);
      ++pairs;
    }
    // The fault bites somewhere, so some pair must have been walked.
    EXPECT_LT(equal, pairs) << fault;
  }
}

// ---------------------------------------------------------------------------
// Pipelined alignment: each pair aligned by the job that finishes its
// second view — results must not depend on which job that was.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

regress::MatrixResult shipped_matrix(unsigned jobs, const std::string& out,
                                     const bca::Faults& faults) {
  regress::RunPlan base;
  base.seeds = {3, 4};
  base.n_transactions = 25;
  base.max_cycles = 4000;  // deadlocked faulted pairs stop early
  base.jobs = jobs;
  base.out_dir = out;
  base.faults = faults;
  return regress::Regression::run_matrix(shipped_configs(), base);
}

TEST(PipelinedAlignment, ReportIdenticalAtJobs1And4) {
  const auto serial = shipped_matrix(1, "", {});
  const auto parallel = shipped_matrix(4, "", {});
  EXPECT_TRUE(serial.all_signed_off) << serial.summary();
  EXPECT_EQ(serial.json(/*with_timing=*/false),
            parallel.json(/*with_timing=*/false));
}

TEST(PipelinedAlignment, FaultedArtifactsIdenticalAtJobs1And4) {
  const fs::path root = fs::temp_directory_path() / "crve_pipelined_align";
  fs::remove_all(root);
  bca::Faults faults;
  faults.grant_during_lock = true;
  const auto serial = shipped_matrix(1, (root / "j1").string(), faults);
  const auto parallel = shipped_matrix(4, (root / "j4").string(), faults);
  EXPECT_FALSE(serial.all_signed_off);
  EXPECT_EQ(serial.json(/*with_timing=*/false),
            parallel.json(/*with_timing=*/false));
  // Alignment summaries, triage reports and excerpts are written by
  // whichever job aligned the pair; they must not depend on it.
  std::size_t compared = 0;
  std::size_t triaged = 0;
  for (const auto& e : fs::recursive_directory_iterator(root / "j1")) {
    const std::string name = e.path().filename().string();
    const bool pair_artifact = name.rfind("alignment_", 0) == 0 ||
                               name.rfind("triage_", 0) == 0 ||
                               name.rfind("excerpt_", 0) == 0;
    if (!pair_artifact) continue;
    const fs::path twin = root / "j4" / fs::relative(e.path(), root / "j1");
    EXPECT_EQ(slurp(e.path()), slurp(twin)) << twin;
    ++compared;
    triaged += name.rfind("triage_", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(triaged, 0u);
  EXPECT_GT(compared, triaged);
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Cursor edge cases
// ---------------------------------------------------------------------------

TEST(TraceCursor, ZeroBeforeFirstChange) {
  const char* dump =
      "$var wire 4 ! v $end\n"
      "$enddefinitions $end\n"
      "#10\nb1010 !\n";
  auto t = parse(dump);
  auto cur = t.cursor(0);
  EXPECT_EQ(cur.next_change_time(), 10u);
  EXPECT_EQ(cur.value_at(0).text(), "0000");
  EXPECT_EQ(cur.value_at(9).text(), "0000");
  EXPECT_EQ(cur.next_change_time(), 10u);
  EXPECT_EQ(cur.value_at(10).text(), "1010");
  EXPECT_EQ(cur.next_change_time(), vcd::Trace::Cursor::kNoChange);
  // Matches random-access value_at.
  EXPECT_EQ(t.value_at(0, 9).text(), "0000");
  EXPECT_EQ(t.value_at(0, 10).text(), "1010");
}

TEST(TraceCursor, SparseMultiVarOrdering) {
  // Two vars changing at interleaved, far-apart times.
  const char* dump =
      "$var wire 1 ! a $end\n"
      "$var wire 1 \" b $end\n"
      "$enddefinitions $end\n"
      "#5\n1!\n#1000\n1\"\n#5000\n0!\n#9000\n0\"\n";
  auto t = parse(dump);
  auto ca = t.cursor(0);
  auto cb = t.cursor(1);
  struct Step { std::uint64_t at; const char* a; const char* b; };
  const Step steps[] = {{0, "0", "0"},    {5, "1", "0"},    {999, "1", "0"},
                        {1000, "1", "1"}, {4999, "1", "1"}, {5000, "0", "1"},
                        {8999, "0", "1"}, {9000, "0", "0"}};
  for (const auto& s : steps) {
    EXPECT_EQ(ca.value_at(s.at).text(), s.a) << "a @" << s.at;
    EXPECT_EQ(cb.value_at(s.at).text(), s.b) << "b @" << s.at;
    EXPECT_EQ(t.value_at(0, s.at).text(), s.a) << "a random @" << s.at;
    EXPECT_EQ(t.value_at(1, s.at).text(), s.b) << "b random @" << s.at;
  }
}

TEST(TraceCursor, ChangeExactlyAtMaxTime) {
  const char* dump =
      "$var wire 1 ! v $end\n"
      "$enddefinitions $end\n"
      "#0\n0!\n#42\n1!\n";
  auto t = parse(dump);
  EXPECT_EQ(t.max_time(), 42u);
  auto cur = t.cursor(0);
  EXPECT_EQ(cur.value_at(41).text(), "0");
  EXPECT_EQ(cur.next_change_time(), 42u);
  EXPECT_EQ(cur.value_at(42).text(), "1");
  EXPECT_EQ(cur.next_change_time(), vcd::Trace::Cursor::kNoChange);
  // Past max_time the last value holds.
  EXPECT_EQ(cur.value_at(100).text(), "1");
  EXPECT_EQ(cur.consumed(), 2u);
}

TEST(TraceCursor, EmptyChangeListStaysZero) {
  const char* dump =
      "$var wire 3 ! v $end\n"
      "$enddefinitions $end\n"
      "#7\n";
  auto t = parse(dump);
  auto cur = t.cursor(0);
  EXPECT_EQ(cur.next_change_time(), vcd::Trace::Cursor::kNoChange);
  EXPECT_EQ(cur.value_at(0).text(), "000");
  EXPECT_EQ(cur.value_at(1000).text(), "000");
  EXPECT_EQ(cur.consumed(), 0u);
}

// ---------------------------------------------------------------------------
// Empty-trace per-port note (mis-rating fix)
// ---------------------------------------------------------------------------

std::string port_header_only(bool with_activity) {
  std::ostringstream os;
  os << "$scope module tb $end\n$scope module p0 $end\n";
  const char* names[] = {"req", "gnt", "opc", "add", "data", "be", "eop",
                         "lck", "src", "tid", "r_req", "r_gnt", "r_opc",
                         "r_data", "r_eop", "r_src", "r_tid"};
  const int widths[] = {1, 1, 6, 32, 32, 4, 1, 1, 6, 8, 1, 1, 2, 32, 1, 6, 8};
  for (int i = 0; i < 17; ++i) {
    os << "$var wire " << widths[i] << " " << static_cast<char>('!' + i)
       << " " << names[i] << " $end\n";
  }
  os << "$upscope $end\n$upscope $end\n$enddefinitions $end\n";
  if (with_activity) os << "#3\n1!\n1\"\n#4\n0!\n0\"\n#9\n";
  return os.str();
}

TEST(StbaEmptyTrace, OneSidedEmptyGetsNote) {
  const auto a = parse(port_header_only(/*with_activity=*/true));
  const auto b = parse(port_header_only(/*with_activity=*/false));
  const auto rep = stba::Analyzer::compare(a, b, {"tb.p0"});
  ASSERT_EQ(rep.ports.size(), 1u);
  EXPECT_FALSE(rep.ports[0].note.empty());
  EXPECT_NE(rep.ports[0].note.find("dump B"), std::string::npos);
  // The note surfaces in the human-readable summary.
  EXPECT_NE(rep.summary().find(rep.ports[0].note), std::string::npos);
  // Rate math itself is unchanged (B reads as all-zeros).
  EXPECT_LT(rep.ports[0].rate(), 1.0);
}

TEST(StbaEmptyTrace, BothEmptyGetsVacuousNote) {
  const auto a = parse(port_header_only(false));
  const auto b = parse(port_header_only(false));
  const auto rep = stba::Analyzer::compare(a, b, {"tb.p0"});
  ASSERT_EQ(rep.ports.size(), 1u);
  EXPECT_NE(rep.ports[0].note.find("vacuous"), std::string::npos);
  EXPECT_DOUBLE_EQ(rep.ports[0].rate(), 1.0);  // unchanged numerics
}

TEST(StbaEmptyTrace, HealthyComparisonHasNoNote) {
  const auto a = parse(port_header_only(true));
  const auto rep = stba::Analyzer::compare(a, a, {"tb.p0"});
  EXPECT_TRUE(rep.ports[0].note.empty());
  EXPECT_EQ(rep.summary().find('['), std::string::npos);
}

// ---------------------------------------------------------------------------
// Kernel changed-set semantics
// ---------------------------------------------------------------------------

struct RecordingTracer : sim::Tracer {
  std::vector<std::vector<int>> sets;
  void sample(std::uint64_t, const std::vector<sim::SignalBase*>&,
              const std::vector<int>& changed) override {
    sets.push_back(changed);
  }
};

TEST(ChangedSet, FirstSampleReportsAllThenOnlyChanges) {
  sim::Context ctx;
  sim::SignalU64 a(ctx, "a", 8);
  sim::SignalU64 b(ctx, "b", 8);
  sim::SignalBool quiet(ctx, "q");
  RecordingTracer tr;
  ctx.attach_tracer(&tr);
  ctx.add_clocked("drv", [&] {
    a.write(a.read() + 1);        // changes every cycle
    if (ctx.cycle() == 2) b.write(5);  // changes once
    quiet.write(false);           // written but never changes
  });
  ctx.step(3);
  ASSERT_EQ(tr.sets.size(), 4u);  // initialize + 3 steps
  EXPECT_EQ(tr.sets[0], (std::vector<int>{0, 1, 2}));  // full snapshot
  EXPECT_EQ(tr.sets[1], (std::vector<int>{0}));        // only a
  EXPECT_EQ(tr.sets[2], (std::vector<int>{0, 1}));     // a and b, ascending
  EXPECT_EQ(tr.sets[3], (std::vector<int>{0}));
}

TEST(ChangedSet, SignalIndexMatchesRegistrationOrder) {
  sim::Context ctx;
  sim::SignalBool s0(ctx, "s0");
  sim::SignalU64 s1(ctx, "s1", 4);
  sim::SignalBits s2(ctx, "s2", 128);
  EXPECT_EQ(s0.index(), 0);
  EXPECT_EQ(s1.index(), 1);
  EXPECT_EQ(s2.index(), 2);
  EXPECT_EQ(ctx.signals()[2], &s2);
}

TEST(ChangedSet, ValueWordsMatchVcdValue) {
  sim::Context ctx;
  sim::SignalBool b(ctx, "b");
  sim::SignalU64 u(ctx, "u", 12);
  sim::SignalBits w(ctx, "w", 70);
  const crve::Bits wide = crve::Bits(70, 0x123456789abcdef0ull);
  ctx.add_clocked("drv", [&] {
    b.write(true);
    u.write(0xabc);
    w.write(wide);
  });
  ctx.step(1);
  EXPECT_EQ(b.value_words()[0], 1u);
  EXPECT_EQ(u.value_words()[0], 0xabcu);
  EXPECT_EQ(w.value_words()[0], wide.word(0));
  EXPECT_EQ(w.value_words()[1], wide.word(1));
  EXPECT_EQ(b.vcd_value(), "1");
  EXPECT_EQ(u.vcd_value(), "101010111100");
  EXPECT_EQ(w.vcd_value(), wide.to_bin_string());
  for (const auto* s : ctx.signals()) {
    EXPECT_EQ(vcd::Value(s->value_words(), s->width()).text(), s->vcd_value())
        << s->name();
    EXPECT_EQ(s->vcd_value().size(), static_cast<std::size_t>(s->width()));
  }
}

// ---------------------------------------------------------------------------
// Canonical change log: a recording does not depend on the order the kernel
// commits changes in, so equal pins record equal logs, and compare() proves
// such a pair with one comparison, building no per-variable index.
// ---------------------------------------------------------------------------

struct ToyRun {
  vcd::Trace trace;
  std::string wave;
  std::vector<std::vector<int>> changed;  // the kernel's changed-sets
};

// A toy design whose two clocked processes write the same values every
// run; `reversed` registers them in the opposite order, so the kernel
// commits the writes in the opposite order.
ToyRun record_toy(bool reversed) {
  sim::Context ctx;
  sim::SignalU64 a(ctx, "tb.toy.a", 8);
  sim::SignalBool b(ctx, "tb.toy.b");
  sim::SignalBits w(ctx, "tb.toy.w", 100);
  RecordingTracer order;
  vcd::Recorder rec;
  ctx.attach_tracer(&order);
  ctx.attach_tracer(&rec);
  const auto drive_a = [&] { a.write(ctx.cycle() * 3); };
  const auto drive_bw = [&] {
    w.write(crve::Bits(100, ctx.cycle() * 0x1001));
    b.write(ctx.cycle() % 2 == 1);
  };
  if (reversed) {
    ctx.add_clocked("bw", drive_bw);
    ctx.add_clocked("a", drive_a);
  } else {
    ctx.add_clocked("a", drive_a);
    ctx.add_clocked("bw", drive_bw);
  }
  ctx.step(20);
  std::ostringstream os;
  vcd::write_wave(rec.trace(), os);
  return {rec.take(), os.str(), order.sets};
}

TEST(CanonicalLog, RecordingDoesNotDependOnCommitOrder) {
  const ToyRun fwd = record_toy(/*reversed=*/false);
  const ToyRun rev = record_toy(/*reversed=*/true);
  // The kernel did hand the tracers the changes in different orders...
  EXPECT_NE(fwd.changed, rev.changed);
  // ...and the recordings and their waves are the same.
  EXPECT_TRUE(fwd.trace == rev.trace);
  EXPECT_EQ(fwd.wave, rev.wave);
  EXPECT_TRUE(parse(fwd.wave) == rev.trace);
  // a: the snapshot, then a new value on each of the 20 steps.
  EXPECT_EQ(fwd.trace.change_count(0), 21u);
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [n, v] : obs::registry().snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

// One view run's recording, the BCA view with its passive environment off
// as a lean campaign job runs it.
vcd::Trace record_lean(const stbus::NodeConfig& cfg,
                       const verif::TestSpec& spec, verif::ModelKind model,
                       const bca::Faults& faults) {
  vcd::Recorder rec;
  verif::TestbenchOptions opts;
  opts.model = model;
  opts.seed = 21;
  opts.faults = faults;
  opts.recorder = &rec;
  if (model == verif::ModelKind::kBca) opts.drop_passive_environment();
  verif::Testbench(cfg, spec, opts).run();
  return rec.take();
}

TEST(WholeRecordingProof, LeanBcaRecordsWhatRtlRecordsOnShippedConfigs) {
  test::MetricsGuard guard;
  const auto configs = shipped_configs();
  ASSERT_FALSE(configs.empty());
  std::uint64_t pairs = 0;
  for (const auto& cfg : configs) {
    const auto ports = all_ports(cfg);
    for (const auto& spec : verif::catg_test_suite()) {
      const std::string where = cfg.name + "/" + spec.name;
      const vcd::Trace a = record_lean(cfg, spec, verif::ModelKind::kRtl, {});
      const vcd::Trace b = record_lean(cfg, spec, verif::ModelKind::kBca, {});
      EXPECT_TRUE(a == b) << where;
      const std::uint64_t indexes = counter_value("vcd.track_indexes");
      bool all_identical = false;
      const auto proved = stba::Analyzer::compare(a, b, ports, &all_identical);
      EXPECT_TRUE(all_identical) << where;
      // The proof reads the logs whole: no per-variable index was built.
      EXPECT_EQ(counter_value("vcd.track_indexes"), indexes) << where;
      const auto walked = stba::Analyzer::compare_by_merge(a, b, ports);
      ASSERT_EQ(proved.ports.size(), walked.ports.size()) << where;
      for (std::size_t p = 0; p < ports.size(); ++p) {
        test::expect_same_alignment(proved.ports[p], walked.ports[p],
                                    where + "/" + ports[p]);
      }
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, configs.size() * 12);
  EXPECT_EQ(counter_value("stba.recordings_identical"), pairs);
}

// Readers on several threads share one trace: the first use builds the
// per-variable index once, and every reader sees the whole of it.
TEST(WholeRecordingProof, IndexBuiltOnceForConcurrentReaders) {
  test::MetricsGuard guard;
  const vcd::Trace t = record_lean(small_cfg(), verif::t02_random_all_opcodes(),
                                   verif::ModelKind::kRtl, {});
  std::vector<std::size_t> seen(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < seen.size(); ++r) {
    readers.emplace_back([&t, &seen, r] {
      for (std::size_t v = 0; v < t.vars().size(); ++v) {
        seen[r] += t.changes(static_cast<int>(v)).size();
      }
    });
  }
  for (auto& th : readers) th.join();
  std::size_t total = 0;
  for (std::size_t v = 0; v < t.vars().size(); ++v) {
    total += t.change_count(static_cast<int>(v));
  }
  for (const std::size_t n : seen) EXPECT_EQ(n, total);
  EXPECT_EQ(counter_value("vcd.track_indexes"), 1u);
}

// Under each C3 fault some lean pairs still record equal logs (the test
// never provokes the fault) and take the whole-recording proof, while the
// others are walked; either way compare() reports what the merge reports.
TEST(WholeRecordingProof, MatchesMergeUnderEachC3Fault) {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.arb = stbus::ArbPolicy::kLru;
  const auto names = all_ports(cfg);
  std::size_t whole = 0;
  for (const char* fault :
       {"lru_stale_on_chunk", "grant_during_lock", "byte_enable_dropped",
        "response_src_swap", "opcode_corrupt_on_busy"}) {
    bca::Faults faults;
    ASSERT_TRUE(regress::set_fault_by_name(faults, fault));
    std::size_t differing = 0;
    for (auto spec : verif::catg_test_suite()) {
      spec.n_transactions = 40;
      const vcd::Trace a =
          record_lean(cfg, spec, verif::ModelKind::kRtl, {});
      const vcd::Trace b =
          record_lean(cfg, spec, verif::ModelKind::kBca, faults);
      if (test::expect_proof_matches_merge(
              a, b, names, std::string(fault) + "/" + spec.name)) {
        ++whole;
      } else {
        ++differing;
      }
    }
    EXPECT_GT(differing, 0u) << fault;  // the fault bites somewhere
  }
  EXPECT_GT(whole, 0u);
}

}  // namespace
}  // namespace crve
