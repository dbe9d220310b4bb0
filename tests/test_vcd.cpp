// Unit tests for the VCD text writer (excerpt.h) and parser pair.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "sim/context.h"
#include "vcd/excerpt.h"
#include "vcd/parser.h"
#include "vcd/recorder.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve::vcd {
namespace {

// Steps `ctx` `cycles` times under a recorder and returns the recorded run
// as a full VCD wave.
std::string record_wave(sim::Context& ctx, int cycles) {
  Recorder rec;
  ctx.attach_tracer(&rec);
  ctx.step(cycles);
  std::ostringstream os;
  write_wave(rec.trace(), os);
  return os.str();
}

TEST(VcdWriter, IdCodes) {
  EXPECT_EQ(id_code(0), "!");
  EXPECT_EQ(id_code(93), "~");
  EXPECT_EQ(id_code(94), "!\"");
  EXPECT_NE(id_code(94 * 94), id_code(94));
}

TEST(VcdRoundTrip, SignalsRecoverable) {
  sim::Context ctx;
  sim::SignalBool req(ctx, "tb.p0.req");
  sim::SignalU64 add(ctx, "tb.p0.add", 16);
  sim::SignalBits data(ctx, "tb.p0.data", 32);
  ctx.add_clocked("drv", [&] {
    const auto c = ctx.cycle();
    req.write(c % 2 == 1);
    add.write(c * 0x111);
    data.write(crve::Bits(32, 0xa0000000u + c));
  });
  std::istringstream is(record_wave(ctx, 5));
  const Trace t = Trace::parse(is);
  ASSERT_EQ(t.vars().size(), 3u);
  const int vreq = *t.find("tb.p0.req");
  const int vadd = *t.find("tb.p0.add");
  const int vdata = *t.find("tb.p0.data");
  EXPECT_EQ(t.value_at(vreq, 0).text(), "0");
  EXPECT_EQ(t.value_at(vreq, 1).text(), "1");
  EXPECT_EQ(t.value_at(vreq, 2).text(), "0");
  EXPECT_EQ(t.value_at(vadd, 3).text(),
            crve::Bits(16, 3 * 0x111).to_bin_string());
  EXPECT_EQ(t.value_at(vdata, 5).text(),
            crve::Bits(32, 0xa0000005u).to_bin_string());
  EXPECT_EQ(t.max_time(), 5u);
}

TEST(VcdRoundTrip, HoldsLastValueBetweenChanges) {
  sim::Context ctx;
  sim::SignalU64 v(ctx, "tb.v", 8);
  ctx.add_clocked("drv", [&] {
    if (ctx.cycle() == 2) v.write(7);  // single change at cycle 2
  });
  std::istringstream is(record_wave(ctx, 6));
  const Trace t = Trace::parse(is);
  const int vi = *t.find("tb.v");
  EXPECT_EQ(t.value_at(vi, 0).text(), "00000000");
  EXPECT_EQ(t.value_at(vi, 1).text(), "00000000");
  EXPECT_EQ(t.value_at(vi, 2).text(), "00000111");
  EXPECT_EQ(t.value_at(vi, 5).text(), "00000111");
  EXPECT_EQ(t.value_at(vi, 100).text(), "00000111");  // beyond max_time
}

TEST(VcdParser, ScopesRebuildDottedNames) {
  const char* dump =
      "$timescale 1ns $end\n"
      "$scope module tb $end\n"
      "$scope module sub $end\n"
      "$var wire 1 ! sig $end\n"
      "$upscope $end\n"
      "$var wire 4 \" other $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n"
      "#0\n1!\nb1010 \"\n";
  std::istringstream is(dump);
  const Trace t = Trace::parse(is);
  ASSERT_EQ(t.vars().size(), 2u);
  EXPECT_EQ(t.vars()[0].name, "tb.sub.sig");
  EXPECT_EQ(t.vars()[1].name, "tb.other");
  EXPECT_EQ(t.value_at(0, 0).text(), "1");
  EXPECT_EQ(t.value_at(1, 0).text(), "1010");
}

TEST(VcdParser, NormalizesWidthAndXZ) {
  const char* dump =
      "$enddefinitions $end\n"
      "#0\nbxz1 !\n";
  // Variable declared out-of-band is an error; declare it first.
  const std::string full = std::string("$var wire 6 ! v $end\n") + dump;
  std::istringstream is(full);
  const Trace t = Trace::parse(is);
  EXPECT_EQ(t.value_at(0, 0).text(), "000001");
}

TEST(VcdParser, FindRejectsAmbiguousSuffix) {
  const char* dump =
      "$scope module a $end\n"
      "$var wire 1 ! req $end\n"
      "$upscope $end\n"
      "$scope module b $end\n"
      "$var wire 1 \" req $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n";
  std::istringstream is(dump);
  const Trace t = Trace::parse(is);
  EXPECT_FALSE(t.find("req").has_value());
  EXPECT_TRUE(t.find("a.req").has_value());
}

TEST(VcdParser, UnknownIdThrows) {
  const char* dump =
      "$var wire 1 ! v $end\n"
      "$enddefinitions $end\n"
      "#0\n1?\n";
  std::istringstream is(dump);
  EXPECT_THROW(Trace::parse(is), std::runtime_error);
}

// IEEE 1364 aliases: several $vars may share one id code, and every one
// of them carries each change of that id.
TEST(VcdParser, AliasedIdsFeedEveryVar) {
  const char* dump =
      "$scope module tb $end\n"
      "$var wire 1 ! a $end\n"
      "$var wire 1 ! b $end\n"
      "$var wire 4 \" c $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n"
      "#0\n1!\nb11 \"\n#3\n0!\n";
  std::istringstream is(dump);
  const Trace t = Trace::parse(is);
  ASSERT_EQ(t.vars().size(), 3u);
  for (const char* name : {"tb.a", "tb.b"}) {
    const int v = *t.find(name);
    EXPECT_EQ(t.vars()[static_cast<std::size_t>(v)].id, "!");
    ASSERT_EQ(t.changes(v).size(), 2u) << name;
    EXPECT_EQ(t.value_at(v, 0).text(), "1") << name;
    EXPECT_EQ(t.value_at(v, 3).text(), "0") << name;
  }
  EXPECT_EQ(t.value_at(*t.find("tb.c"), 5).text(), "0011");
}

// Hostile input: each malformed token ends in a named vcd::Trace
// diagnostic that quotes it, never a bare library exception or a huge
// allocation.
void expect_diagnostic(const std::string& dump, const std::string& token) {
  std::istringstream is(dump);
  try {
    Trace::parse(is);
    ADD_FAILURE() << "accepted: " << dump;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("vcd::Trace: ", 0), 0u) << what;
    EXPECT_NE(what.find(token), std::string::npos) << what;
  }
}

TEST(VcdParserHostile, NonNumericWidth) {
  expect_diagnostic("$var wire wide ! v $end\n$enddefinitions $end\n",
                    "'wide'");
  expect_diagnostic("$var wire 8x ! v $end\n$enddefinitions $end\n", "'8x'");
}

TEST(VcdParserHostile, ZeroOrNegativeWidth) {
  expect_diagnostic("$var wire 0 ! v $end\n$enddefinitions $end\n", "'0'");
  expect_diagnostic("$var wire -3 ! v $end\n$enddefinitions $end\n", "'-3'");
}

TEST(VcdParserHostile, WidthAboveCap) {
  expect_diagnostic("$var wire 2000000000 ! v $end\n$enddefinitions $end\n",
                    "'2000000000'");
  const std::string over = std::to_string(Trace::kMaxWidth + 1);
  expect_diagnostic("$var wire " + over + " ! v $end\n$enddefinitions $end\n",
                    "'" + over + "'");
  // The cap itself is accepted.
  std::istringstream is("$var wire " + std::to_string(Trace::kMaxWidth) +
                        " ! v $end\n$enddefinitions $end\n#0\nb1 !\n");
  const Trace t = Trace::parse(is);
  EXPECT_EQ(t.value_at(0, 0).text().size(),
            static_cast<std::size_t>(Trace::kMaxWidth));
}

// A short token can stand for a wide value: 2000 "b1 !" changes of one
// 65536-bit variable are 21 KB of text for 16 MB of values. The log is
// bounded linearly in the input size instead, and the diagnostic names the
// variable and the time that crossed the bound.
TEST(VcdParserHostile, WideValuesBoundedByInputSize) {
  std::string dump = "$var wire 65536 ! wide $end\n$enddefinitions $end\n";
  for (int t = 0; t < 2000; ++t) {
    dump += "#" + std::to_string(t) + "\nb1 !\n";
  }
  expect_diagnostic(dump, "$var wide at #");
  // Values spelled out at full width cost their size in text and parse.
  std::string full = "$var wire 65536 ! wide $end\n$enddefinitions $end\n";
  for (int t = 0; t < 8; ++t) {
    full += "#" + std::to_string(t) + "\nb" +
            std::string(static_cast<std::size_t>(Trace::kMaxWidth),
                        t % 2 ? '1' : '0') +
            " !\n";
  }
  std::istringstream is(full);
  EXPECT_EQ(Trace::parse(is).change_count(0), 8u);
}

TEST(VcdParserHostile, InvalidValueCharacter) {
  expect_diagnostic(
      "$var wire 4 ! v $end\n$enddefinitions $end\n#3\nb1021 !\n", "'1021'");
  expect_diagnostic("$var wire 1 ! v $end\n$enddefinitions $end\n#3\nb? !\n",
                    "'?'");
}

// Changes that share a time enter the log in variable order, whatever
// order the dump lists them in; changes of one variable keep theirs.
TEST(VcdParser, SameTimeChangesOrderedByVariable) {
  const std::string head =
      "$var wire 1 ! a $end\n$var wire 4 \" b $end\n$enddefinitions $end\n";
  std::istringstream x(head + "#0\nb11 \"\n1!\n#4\n0!\nb1 \"\nb10 \"\n");
  std::istringstream y(head + "#0\n1!\nb11 \"\n#4\nb1 \"\n0!\nb10 \"\n");
  const Trace tx = Trace::parse(x);
  const Trace ty = Trace::parse(y);
  EXPECT_TRUE(tx == ty);
  EXPECT_EQ(tx.value_at(1, 4).text(), "0010");
  std::ostringstream wx, wy;
  write_wave(tx, wx);
  write_wave(ty, wy);
  EXPECT_EQ(wx.str(), wy.str());
}

TEST(VcdParserHostile, NonNumericTime) {
  expect_diagnostic("$var wire 1 ! v $end\n$enddefinitions $end\n#1x\n1!\n",
                    "'#1x'");
  expect_diagnostic("$var wire 1 ! v $end\n$enddefinitions $end\n#\n1!\n",
                    "'#'");
}

TEST(VcdParserHostile, TimeGoingBackwards) {
  expect_diagnostic(
      "$var wire 1 ! v $end\n$enddefinitions $end\n#5\n1!\n#3\n0!\n", "'#3'");
  // Repeating a time is not going backwards.
  std::istringstream is(
      "$var wire 1 ! v $end\n$enddefinitions $end\n#5\n1!\n#5\n0!\n");
  EXPECT_EQ(Trace::parse(is).value_at(0, 5).text(), "0");
}

TEST(VcdParserHostile, TimeWithoutASuccessor) {
  // Every consumer spans max_time() + 1 cycles, which this time wraps to 0.
  expect_diagnostic(
      "$var wire 1 ! v $end\n$enddefinitions $end\n#0\n1!\n"
      "#18446744073709551615\n",
      "'#18446744073709551615'");
  // One below still has a successor.
  std::istringstream is(
      "$var wire 1 ! v $end\n$enddefinitions $end\n#0\n1!\n"
      "#18446744073709551614\n");
  EXPECT_EQ(Trace::parse(is).max_time(), 18446744073709551614u);
}

TEST(VcdWriter, EmitsOnlyChanges) {
  sim::Context ctx;
  sim::SignalBool s(ctx, "tb.s");
  // The signal never changes after init.
  const std::string text = record_wave(ctx, 10);
  // One time marker (cycle 0 initial dump) and no further change lines.
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_EQ(text.find("#5"), std::string::npos);
}

// A failed write (here: a full device) ends in a diagnostic naming the
// path, for the full wave a Testbench writes and for an excerpt, instead of
// a silently truncated file.
TEST(VcdWriter, FullDeviceIsDiagnosed) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << full << " is absent";
  auto expect_names_path = [&](const auto& write) {
    try {
      write();
      ADD_FAILURE() << "no diagnostic for " << full;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("vcd: cannot write " + full),
                std::string::npos)
          << e.what();
    }
  };

  stbus::NodeConfig cfg;
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 5;
  verif::TestbenchOptions opts;
  opts.vcd_path = full;
  Recorder rec;
  opts.recorder = &rec;
  verif::Testbench tb(cfg, spec, opts);
  expect_names_path([&] { tb.run(); });

  const Trace trace = rec.take();
  ASSERT_GT(trace.max_time(), 0u);
  expect_names_path(
      [&] { write_excerpt_file(trace, 0, trace.max_time(), full); });
}

}  // namespace
}  // namespace crve::vcd
