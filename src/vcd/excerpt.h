// VCD text output: the one place that formats a vcd::Trace as VCD.
//
// Both outputs are a window [begin, end] of an already recorded or parsed
// Trace, written as a standalone, well-formed VCD: header (scope tree
// rebuilt from the dotted names, original identifier codes preserved), a
// snapshot of every variable's settled value at `begin`, then the in-window
// changes in (time, variable) order. The Trace's change log already holds
// that order, so both come from one walk of it, with no per-variable index
// and no merge. This is where recorded values become VCD text. Output is
// staged and handed to the stream in large chunks, never built as one
// string.
//
//   - write_wave: the full wave, [0, max_time] under the dump header. The
//     verif::Testbench writes a run's `vcd_path`/`vcd_stream` this way once
//     the run ends, from the same vcd::Recorder trace alignment reads; its
//     bytes equal a per-cycle full-scan VCD writer's (tests/
//     test_trace_path.cpp holds that over every shipped config).
//   - write_excerpt: a slice under an excerpt header naming the window, with
//     a final `#end` time marker so the extent is explicit even when the
//     last in-window cycle is quiet. The triage path (stba::Triage) cuts one
//     around the first divergence of a failing run — both views, same
//     window — so the artifact a human opens is kilobytes, not the full
//     dump.
//
// Both parse back through vcd::Trace::parse (tests round-trip them).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "vcd/parser.h"

namespace crve::vcd {

// Writes the whole of `trace` as a VCD dump to `os` and returns the bytes
// handed to the stream. Publishes the vcd.dumps / vcd.bytes_flushed /
// vcd.value_changes / vcd.signals_{declared,touched} counters when metrics
// collection is on.
std::uint64_t write_wave(const Trace& trace, std::ostream& os);

// Writes the excerpt of `trace` covering [begin, end] to `os`. `end` is
// clamped to the trace's last change time; `begin` past that yields a
// snapshot-only excerpt. begin > end (after clamping) is a no-op header +
// snapshot at `begin`.
void write_excerpt(const Trace& trace, std::uint64_t begin, std::uint64_t end,
                   std::ostream& os);

// Same, to a file; throws std::runtime_error naming `path` when the file
// cannot be opened or a write to it fails.
void write_excerpt_file(const Trace& trace, std::uint64_t begin,
                        std::uint64_t end, const std::string& path);

// Flushes `os` and throws std::runtime_error("vcd: cannot write <what>")
// when any write to it failed, so a full disk is diagnosed instead of
// leaving a silently truncated wave.
void check_written(std::ostream& os, const std::string& what);

}  // namespace crve::vcd
