// VCD (Value Change Dump, IEEE 1364) writer.
//
// Implements sim::Tracer: after each settled cycle it emits value changes
// for the signals the kernel reports as changed. The writer is an artifact
// sink: the regression tool dumps one VCD per (model view, test, seed) run
// for a human or an external viewer, while its own alignment reads the
// in-process vcd::Recorder instead of parsing the dump back (DESIGN.md §9).
//
// The emit path is change-driven and allocation-free per cycle: id codes
// are precomputed at header time, values are formatted into a reusable
// scratch buffer via SignalBase::append_vcd, and output is staged in a
// write buffer flushed in large chunks. The byte stream is identical to a
// naive per-cycle full-scan writer (tests/test_trace_path.cpp checks this).
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/context.h"

namespace crve::vcd {

class Writer : public sim::Tracer {
 public:
  // Writes to an externally owned stream.
  explicit Writer(std::ostream& os);
  // Opens and owns a file stream; throws on failure.
  explicit Writer(const std::string& path);
  ~Writer() override;

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void sample(std::uint64_t cycle,
              const std::vector<sim::SignalBase*>& signals,
              const std::vector<int>& changed) override;

  // Flushes the write buffer and the underlying stream (done automatically
  // on destruction).
  void finish();

  // VCD identifier code for the i-th declared variable.
  static std::string id_code(int index);

 private:
  void write_header(const std::vector<sim::SignalBase*>& signals);
  // Emits signal `index` if its current value differs from the last
  // emitted one; lazily writes the `#cycle` marker first.
  void emit_if_changed(std::uint64_t cycle, int index,
                       const sim::SignalBase& sig, bool& time_emitted);
  void flush_buffer();

  // Publishes bytes/changes/signals-touched counters into the obs metrics
  // registry (once, from finish()).
  void publish_metrics();

  std::unique_ptr<std::ofstream> owned_;
  std::ostream& os_;
  bool header_done_ = false;
  bool metrics_published_ = false;
  std::uint64_t bytes_flushed_ = 0;   // bytes handed to the stream
  std::uint64_t value_changes_ = 0;   // change lines emitted (snapshot incl.)
  std::string buf_;                // staged output, flushed in chunks
  std::string scratch_;            // reusable value-formatting buffer
  std::vector<std::string> last_;  // last emitted value per signal
  std::vector<std::string> ids_;   // cached id_code per signal index
};

}  // namespace crve::vcd
