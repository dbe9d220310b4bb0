// Traced side of the benchmark: a serial runner that runs a workload's jobs
// one at a time through each layer's public calls, records a span around
// every call, and reports the per-layer ledger.
#pragma once

#include "workload.h"

namespace cbench {

// The trace-1 run; returns the process exit code.
int run_traced(const Workload& w, double seconds);

}  // namespace cbench
