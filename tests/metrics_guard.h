// Scoped metrics collection for tests.
#pragma once

#include "obs/metrics.h"

namespace crve::test {

// Every test that enables collection must leave the process-wide registry
// disabled and zeroed, so unrelated tests stay unaffected.
struct MetricsGuard {
  MetricsGuard() {
    obs::registry().reset();
    obs::set_metrics_enabled(true);
  }
  ~MetricsGuard() {
    obs::set_metrics_enabled(false);
    obs::registry().reset();
  }
};

}  // namespace crve::test
