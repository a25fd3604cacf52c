// The three workloads. Each runs its set-up several times (setup_s is the
// median), then either measures its ops untraced for the end-to-end
// metrics or, with --trace 1, runs the traced phases and probes that give
// the per-layer metrics. See README.md for why each workload exists.
#pragma once

#include "common.h"

namespace perfbench {

void run_anaheim_beta(const Options& o, Report& rep);
void run_anaheim_assign(const Options& o, Report& rep);
void run_sweep_grid(const Options& o, Report& rep);

}  // namespace perfbench
