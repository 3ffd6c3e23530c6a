// The three workloads. Each one generates its inputs from the seed
// (timed as set-up), checks every output outside the timed region, and
// fills either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). perfbench/README.md describes them.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_oneshot(const RunParams& params);
Result run_stream(const RunParams& params);
Result run_daemon(const RunParams& params);

}  // namespace perfbench
