// Per-layer probes of the traced run. Each one drives a single layer's
// public entry point on the workload's own inputs, wraps every call in a
// span, and writes the layer's metrics into the result. None of them runs
// in an untraced (end-to-end) run.
#pragma once

#include <span>

#include "common.hpp"

namespace perfbench {

/// gen.*: what the workload generated, against the detected LLC.
void report_gen(std::size_t input_nnz, std::size_t input_bytes, Result& r);

/// core.*: symbolic phase, the default Auto call, the Auto call without
/// the final sort, every kernel forced, the Hybrid dispatch mix, the
/// operation counters, a copy-bandwidth probe on an array >= 4x the LLC
/// and the single-thread Auto baseline, all on `addends`.
void probe_core(std::span<const Csc> addends, Result& r);

/// core.acc.*: stream `addends` through one default Accumulator (reading
/// partial_sum() after every `read_every` adds, 0 = never) and finalize,
/// repeating the stream until at least `min_flushes` folds were timed.
void probe_accumulator(std::span<const Csc> addends, std::size_t read_every,
                       std::size_t min_flushes, Result& r);

/// service.*, net.* and loadgen.*: a short in-process daemon run and the
/// in-process service probe with `pool` as the updates (daemon.cpp).
void probe_daemon_layers(std::span<const Csc> pool, Result& r);

}  // namespace perfbench
