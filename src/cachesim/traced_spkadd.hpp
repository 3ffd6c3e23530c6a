// Address-trace instrumented hash / sliding-hash SpKAdd (the paper's
// Table V pair).
//
// Replays the memory behaviour of Alg. 5/6 (hash) and Alg. 7/8 (sliding
// hash) through the cache simulator to count misses (the paper's Table V
// used Cachegrind): input columns stream sequentially, hash tables are hit
// at the probed slots, and the output streams sequentially. One thread is
// simulated against its fair share of each *shared* hierarchy level
// (capacity / threads; private L1/L2 are not divided), which models T
// threads competing for a shared LLC the same way the paper's table-size
// analysis does (MemAdd = b*T*nnz > M <=> per-thread need > M/T).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cachesim/cache_hierarchy.hpp"
#include "cachesim/cache_model.hpp"
#include "matrix/csc.hpp"

namespace spkadd::cachesim {

struct TraceConfig {
  /// The modeled machine (default: the paper's 32MB Skylake LLC); private
  /// levels are per-thread, shared levels are divided by `threads`.
  HierarchySpec hierarchy{{LevelSpec{"LLC", 32ull << 20, 16, 64, true}}};
  int threads = 48;      ///< threads sharing it (the paper's Skylake run)
  bool sliding = false;  ///< Alg. 7/8 (sliding) vs Alg. 5/6 (plain)
  /// Force the sliding table entry cap (0 = derive from the last level /
  /// threads, as core::detail::table_entry_cap does). Mirrors the x-axis
  /// of Fig. 4.
  std::size_t max_table_entries = 0;
};

/// Per-level, per-phase miss counts of one replay.
struct TraceResult {
  /// The traced levels, outermost-in. A private level no smaller than a
  /// shared level's per-thread share is dropped, so this can be shorter
  /// than the configured hierarchy.
  std::vector<std::string> level_names;
  std::vector<CacheStats> symbolic;  ///< one per level
  std::vector<CacheStats> numeric;   ///< one per level

  [[nodiscard]] std::uint64_t level_misses(std::size_t i) const {
    return symbolic[i].misses + numeric[i].misses;
  }
  [[nodiscard]] std::uint64_t total_misses() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < symbolic.size(); ++i)
      total += level_misses(i);
    return total;
  }
  /// Accesses reaching the innermost level (every probe starts at L1, so
  /// this is the trace length; deeper levels only see upstream misses).
  [[nodiscard]] std::uint64_t total_accesses() const {
    if (symbolic.empty()) return 0;
    return symbolic.front().accesses + numeric.front().accesses;
  }
};

/// Replay hash (or sliding-hash) SpKAdd over `inputs` through the modeled
/// hierarchy and return per-level, per-phase stats. Structural only:
/// values never affect the trace. Deterministic for fixed inputs and
/// config.
TraceResult trace_hash_spkadd(
    std::span<const CscMatrix<std::int32_t, double>> inputs,
    const TraceConfig& config);

}  // namespace spkadd::cachesim
