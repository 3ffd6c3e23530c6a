// Thread-private scratch spaces reused across columns.
//
// The paper's parallelization (§III-A) keeps one data structure per thread —
// heap of size k, SPA of size m, hash table sized to the current column —
// and the per-column kernels run sequentially on that private scratch.
// Reusing the scratch across columns is what keeps the hash tables hot in
// cache; the SPA avoids O(m) clearing per column with generation stamps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "matrix/column_view.hpp"
#include "util/bit_ops.hpp"

namespace spkadd::core {

/// Hash-table scratch for the numeric phase: open addressing with linear
/// probing, keys = row indices (kEmpty = free slot). Sized per column to the
/// smallest power of two > nnz(B(:,j)) as in Alg. 5.
template <class IndexT, class ValueT>
struct HashWorkspace {
  static constexpr IndexT kEmpty = static_cast<IndexT>(-1);

  std::vector<IndexT> keys;
  std::vector<ValueT> vals;
  std::size_t mask = 0;

  /// Prepare a table with `entries` slots (must be a power of two). Only
  /// grows the backing store; re-initializes exactly `entries` slots, which
  /// is the O(table) init the paper charges to the hash algorithm.
  void reset(std::size_t entries) {
    if (keys.size() < entries) {
      keys.resize(entries);
      vals.resize(entries);
    }
    std::fill(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(entries),
              kEmpty);
    mask = entries - 1;
  }

  [[nodiscard]] std::size_t capacity() const { return mask + 1; }
};

/// Symbolic-phase hash scratch: keys only (the paper notes the symbolic
/// table stores indices only, b = 4 bytes).
template <class IndexT>
struct SymbolicHashWorkspace {
  static constexpr IndexT kEmpty = static_cast<IndexT>(-1);

  std::vector<IndexT> keys;
  std::size_t mask = 0;

  void reset(std::size_t entries) {
    if (keys.size() < entries) keys.resize(entries);
    std::fill(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(entries),
              kEmpty);
    mask = entries - 1;
  }

  [[nodiscard]] std::size_t capacity() const { return mask + 1; }
};

/// Sparse accumulator (Alg. 4): dense value array of length m plus the list
/// of touched rows. Generation stamps make new_column() O(1) instead of
/// clearing m entries.
template <class IndexT, class ValueT>
struct SpaWorkspace {
  std::vector<ValueT> values;
  std::vector<std::uint32_t> stamp;
  std::vector<IndexT> touched;
  std::uint32_t generation = 0;

  /// Allocate for matrices with `rows` rows (idempotent).
  void ensure_rows(std::size_t rows) {
    if (values.size() < rows) {
      values.resize(rows);
      stamp.resize(rows, 0);
      generation = 0;
      std::fill(stamp.begin(), stamp.end(), 0u);
    }
  }

  /// Begin accumulating a fresh column.
  void new_column() {
    touched.clear();
    ++generation;
    if (generation == 0) {  // stamp wrap-around: hard reset
      std::fill(stamp.begin(), stamp.end(), 0u);
      generation = 1;
    }
  }

  [[nodiscard]] bool occupied(IndexT r) const {
    return stamp[static_cast<std::size_t>(r)] == generation;
  }

  /// Add v at row r, tracking first touches.
  void add(IndexT r, ValueT v) {
    const auto ri = static_cast<std::size_t>(r);
    if (stamp[ri] == generation) {
      values[ri] += v;
    } else {
      stamp[ri] = generation;
      values[ri] = v;
      touched.push_back(r);
    }
  }
};

/// Dense-accumulator scratch for the DenseAcc kernel: a dense value array
/// of length m plus an occupancy bitmap (one bit per row). The bitmap
/// replaces both the SPA's generation stamps *and* its touched list —
/// sorted emission is a word scan with popcount/ctz, so no radix sort is
/// ever needed. The kernel's contract is that `mask` is all-zero between
/// columns: every column pass clears exactly the words it set.
template <class ValueT>
struct DenseAccWorkspace {
  std::vector<ValueT> values;
  std::vector<std::uint64_t> mask;

  /// Allocate for matrices with `rows` rows (idempotent). New mask words
  /// start zero, establishing the all-clear invariant.
  void ensure_rows(std::size_t rows) {
    if (values.size() < rows) values.resize(rows);
    const std::size_t words = (rows + 63) / 64;
    if (mask.size() < words) mask.resize(words, 0);
  }
};

/// Min-heap scratch for Alg. 3: array-based binary heap of (row, source)
/// pairs plus one cursor per input column. Values are read through the
/// cursor on extraction, so the heap nodes stay 8 bytes.
template <class IndexT>
struct HeapWorkspace {
  struct Node {
    IndexT row;
    std::int32_t source;
  };
  std::vector<Node> nodes;
  std::vector<std::size_t> cursor;

  void ensure_k(std::size_t k) {
    if (nodes.capacity() < k) nodes.reserve(k);
    if (cursor.size() < k) cursor.resize(k);
  }
};

/// Size of the hash table allocated for `need` distinct keys. Alg. 5 line 2
/// asks for "a power of two greater than nnz"; taken literally that allows
/// load factors arbitrarily close to 1 (e.g. 1023 keys in 1024 slots), where
/// linear probing degenerates and the O(1)-probe analysis of Table I breaks.
/// We therefore size at the smallest power of two >= 2*need, guaranteeing a
/// load factor <= 0.5 — the standard engineering reading of the algorithm.
[[nodiscard]] inline std::size_t hash_table_entries(std::size_t need) {
  return static_cast<std::size_t>(util::next_pow2(2 * need));
}

/// The largest per-column requirement of one column loop. Growing every
/// thread's scratch to it before the loop (Runtime::reserve) makes the
/// pool's size a function of the call's shape alone, never of which thread
/// drew which column, so a persistent Runtime reports the same
/// storage_bytes() after identical calls under any schedule. A zero or
/// false field leaves that scratch alone.
struct ScratchNeed {
  std::size_t k = 0;         ///< addends: view lists, heap, filter bounds
  std::size_t rows = 0;      ///< SPA and dense arrays (when used)
  std::size_t max_in = 0;    ///< heaviest column's input nnz: symbolic tables
  std::size_t max_out = 0;   ///< heaviest output column: numeric tables
  bool spa = false;          ///< SPA arrays + touched list
  bool dense = false;        ///< dense value array + bitmap
  bool filter = false;       ///< sliding over unsorted inputs: filter copies
};

/// Everything one thread needs across any SpKAdd phase: the five method
/// scratch structures plus the view/partition buffers of the symbolic and
/// sliding passes. One superset struct (rather than one per driver) lets a
/// single pool serve symbolic + numeric phases and every method, so
/// repeated calls keep the scratch hot. Members start empty and grow only
/// for the kernels a call's plan uses — e.g. the O(m) SPA array is never
/// allocated for a plan without SPA chunks.
template <class IndexT, class ValueT>
struct ThreadScratch {
  HashWorkspace<IndexT, ValueT> table;
  SymbolicHashWorkspace<IndexT> sym_table;
  SpaWorkspace<IndexT, ValueT> spa;
  HeapWorkspace<IndexT> heap;
  DenseAccWorkspace<ValueT> dense;
  std::vector<ColumnView<IndexT, ValueT>> views;
  std::vector<ColumnView<IndexT, ValueT>> part_views;
  std::vector<IndexT> rows_scratch;
  std::vector<ValueT> vals_scratch;
  std::vector<std::size_t> bounds;

  /// Grow (never shrink) to `n`. Capacity only: memory is touched when a
  /// kernel first uses it, so this costs O(1) allocations per member.
  void reserve(const ScratchNeed& n) {
    views.reserve(n.k);
    part_views.reserve(n.k);
    heap.nodes.reserve(n.k);
    heap.cursor.reserve(n.k);
    sym_table.keys.reserve(n.max_in ? hash_table_entries(n.max_in) : 0);
    table.keys.reserve(n.max_out ? hash_table_entries(n.max_out) : 0);
    table.vals.reserve(n.max_out ? hash_table_entries(n.max_out) : 0);
    if (n.spa) {
      spa.values.reserve(n.rows);
      spa.stamp.reserve(n.rows);
      spa.touched.reserve(n.max_out);
    }
    if (n.dense) {
      dense.values.reserve(n.rows);
      dense.mask.reserve((n.rows + 63) / 64);
    }
    if (n.filter) {
      rows_scratch.reserve(n.max_in);
      vals_scratch.reserve(n.max_in);
      bounds.reserve(n.k + 1);
    }
  }

  /// Bytes of backing storage currently held (footprint reporting and the
  /// no-regrowth reuse tests).
  [[nodiscard]] std::size_t storage_bytes() const {
    return table.keys.capacity() * sizeof(IndexT) +
           table.vals.capacity() * sizeof(ValueT) +
           sym_table.keys.capacity() * sizeof(IndexT) +
           spa.values.capacity() * sizeof(ValueT) +
           spa.stamp.capacity() * sizeof(std::uint32_t) +
           spa.touched.capacity() * sizeof(IndexT) +
           dense.values.capacity() * sizeof(ValueT) +
           dense.mask.capacity() * sizeof(std::uint64_t) +
           heap.nodes.capacity() *
               sizeof(typename HeapWorkspace<IndexT>::Node) +
           heap.cursor.capacity() * sizeof(std::size_t) +
           views.capacity() * sizeof(ColumnView<IndexT, ValueT>) +
           part_views.capacity() * sizeof(ColumnView<IndexT, ValueT>) +
           rows_scratch.capacity() * sizeof(IndexT) +
           vals_scratch.capacity() * sizeof(ValueT) +
           bounds.capacity() * sizeof(std::size_t);
  }
};

/// Per-call execution context that is *reusable across calls*: the
/// per-thread scratch pool and the per-column input-nnz totals driving both
/// the Auto prescan and nnz-balanced scheduling. Drivers accept an optional
/// Runtime; when none is given they fall back to a call-local one. A
/// caller that keeps one (e.g. the streaming SUMMA's local multiplies)
/// keeps its scratch across calls.
template <class IndexT, class ValueT>
struct Runtime {
  std::vector<ThreadScratch<IndexT, ValueT>> scratch;

  /// Per-column sum of input nnz for the *current* call's inputs. Filled by
  /// spkadd()/the drivers when Schedule::NnzBalanced or Method::Hybrid
  /// reads it; sized to the column count or empty.
  std::vector<std::uint64_t> col_costs;
  /// The heaviest column's summed input nnz (max of col_costs when that is
  /// filled): the Auto decision and the symbolic tables' size bound.
  std::uint64_t max_col_cost = 0;
  bool max_known = false;  ///< max_col_cost is the current call's

  /// Drop the current call's costs, keeping the vector's capacity.
  void forget_costs() {
    col_costs.clear();
    max_col_cost = 0;
    max_known = false;
  }

  void ensure_threads(int nthreads) {
    if (scratch.size() < static_cast<std::size_t>(nthreads))
      scratch.resize(static_cast<std::size_t>(nthreads));
  }

  /// Grow the first `nthreads` threads' scratch to `need` (see ScratchNeed).
  void reserve(int nthreads, const ScratchNeed& need) {
    ensure_threads(nthreads);
    for (int t = 0; t < nthreads; ++t)
      scratch[static_cast<std::size_t>(t)].reserve(need);
  }

  /// Bytes of the per-thread scratch pool. The cost vector is per-call
  /// state, filled only when the schedule or plan reads it, and is left
  /// out.
  [[nodiscard]] std::size_t storage_bytes() const {
    std::size_t total = 0;
    for (const auto& s : scratch) total += s.storage_bytes();
    return total;
  }
};

}  // namespace spkadd::core
