// Unified SpKAdd entry point.
//
//   CscMatrix<> B = core::spkadd(inputs);                    // Auto policy
//   CscMatrix<> B = core::spkadd(inputs, {.method = Method::SlidingHash});
//
// Method::Auto implements the decision surface of the paper's Fig. 2:
// hash-family methods win everywhere at k >= 8; the only question is plain
// hash vs sliding hash, decided by whether all threads' numeric-phase hash
// tables fit in the last-level cache. For tiny k on skewed inputs the 2-way
// tree/heap corner of Fig. 2 is honored.
//
// Method::Hybrid evaluates the same surface PER nnz-balanced column chunk
// (spkadd_hybrid in kway.hpp): one dense hub column no longer drags every
// sparse column onto sliding hash — each chunk runs its own Fig. 2-optimal
// kernel, bit-identically to any single-kernel run.
//
// The Auto prescan (max per-column input nnz) runs as one parallel pass
// whose result lands in the call's Runtime (with the per-column totals
// when the nnz-balanced schedule or Hybrid's plan reads them), where the
// drivers reuse it — the scan is paid once per call, not once per
// consumer.
#pragma once

#include <span>

#include "core/kway.hpp"
#include "core/options.hpp"
#include "core/reference_add.hpp"
#include "core/twoway.hpp"
#include "util/cache_info.hpp"
#include "util/thread_control.hpp"

namespace spkadd::core {

/// Pick a concrete method for Method::Auto from a precomputed heaviest
/// column (internal fast path: the caller already owns the cost scan) by
/// the Fig. 2 cache-residency test b * T * max-column nnz > M. Output nnz
/// is approximated by the per-column *input* nnz upper bound
/// (overestimates by at most the compression factor, which only moves
/// the boundary toward sliding hash — the safe direction).
template <class IndexT, class ValueT>
[[nodiscard]] Method auto_select_from_max(std::size_t k, bool inputs_sorted,
                                          std::uint64_t max_col_nnz,
                                          const Options& opts) {
  if (k <= 2 && inputs_sorted) return Method::TwoWayTree;
  const std::size_t b = sizeof(IndexT) + sizeof(ValueT);
  const int threads =
      opts.threads > 0 ? opts.threads : util::current_max_threads();
  const std::size_t llc =
      opts.llc_bytes != 0 ? opts.llc_bytes : util::effective_llc_bytes();
  return b * static_cast<std::size_t>(threads) * max_col_nnz > llc
             ? Method::SlidingHash
             : Method::Hash;
}

/// Pick a concrete method for Method::Auto (exposed for tests/benches).
template <class IndexT, class ValueT>
[[nodiscard]] Method auto_select(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, const Options& opts) {
  return auto_select_from_max<IndexT, ValueT>(
      inputs.size(), opts.inputs_sorted,
      detail::column_input_nnz(inputs, opts, nullptr), opts);
}

/// Add a collection of borrowed conformant sparse matrices:
/// B = sum_i *inputs[i]. The primary entry point: batched callers and
/// snapshot assembly fold through here without copying an input, and a
/// caller-owned Runtime keeps the per-thread scratch and the per-column
/// cost scan alive across calls.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  detail::check_conformant(inputs);
  if (inputs.size() == 1) {
    CscMatrix<IndexT, ValueT> out = *inputs[0];
    if (opts.sorted_output && !out.is_sorted()) out.sort_columns();
    return out;
  }
  Runtime<IndexT, ValueT> local;
  Runtime<IndexT, ValueT>& R = rt ? *rt : local;
  R.forget_costs();  // never let a previous call's totals leak downstream
  Method method = opts.method;
  // Fig. 2's 2-way corner needs no column scan; resolve it first so tiny-k
  // Auto calls stay O(1) in dispatch.
  if (method == Method::Auto && inputs.size() <= 2 && opts.inputs_sorted)
    method = Method::TwoWayTree;
  // One parallel scan serves the column-kernel methods: its max decides
  // Auto and bounds every thread's symbolic scratch; the per-column
  // totals are stored only for their readers, the balanced schedule and
  // Hybrid's plan. TwoWay*/Reference* read neither.
  const bool column_method =
      method == Method::Auto || method == Method::Heap ||
      method == Method::Spa || method == Method::Hash ||
      method == Method::SlidingHash || method == Method::DenseAcc ||
      method == Method::Hybrid;
  if (column_method) {
    detail::ensure_costs(inputs, opts, R,
                         method == Method::Hybrid ||
                             opts.schedule == Schedule::NnzBalanced);
    if (method == Method::Auto)
      method = auto_select_from_max<IndexT, ValueT>(
          inputs.size(), opts.inputs_sorted, R.max_col_cost, opts);
  }
  switch (method) {
    case Method::TwoWayIncremental:
      return spkadd_twoway_incremental(inputs, opts);
    case Method::TwoWayTree:
      return spkadd_twoway_tree(inputs, opts);
    case Method::Heap:
      return spkadd_heap(inputs, opts, &R);
    case Method::Spa:
      return spkadd_spa(inputs, opts, &R);
    case Method::Hash:
      return spkadd_hash(inputs, opts, &R);
    case Method::SlidingHash:
      return spkadd_sliding_hash(inputs, opts, &R);
    case Method::DenseAcc:
      return spkadd_denseacc(inputs, opts, &R);
    case Method::Hybrid:
      return spkadd_hybrid(inputs, opts, &R);
    case Method::ReferenceIncremental:
      return spkadd_reference_incremental(inputs);
    case Method::ReferenceTree:
      return spkadd_reference_tree(inputs);
    case Method::Auto:
      break;  // unreachable: resolved above
  }
  throw std::logic_error("spkadd: unresolved method");
}

/// Add a collection of conformant sparse matrices: B = sum_i inputs[i].
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  return spkadd(
      MatrixPtrs<IndexT, ValueT>(detail::borrowed(inputs)), opts);
}

/// Convenience overload for a vector of matrices.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd(
    const std::vector<CscMatrix<IndexT, ValueT>>& inputs,
    const Options& opts = {}) {
  return spkadd(std::span<const CscMatrix<IndexT, ValueT>>(inputs), opts);
}

}  // namespace spkadd::core
