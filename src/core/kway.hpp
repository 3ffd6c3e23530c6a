// k-way SpKAdd drivers (paper §II-C, §III).
//
// All drivers share the same two-phase shape:
//   1. symbolic — nnz(B(:,j)) per column (hash-based, Alg. 6/7), exclusive
//      scan into the output col_ptr, exact allocation;
//   2. numeric — column-parallel loop filling each output slice with the
//      method's kernel on thread-private scratch.
// The loop is synchronization-free because output slices are disjoint.
// Every method runs a column plan (run_plan): the five single-kernel
// methods one kernel for every chunk, spkadd_hybrid the Fig. 2 surface
// evaluated per nnz-balanced chunk, mixing kernels through the uniform
// ColumnKernel interface.
//
// Primary signatures take borrowed matrix pointers (MatrixPtrs) plus an
// optional Runtime: batched callers fold through these without copying an
// input and with scratch that survives across calls.
// Value-span overloads keep the one-shot convenience API.
#pragma once

#include <span>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "core/symbolic.hpp"
#include "util/prefix_sum.hpp"
#include "util/thread_control.hpp"

namespace spkadd::core {

namespace detail {

/// Run a column plan: the symbolic pass, exact allocation, then the
/// chunk-parallel numeric pass, each chunk under its own kernel. `R` must
/// hold the costs the plan was built from (ensure_costs); the call uses
/// them up.
template <class IndexT, class ValueT>
CscMatrix<IndexT, ValueT> run_plan(MatrixPtrs<IndexT, ValueT> inputs,
                                   const Options& opts,
                                   const HybridPlan<IndexT>& plan,
                                   Runtime<IndexT, ValueT>& R) {
  const auto [rows, cols] = check_conformant(inputs);
  const std::vector<IndexT> counts =
      symbolic_nnz_per_plan(inputs, opts, plan, R);
  // Grow every thread's scratch to the numeric loop's largest need: the
  // heaviest output column on top of the symbolic pass's (deterministic
  // scratch, see ScratchNeed).
  ScratchNeed need = scratch_need(std::span<const ColumnKernel>(plan.kernels),
                                  rows, opts, R.max_col_cost, inputs.size());
  need.max_out = static_cast<std::size_t>(
      counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end()));
  R.reserve(opts.threads > 0 ? opts.threads : util::current_max_threads(),
            need);
  CscMatrix<IndexT, ValueT> out(rows, cols);  // exact allocation
  out.set_structure(util::counts_to_offsets(std::span<const IndexT>(counts)));
  auto* out_rows = out.mutable_row_idx().data();
  auto* out_vals = out.mutable_values().data();
  const auto cp = out.col_ptr();

  KernelEnv<IndexT> env;
  env.rows = rows;
  env.num_cap = table_entry_cap(opts, sizeof(IndexT) + sizeof(ValueT));
  env.inputs_sorted = opts.inputs_sorted;
  env.sorted_output = opts.sorted_output;
  for_each_chunk(
      std::span<const std::pair<IndexT, IndexT>>(plan.chunks), opts,
      [&](std::size_t ci, OpCounters* c) {
        auto& s = R.scratch[static_cast<std::size_t>(omp_get_thread_num())];
        const ColumnKernel kernel = plan.kernels[ci];
        for (IndexT j = plan.chunks[ci].first; j < plan.chunks[ci].second;
             ++j) {
          gather_views(inputs, j, s.views);
          const auto lo =
              static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
          const auto expected = static_cast<std::size_t>(
              cp[static_cast<std::size_t>(j) + 1] -
              cp[static_cast<std::size_t>(j)]);
          kernel_numeric_column(
              kernel, std::span<const ColumnView<IndexT, ValueT>>(s.views),
              expected, env, s, out_rows + lo, out_vals + lo, c);
        }
      });
  if (opts.counters)
    opts.counters->bytes_moved +=
        streamed_bytes<IndexT, ValueT>(total_nnz(inputs), out.nnz());
  R.forget_costs();
  return out;
}

}  // namespace detail

/// The single-kernel methods: one ColumnKernel for every column, chunked
/// to follow Options::schedule (plan_single). Heap (Alg. 3) requires
/// sorted inputs and emits sorted columns; Spa (Alg. 4) and DenseAcc keep
/// O(T*m) scratch — the SPA weakness the paper's Fig. 3 exposes at high
/// thread counts, which the dense kernel's bitmap offsets with
/// sorted-by-construction emission; Hash (Alg. 5) sizes each table to
/// nnz(B(:,j)); SlidingHash (Alg. 7/8) partitions symbolic tables by input
/// nnz and numeric tables by output nnz (2-3x smaller when cf > 1, the
/// effect the paper highlights for Eukarya), slicing row ranges by binary
/// search on sorted inputs and by filtering otherwise. Hash-family, SPA
/// and dense kernels accept unsorted inputs; hash and SPA output is sorted
/// iff requested.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_with_kernel(
    ColumnKernel kernel, MatrixPtrs<IndexT, ValueT> inputs,
    const Options& opts = {}, Runtime<IndexT, ValueT>* rt = nullptr) {
  const IndexT cols = detail::check_conformant(inputs).second;
  if (kernel == ColumnKernel::Heap) {
    if (!opts.inputs_sorted)
      throw std::invalid_argument("spkadd_heap: requires sorted inputs");
    detail::require_sorted_inputs(inputs, "spkadd_heap");
  }
  Runtime<IndexT, ValueT> local;
  Runtime<IndexT, ValueT>& R = rt ? *rt : local;
  detail::ensure_costs(inputs, opts, R,
                       opts.schedule == Schedule::NnzBalanced);
  HybridPlan<IndexT> plan;
  plan_single(kernel, cols, std::span<const std::uint64_t>(R.col_costs),
              opts, plan);
  return detail::run_plan(inputs, opts, plan, R);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_heap(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  return spkadd_with_kernel(ColumnKernel::Heap, inputs, opts, rt);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_spa(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  return spkadd_with_kernel(ColumnKernel::Spa, inputs, opts, rt);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hash(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  return spkadd_with_kernel(ColumnKernel::Hash, inputs, opts, rt);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_sliding_hash(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  return spkadd_with_kernel(ColumnKernel::SlidingHash, inputs, opts, rt);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_denseacc(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  return spkadd_with_kernel(ColumnKernel::DenseAcc, inputs, opts, rt);
}

/// Method::Hybrid driver: evaluate the Fig. 2 decision surface per
/// nnz-balanced column chunk instead of per call. The per-column input-nnz
/// totals (computed once by the caller's cost scan, or here when absent)
/// are cut into cost-balanced chunks; each chunk is classified
/// (plan_hybrid) and both phases then run chunk-parallel, every chunk
/// under its own kernel through the uniform ColumnKernel interface. Every
/// thread's scratch is sized for the kernels the plan uses — nothing for
/// kernels it never dispatches. Bit-identical to every single-kernel
/// method: all kernels accumulate equal-row values strictly left to right
/// over the inputs.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hybrid(
    MatrixPtrs<IndexT, ValueT> inputs, const Options& opts = {},
    Runtime<IndexT, ValueT>* rt = nullptr) {
  const IndexT rows = detail::check_conformant(inputs).first;
  Runtime<IndexT, ValueT> local;
  Runtime<IndexT, ValueT>& R = rt ? *rt : local;
  // The plan feeds on the cost vector regardless of schedule; reuse the
  // caller's scan when it is already sized for these columns.
  detail::ensure_costs(inputs, opts, R, true);
  HybridPlan<IndexT> plan;
  plan_hybrid<IndexT, ValueT>(
      std::span<const std::uint64_t>(R.col_costs), rows, inputs.size(), opts,
      plan);
  if (plan.uses(ColumnKernel::Heap))
    detail::require_sorted_inputs(inputs, "spkadd_hybrid");
  if (opts.counters)
    for (const ColumnKernel k : plan.kernels) count_chunk(*opts.counters, k);
  return detail::run_plan(inputs, opts, plan, R);
}

// Value-span convenience overloads: borrow the matrices and forward.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_heap(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  return spkadd_heap(
      MatrixPtrs<IndexT, ValueT>(detail::borrowed(inputs)), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_spa(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  return spkadd_spa(
      MatrixPtrs<IndexT, ValueT>(detail::borrowed(inputs)), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hash(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  return spkadd_hash(
      MatrixPtrs<IndexT, ValueT>(detail::borrowed(inputs)), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_sliding_hash(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  return spkadd_sliding_hash(
      MatrixPtrs<IndexT, ValueT>(detail::borrowed(inputs)), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_denseacc(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  return spkadd_denseacc(
      MatrixPtrs<IndexT, ValueT>(detail::borrowed(inputs)), opts);
}

template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_hybrid(
    std::span<const CscMatrix<IndexT, ValueT>> inputs,
    const Options& opts = {}) {
  return spkadd_hybrid(
      MatrixPtrs<IndexT, ValueT>(detail::borrowed(inputs)), opts);
}

}  // namespace spkadd::core
