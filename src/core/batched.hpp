// Batched SpKAdd — the paper's §V extension for memory-constrained settings:
// "we can still arrange input matrices in multiple batches and then use
// SpKAdd for each batch."
//
// A thin wrapper over core::Accumulator: the collection is streamed through
// the accumulator `batch_size` addends at a time, each fold scattering the
// batch into the resident running sum. At most one batch of addends is
// staged at a time instead of all k. Batches are spans of *borrowed* matrix
// pointers: no input matrix is ever copied (tests pin this with the
// CscMatrix copy counter).
#pragma once

#include <span>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"

namespace spkadd::core {

/// B = sum of `inputs`, reduced `batch_size` addends at a time.
/// batch_size >= 2; batch_size >= k degenerates to a single spkadd call.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_batched(
    std::span<const CscMatrix<IndexT, ValueT>> inputs, std::size_t batch_size,
    const Options& opts = {}) {
  if (batch_size < 2)
    throw std::invalid_argument("spkadd_batched: batch_size must be >= 2");
  detail::check_conformant(inputs);
  if (inputs.size() <= batch_size) return spkadd(inputs, opts);

  Accumulator<IndexT, ValueT> acc(inputs[0].rows(), inputs[0].cols(), opts,
                                  batch_size);
  acc.add_batch(inputs);  // borrows; `inputs` outlives the call
  return acc.finalize();
}

/// Convenience overload for vectors.
template <class IndexT, class ValueT>
[[nodiscard]] CscMatrix<IndexT, ValueT> spkadd_batched(
    const std::vector<CscMatrix<IndexT, ValueT>>& inputs,
    std::size_t batch_size, const Options& opts = {}) {
  return spkadd_batched(std::span<const CscMatrix<IndexT, ValueT>>(inputs),
                        batch_size, opts);
}

}  // namespace spkadd::core
