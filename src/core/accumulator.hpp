// Streaming SpKAdd accumulator — the paper's §V memory-constrained
// extension ("arrange input matrices in multiple batches and then use
// SpKAdd for each batch") promoted to a first-class, stateful subsystem.
//
// Gradient aggregation and FEM assembly are *streams* of addends: they
// arrive one (or a few) at a time, and the consumer reads the running sum
// mid-stream and at the end. The Accumulator stages addends as borrowed
// pointers (or owns moved-in rvalues) and folds every batch_capacity of
// them into a resident running sum (core/resident_sum.hpp): per column a
// hash table keyed by row that turns into a dense value-plus-bitmap slot
// once about 1/4 full. It persists across folds *and* snapshots, so a fold
// costs the staged addends, never a re-merge of the whole sum — the
// O(k*nnz) re-streaming of 2-way incremental addition (Table I).
//
// Bit-identity: a fold scatters each column's addends in staged order
// (first touch assigns, later touches add), so every value is the strict
// left fold — byte-identical to one-shot spkadd over the same prefix,
// whatever the batch capacity or read cadence. Options::method keeps only
// its contracts: merge/heap families reject unsorted addends at flush(),
// and snapshots are sorted wherever the method's one-shot output is.
//
// Snapshots: partial_sum() emits CSC into a cached matrix and leaves the
// running sum resident; a read with nothing folded since returns the
// cache. finalize() hands the sum over and clears the store, keeping its
// capacity for the next stream.
//
//   core::Accumulator<> acc(rows, cols, opts);
//   for (auto& g : stream) acc.add(std::move(g));   // or acc.add(g) to borrow
//   CscMatrix<> sum = acc.finalize();               // acc is reusable after
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/resident_sum.hpp"

namespace spkadd::core {

template <class IndexT = std::int32_t, class ValueT = double>
class Accumulator {
 public:
  using Matrix = CscMatrix<IndexT, ValueT>;

  /// Fold after this many staged addends unless the caller chose otherwise.
  static constexpr std::size_t kDefaultBatchCapacity = 8;

  /// Usage/footprint counters for benches and tests.
  struct Stats {
    std::uint64_t addends = 0;  ///< total matrices ever staged
    std::uint64_t flushes = 0;  ///< folds performed
    /// CSC snapshots written by partial_sum()/finalize(). A read with
    /// nothing folded since the last one returns the cached snapshot and
    /// does not count.
    std::uint64_t emissions = 0;
    /// Max of resident store + snapshot + owned addends.
    std::size_t peak_intermediate_bytes = 0;
    /// Max total nnz of addends simultaneously staged (awaiting a fold) —
    /// the "live intermediates" bound of the streaming SUMMA pipeline:
    /// never more than batch_capacity addends' worth.
    std::size_t peak_staged_nnz = 0;
    /// Running-sum columns switched from a hash table to a dense slot.
    std::uint64_t dense_promotions = 0;
  };

  explicit Accumulator(IndexT rows, IndexT cols, Options opts = {},
                       std::size_t batch_capacity = kDefaultBatchCapacity)
      : rows_(rows), cols_(cols), opts_(opts), cap_(batch_capacity) {
    if (batch_capacity < 1)
      throw std::invalid_argument("Accumulator: batch_capacity must be >= 1");
    detail::check_sentinel_shape(rows);
    staged_.reserve(cap_);
    sum_.reshape(rows, cols);
  }

  // Copying would leave the copy's staged pointers aimed at the original's
  // owned addends (dangling after the original flushes). Moves are safe:
  // deque element addresses survive a move.
  Accumulator(const Accumulator&) = delete;
  Accumulator& operator=(const Accumulator&) = delete;
  Accumulator(Accumulator&&) noexcept = default;
  Accumulator& operator=(Accumulator&&) noexcept = default;

  [[nodiscard]] IndexT rows() const { return rows_; }
  [[nodiscard]] IndexT cols() const { return cols_; }
  [[nodiscard]] std::size_t batch_capacity() const { return cap_; }
  /// Addends staged but not yet folded into the running sum.
  [[nodiscard]] std::size_t pending() const { return staged_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Running-sum columns currently held as dense slots (between snapshots
  /// too: snapshots leave the running sum resident).
  [[nodiscard]] std::size_t dense_resident_cols() const {
    return sum_.dense_cols();
  }
  /// Bytes of persistent storage held by the resident store; it survives
  /// finalize() and reshape(), which the workspace-reuse tests pin.
  [[nodiscard]] std::size_t workspace_bytes() const {
    return sum_.storage_bytes();
  }

  /// Stage a borrowed addend. The matrix must stay alive until the next
  /// flush()/finalize() or until batch_capacity addends force a fold —
  /// whichever comes first. No copy is ever made.
  void add(const Matrix& m) {
    require_no_open_buffer();
    stage(&m);
  }

  /// Stage an owned addend: the matrix is moved in (no deep copy) and
  /// released at the next fold. For streams whose producer discards each
  /// contribution right after handing it over.
  void add(Matrix&& m) {
    require_no_open_buffer();
    check_shape(m);
    owned_.push_back(std::move(m));
    stage(&owned_.back());
  }

  /// Stage a whole batch of borrowed addends (§V's "arrange input matrices
  /// in multiple batches"); folds fire every batch_capacity addends.
  void add_batch(std::span<const Matrix> ms) {
    for (const auto& m : ms) add(m);
  }

  /// Open an accumulator-owned staging slot and hand it to a producer to
  /// emit the next addend *in place* (no move, no copy): fill the returned
  /// matrix, then call commit_staged(). Exactly one slot may be open at a
  /// time, and no add()/flush()/finalize() may run while it is.
  [[nodiscard]] Matrix& stage_buffer() {
    if (staging_open_)
      throw std::logic_error("Accumulator: stage_buffer already open");
    owned_.emplace_back();
    staging_open_ = true;
    return owned_.back();
  }

  /// Commit the addend emitted into the open stage_buffer(). Shape-checked
  /// here (the producer sets the shape); may trigger a fold. A rejected
  /// emission is dropped, leaving the accumulator as if the buffer had
  /// never been opened.
  void commit_staged() {
    if (!staging_open_)
      throw std::logic_error("Accumulator: commit_staged without a buffer");
    staging_open_ = false;
    Matrix& slot = owned_.back();
    if (slot.rows() != rows_ || slot.cols() != cols_) {
      owned_.pop_back();  // never staged: must not linger as fold debris
      throw std::invalid_argument("Accumulator: addend is not conformant");
    }
    stage(&slot);
  }

  /// Re-shape an *idle* accumulator (nothing staged, no running sum) for
  /// the next stream. Keeps the grown storage — this is what lets one
  /// accumulator serve a sequence of differently-shaped reductions, e.g.
  /// the per-process blocks of the streaming SUMMA pipeline.
  void reshape(IndexT rows, IndexT cols) {
    if (have_sum_ || !staged_.empty() || staging_open_)
      throw std::logic_error("Accumulator: reshape while not idle");
    detail::check_sentinel_shape(rows);
    rows_ = rows;
    cols_ = cols;
    sum_.reshape(rows, cols);
    acc_ = Matrix();  // a cached all-zero snapshot of the old shape
    current_ = false;
  }

  /// Drop every staged addend without folding it — the recovery path
  /// after a fold threw (e.g. unsorted inputs under a merge-family
  /// method). The running sum keeps its last consistent value (a failed
  /// fold never touches it) and owned buffers are released, so the
  /// accumulator is usable again instead of re-throwing on every later
  /// fold of the poisoned batch.
  void discard_staged() {
    require_no_open_buffer();
    staged_.clear();
    owned_.clear();
    staged_nnz_ = 0;
  }

  /// Fold everything staged into the running partial sum now. No-op when
  /// nothing is pending. Throws before touching the running sum when the
  /// method's input contract rejects an addend.
  void flush() {
    require_no_open_buffer();
    if (staged_.empty()) return;
    check_input_contract();
    std::size_t owned_bytes = 0;
    for (const auto& m : owned_) owned_bytes += m.storage_bytes();
    stats_.dense_promotions +=
        sum_.fold(MatrixPtrs<IndexT, ValueT>(staged_), opts_);
    have_sum_ = true;
    current_ = false;
    ++stats_.flushes;
    note_peak(owned_bytes);
    staged_.clear();
    owned_.clear();
    staged_nnz_ = 0;
  }

  /// Fold any pending addends and borrow the running sum WITHOUT
  /// consuming it — snapshot readers (the aggregation service) assemble
  /// a consistent view from many accumulators' partials while each one
  /// keeps streaming afterwards. An accumulator that never saw an
  /// addend materializes the all-zero rows x cols sum. The reference is
  /// invalidated by any later add/flush/finalize.
  [[nodiscard]] const Matrix& partial_sum() {
    flush();
    if (!current_) emit();
    return acc_;
  }

  /// Whether partial_sum()'s columns are guaranteed sorted — false only
  /// under Options::sorted_output = false with a method whose one-shot
  /// output is unsorted too, where hash columns list their rows in
  /// first-seen order; snapshot assembly uses this to set
  /// Options::inputs_sorted honestly.
  [[nodiscard]] bool partial_is_sorted() const {
    return emits_sorted() || !have_sum_;
  }

  /// Fold any pending addends and hand the sum to the caller. The
  /// accumulator resets to empty but keeps its storage, so the next
  /// stream reuses it. An accumulator that never saw an addend yields the
  /// all-zero rows x cols matrix.
  [[nodiscard]] Matrix finalize() {
    flush();
    if (!current_) emit();
    Matrix out = std::move(acc_);
    acc_ = Matrix();
    current_ = false;
    have_sum_ = false;
    sum_.clear();
    return out;
  }

 private:
  /// The merge and heap families: they take sorted addends only and emit
  /// sorted columns.
  [[nodiscard]] bool merge_family() const {
    switch (opts_.method) {
      case Method::TwoWayIncremental:
      case Method::TwoWayTree:
      case Method::Heap:
      case Method::ReferenceIncremental:
      case Method::ReferenceTree:
        return true;
      default:
        return false;
    }
  }

  /// Whether one-shot spkadd under opts_.method emits sorted columns: the
  /// merge, heap and dense families always do, whatever
  /// Options::sorted_output says. Snapshots follow suit.
  [[nodiscard]] bool emits_sorted() const {
    return opts_.sorted_output || merge_family() ||
           opts_.method == Method::DenseAcc;
  }

  /// Rewrite the snapshot in place from the running sum.
  void emit() {
    sum_.emit(acc_, opts_, emits_sorted());
    current_ = true;
    ++stats_.emissions;
    note_peak(0);
  }

  /// The resident fold needs no sorted input, but keeps the merge
  /// family's contract so a stream fails the same way under every method.
  void check_input_contract() const {
    if (!merge_family()) return;
    for (const Matrix* m : staged_)
      if (!opts_.inputs_sorted || !m->is_sorted())
        throw std::invalid_argument("Accumulator: " +
                                    method_name(opts_.method) +
                                    " requires sorted addends");
  }

  void note_peak(std::size_t owned_bytes) {
    stats_.peak_intermediate_bytes =
        std::max(stats_.peak_intermediate_bytes,
                 workspace_bytes() + acc_.storage_bytes() + owned_bytes);
  }

  void check_shape(const Matrix& m) const {
    if (m.rows() != rows_ || m.cols() != cols_)
      throw std::invalid_argument("Accumulator: addend is not conformant");
  }

  /// add()/flush()/finalize() while a stage_buffer() awaits its commit
  /// would fold (and then clear) the half-filled slot; reject up front,
  /// before any owned_/staged_ state has changed.
  void require_no_open_buffer() const {
    if (staging_open_)
      throw std::logic_error(
          "Accumulator: operation with an open stage_buffer");
  }

  void stage(const Matrix* m) {
    check_shape(*m);
    staged_.push_back(m);
    ++stats_.addends;
    staged_nnz_ += m->nnz();
    stats_.peak_staged_nnz = std::max(stats_.peak_staged_nnz, staged_nnz_);
    if (staged_.size() >= cap_) flush();
  }

  IndexT rows_;
  IndexT cols_;
  Options opts_;
  std::size_t cap_;

  ResidentSum<IndexT, ValueT> sum_;  ///< the running sum, resident
  bool have_sum_ = false;  ///< a fold happened since the last finalize()
  Matrix acc_;             ///< the last snapshot (partial_sum()'s result)
  bool current_ = false;   ///< acc_ holds everything folded so far

  std::vector<const Matrix*> staged_;  ///< borrowed addends awaiting a fold
  std::size_t staged_nnz_ = 0;  ///< total nnz currently staged
  bool staging_open_ = false;   ///< a stage_buffer() awaits commit_staged()
  std::deque<Matrix> owned_;  ///< moved-in addends (deque: stable addresses)
  Stats stats_;
};

extern template class Accumulator<std::int32_t, double>;

}  // namespace spkadd::core
