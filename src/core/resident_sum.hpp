// Resident running sum of the streaming Accumulator: one mutable partial
// sum per column that persists across folds *and* snapshots, so a fold
// costs the addends it folds, not the running sum (the paper's Table I
// contrast between 2-way incremental addition and the k-way kernels).
//
// Each non-empty column is a hash table keyed by row (the Alg. 5 layout,
// load <= 1/2) or a dense slot (value array + 64-bit occupancy bitmap, the
// DenseAcc layout) — the HLL-style sparse→dense lifecycle. A column
// switches once its dense slot is no larger than the table it needs,
// rows*sizeof(V) + rows/8 <= hash_table_entries(nnz)*(sizeof(I)+sizeof(V))
// (about 1/4 fill for int32/double), and never switches back before
// clear(). The last table below that break-even gets a value block that
// fits the dense array, so the switch happens in place. Blocks come from
// chunked arenas (util/block_arena.hpp); empty columns own nothing.
//
// fold() scatters a batch column-parallel, each column in batch order
// (first touch assigns, later touches add): every value is the strict left
// fold of its contributions, the bytes one-shot spkadd produces. emit()
// writes CSC column-parallel: dense columns by ascending bitmap scan, hash
// columns by merging the previous emission's rows with the rows first seen
// since (the only rows it sorts).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/column_kernels.hpp"
#include "core/detail.hpp"
#include "util/block_arena.hpp"
#include "util/radix_sort.hpp"

namespace spkadd::core {

template <class IndexT, class ValueT>
class ResidentSum {
 public:
  using Matrix = CscMatrix<IndexT, ValueT>;

  /// Adopt a shape for the next stream; the sum must be clear().
  void reshape(IndexT rows, IndexT cols) {
    rows_ = rows;
    cols_.assign(static_cast<std::size_t>(cols), Column{});
    // Blocks stay below the break-even, so none outgrows 2 * rows.
    keys_.fit(2 * static_cast<std::size_t>(rows));
    vals_.fit(static_cast<std::size_t>(rows));
    masks_.fit(words());
  }

  /// Columns held in the dense representation.
  [[nodiscard]] std::size_t dense_cols() const { return dense_cols_; }

  /// Bytes of backing storage held; kept across clear().
  [[nodiscard]] std::size_t storage_bytes() const {
    return keys_.bytes() + vals_.bytes() + masks_.bytes() +
           cols_.capacity() * sizeof(Column) +
           incoming_.capacity() * sizeof(std::uint64_t) +
           moves_.capacity() * sizeof(Move);
  }

  /// Fold `batch` (conformant addends) into the sum. Returns the number of
  /// columns that switched hash→dense. Every allocation (the per-column
  /// plan, arena growth) happens before any column changes, and the
  /// column-parallel scatter allocates nothing, so a failed fold leaves
  /// the sum as it was.
  std::size_t fold(MatrixPtrs<IndexT, ValueT> batch, const Options& opts) {
    const std::size_t n = cols_.size();
    incoming_.assign(n, 0);
    std::uint64_t total = 0;
    for (const Matrix* a : batch) {
      const auto cp = a->col_ptr();
      for (std::size_t j = 0; j < n; ++j)
        incoming_[j] += static_cast<std::uint64_t>(cp[j + 1] - cp[j]);
      total += a->nnz();
    }
    if (total == 0) return 0;

    // Plan every representation change and carve its storage, then grow
    // the arenas; columns change only after that cannot fail.
    moves_.clear();
    std::size_t dense = dense_cols_;
    const auto m = static_cast<std::size_t>(rows_);
    const auto breaks_even = [&](std::size_t entries) {
      return dense_bytes() <= entries * (sizeof(IndexT) + sizeof(ValueT));
    };
    // The largest table below the break-even: growth stops there.
    const std::size_t last_cap =
        std::bit_floor((dense_bytes() - 1) / (sizeof(IndexT) + sizeof(ValueT)));
    for (std::size_t j = 0; j < n; ++j) {
      const Column& c = cols_[j];
      if (incoming_[j] == 0 || c.dense) continue;
      const std::size_t need =
          hash_table_entries(std::min<std::size_t>(m, c.nnz + incoming_[j]));
      const std::size_t cap = std::size_t{1} << c.log2cap;
      const std::size_t klen = c.log2cap ? cap + cap / 2 : 0;
      if (breaks_even(need)) {
        const bool in_place = c.vlen >= m;
        moves_.push_back({j, 0, masks_.take(words()),
                          in_place ? c.voff : vals_.take(m),
                          in_place ? c.vlen : m, c.koff, klen, c.voff,
                          in_place ? 0 : c.vlen});
        ++dense;
      } else if (need > cap) {  // 1 slot stands for no table
        // Quadruple rather than double: half the rehash work for the
        // same final table.
        const std::size_t grown =
            std::max(need, std::min(4 * cap, last_cap));
        const std::size_t vlen = grown == last_cap ? std::max(grown, m) : grown;
        moves_.push_back({j,
                          static_cast<std::uint8_t>(std::countr_zero(grown)),
                          keys_.take(grown + grown / 2), vals_.take(vlen),
                          vlen, c.koff, klen, c.voff, c.vlen});
      }
    }
    keys_.commit();
    vals_.commit();
    masks_.commit();
    const std::size_t switched = dense - dense_cols_;
    dense_cols_ = dense;

    Options fopts = opts;
    if (total < kParallelNnz) fopts.threads = 1;
    const bool hybrid = opts.method == Method::Hybrid;
    detail::for_each_column(
        static_cast<IndexT>(n), fopts,
        std::span<const std::uint64_t>(incoming_),
        [&](IndexT jj, OpCounters* ctr) {
          const auto j = static_cast<std::size_t>(jj);
          if (incoming_[j] == 0) return;
          Column& c = cols_[j];
          const auto mv = std::lower_bound(
              moves_.begin(), moves_.end(), j,
              [](const Move& x, std::size_t col) { return x.col < col; });
          if (mv != moves_.end() && mv->col == j) migrate(*mv);
          // Hybrid's per-chunk kernel mix: a folded column is a chunk of
          // one, dispatched to its representation.
          if (hybrid && ctr) ++(c.dense ? ctr->chunks_dense : ctr->chunks_hash);
          for (const Matrix* a : batch) {
            const auto col = a->column(jj);
            if (c.dense)
              scatter_dense(c, col, ctr);
            else
              scatter_hash(c, col, ctr);
          }
        });

    for (const Move& mv : moves_) {
      if (mv.old_klen != 0) keys_.give(mv.old_koff, mv.old_klen);
      if (mv.old_vlen != 0) vals_.give(mv.old_voff, mv.old_vlen);
    }
    if (opts.counters)
      opts.counters->bytes_moved += total * (sizeof(IndexT) + sizeof(ValueT));
    return switched;
  }

  /// Write the sum as CSC into `out`, reusing its storage when it is large
  /// enough; hash columns come out in ascending row order when `sorted`,
  /// else in first-seen order (dense columns are always ascending). The
  /// resident state is unchanged, apart from hash columns' row lists
  /// absorbing the rows first seen since the previous emit().
  void emit(Matrix& out, const Options& opts, bool sorted) {
    const std::size_t n = cols_.size();
    std::vector<IndexT> offsets(n + 1);
    for (std::size_t j = 0; j < n; ++j)
      offsets[j + 1] = offsets[j] + static_cast<IndexT>(cols_[j].nnz);
    // A buffer too small is released before its replacement is allocated
    // (growing in place would hold both while copying stale entries), with
    // headroom so a growing sum reallocates only now and then.
    const auto nnz = static_cast<std::size_t>(offsets[n]);
    if (out.rows() != rows_ || out.cols() != static_cast<IndexT>(n) ||
        out.storage_bytes() <
            (n + 1 + nnz) * sizeof(IndexT) + nnz * sizeof(ValueT)) {
      out = Matrix(rows_, static_cast<IndexT>(n));
      out.reserve(nnz + nnz / 2);
    }
    out.set_structure(std::move(offsets));
    auto* orows = out.mutable_row_idx().data();
    auto* ovals = out.mutable_values().data();
    const auto ocp = out.col_ptr();
    Options eopts = opts;
    if (nnz < kParallelNnz) eopts.threads = 1;
    detail::for_each_column(
        static_cast<IndexT>(n), eopts, std::span<const std::uint64_t>{},
        [&](IndexT jj, OpCounters* ctr) {
          const auto j = static_cast<std::size_t>(jj);
          Column& c = cols_[j];
          if (c.dense)
            emit_dense(c, orows + ocp[j], ovals + ocp[j]);
          else if (c.nnz != 0)
            emit_hash(c, sorted, orows + ocp[j], ovals + ocp[j], ctr);
        });
    if (opts.counters)
      opts.counters->bytes_moved += nnz * (sizeof(IndexT) + sizeof(ValueT));
  }

  /// Empty the sum, keeping every arena's capacity for the next stream.
  void clear() {
    std::fill(cols_.begin(), cols_.end(), Column{});
    keys_.clear();
    vals_.clear();
    masks_.clear();
    dense_cols_ = 0;
  }

 private:
  static constexpr IndexT kEmpty = static_cast<IndexT>(-1);
  /// Folds and emissions below this many entries run on one thread: the
  /// fork/join would cost more than the scatter.
  static constexpr std::uint64_t kParallelNnz = 4096;

  /// Hash columns own a key block (2^log2cap keys, then half as many
  /// row-list entries) and a value block; dense columns a value block and
  /// a bitmap block in masks_ at `koff`.
  struct Column {
    std::size_t koff = 0;      ///< key block, or dense bitmap block
    std::size_t voff = 0;      ///< value block
    std::size_t vlen = 0;      ///< value block length; 0 = none
    std::size_t nnz = 0;       ///< distinct rows held
    std::size_t emitted = 0;   ///< leading rows of the row list emitted
    std::uint8_t log2cap = 0;  ///< hash table size; 0 = no table
    bool dense = false;
  };

  /// A planned representation change of column `col`: to a 2^lg table
  /// (lg == 0: to dense, `koff` naming its bitmap block) with the given
  /// blocks, vacating the old ones (length 0: kept or none) after the fold.
  struct Move {
    std::size_t col = 0;
    std::uint8_t lg = 0;
    std::size_t koff = 0;
    std::size_t voff = 0;
    std::size_t vlen = 0;
    std::size_t old_koff = 0, old_klen = 0, old_voff = 0, old_vlen = 0;
  };

  [[nodiscard]] std::size_t words() const {
    return (static_cast<std::size_t>(rows_) + 63) / 64;
  }
  [[nodiscard]] std::size_t dense_bytes() const {
    return static_cast<std::size_t>(rows_) * sizeof(ValueT) +
           words() * sizeof(std::uint64_t);
  }

  /// Apply a planned move: rehash into the new table (carrying the row
  /// list along) or spread the entries into the dense layout — in place
  /// when the value block already holds a dense array. Allocates nothing.
  void migrate(const Move& mv) {
    Column& c = cols_[mv.col];
    const std::size_t old_cap = c.log2cap ? std::size_t{1} << c.log2cap : 0;
    IndexT* okeys = old_cap ? keys_.at(c.koff) : nullptr;
    const ValueT* ovals = c.vlen ? vals_.at(c.voff) : nullptr;
    if (mv.lg == 0) {
      ValueT* dv = vals_.at(mv.voff);
      std::uint64_t* dm = masks_.at(mv.koff);
      std::fill(dm, dm + words(), std::uint64_t{0});
      // In place, row r lands on table slot r, which may hold an entry
      // not yet moved: carry that one along next (cycle following). The
      // old keys mark moved entries empty; the block is vacated anyway.
      const bool in_place = old_cap != 0 && mv.voff == c.voff;
      for (std::size_t h = 0; h < old_cap; ++h) {
        if (okeys[h] == kEmpty) continue;
        auto r = static_cast<std::size_t>(okeys[h]);
        ValueT v = ovals[h];
        okeys[h] = kEmpty;
        for (;;) {
          dm[r >> 6] |= std::uint64_t{1} << (r & 63);
          if (!in_place || r >= old_cap || okeys[r] == kEmpty) {
            dv[r] = v;
            break;
          }
          const auto next = static_cast<std::size_t>(okeys[r]);
          okeys[r] = kEmpty;
          std::swap(v, dv[r]);
          r = next;
        }
      }
      c.dense = true;
    } else {
      const std::size_t cap = std::size_t{1} << mv.lg;
      IndexT* keys = keys_.at(mv.koff);
      ValueT* vals = vals_.at(mv.voff);
      std::fill(keys, keys + cap, kEmpty);
      for (std::size_t h = 0; h < old_cap; ++h) {
        if (okeys[h] == kEmpty) continue;
        std::size_t s = hash_index(okeys[h], cap - 1);
        while (keys[s] != kEmpty) s = (s + 1) & (cap - 1);
        keys[s] = okeys[h];
        vals[s] = ovals[h];
      }
      std::copy_n(okeys + old_cap, c.nnz, keys + cap);
    }
    c.koff = mv.koff;
    c.voff = mv.voff;
    c.vlen = mv.vlen;
    c.log2cap = mv.lg;
  }

  void scatter_dense(Column& c, const ColumnView<IndexT, ValueT>& col,
                     OpCounters* ctr) {
    ValueT* dv = vals_.at(c.voff);
    std::uint64_t* dm = masks_.at(c.koff);
    for (std::size_t i = 0; i < col.nnz(); ++i) {
      const auto r = static_cast<std::size_t>(col.rows[i]);
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      if (dm[r >> 6] & bit) {
        dv[r] += col.vals[i];
      } else {
        dm[r >> 6] |= bit;
        dv[r] = col.vals[i];
        ++c.nnz;
      }
    }
    if (ctr) ctr->dense_touches += col.nnz();
  }

  void scatter_hash(Column& c, const ColumnView<IndexT, ValueT>& col,
                    OpCounters* ctr) {
    const std::size_t cap = std::size_t{1} << c.log2cap;
    IndexT* keys = keys_.at(c.koff);
    IndexT* order = keys + cap;
    ValueT* vals = vals_.at(c.voff);
    std::uint64_t probes = 0;
    for (std::size_t i = 0; i < col.nnz(); ++i) {
      const IndexT r = col.rows[i];
      std::size_t h = hash_index(r, cap - 1);
      for (;;) {
        ++probes;
        if (keys[h] == r) {
          vals[h] += col.vals[i];
          break;
        }
        if (keys[h] == kEmpty) {
          keys[h] = r;
          vals[h] = col.vals[i];
          order[c.nnz++] = r;
          break;
        }
        h = (h + 1) & (cap - 1);
      }
    }
    if (ctr) ctr->hash_probes += probes;
  }

  void emit_dense(const Column& c, IndexT* rows, ValueT* vals) const {
    const ValueT* dv = vals_.at(c.voff);
    if (c.nnz == static_cast<std::size_t>(rows_)) {
      simd::iota_rows(rows, IndexT{0}, c.nnz);
      simd::dense_copy(vals, dv, c.nnz);
      return;
    }
    dense_emit_words(dv, masks_.at(c.koff), 0, words(), rows, vals);
  }

  /// The column's row list — the last emission's rows, then the rows
  /// first seen since, sorted and merged in when `sorted` — with each
  /// value looked up in the table. The list becomes this emission.
  void emit_hash(Column& c, bool sorted, IndexT* rows, ValueT* vals,
                 OpCounters* ctr) {
    const std::size_t cap = std::size_t{1} << c.log2cap;
    IndexT* keys = keys_.at(c.koff);
    IndexT* order = keys + cap;
    if (sorted && c.emitted < c.nnz) {
      // The output slice's tail is free until the merge: sort scratch.
      util::radix_sort_keys(order + c.emitted, c.nnz - c.emitted,
                            rows + c.emitted);
      std::merge(order, order + c.emitted, order + c.emitted,
                 order + c.nnz, rows);
      std::copy_n(rows, c.nnz, order);
    } else {
      std::copy_n(order, c.nnz, rows);
    }
    c.emitted = c.nnz;
    const ValueT* tv = vals_.at(c.voff);
    std::uint64_t probes = 0;
    for (std::size_t i = 0; i < c.nnz; ++i) {
      std::size_t h = hash_index(rows[i], cap - 1);
      for (++probes; keys[h] != rows[i]; ++probes) h = (h + 1) & (cap - 1);
      vals[i] = tv[h];
    }
    if (ctr) ctr->hash_probes += probes;
  }

  IndexT rows_ = 0;
  std::vector<Column> cols_;
  util::BlockArena<IndexT> keys_;          ///< key blocks: table, then row list
  util::BlockArena<ValueT> vals_;          ///< value blocks and dense arrays
  util::BlockArena<std::uint64_t> masks_;  ///< dense bitmaps
  std::size_t dense_cols_ = 0;
  std::vector<std::uint64_t> incoming_;  ///< per-fold addend nnz per column
  std::vector<Move> moves_;              ///< per-fold planned moves
};

}  // namespace spkadd::core
