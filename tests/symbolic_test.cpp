// Symbolic phase (Alg. 6/7): per-column output sizes, sliding partition,
// workspace behaviour.
#include <gtest/gtest.h>

#include <limits>

#include "core/accumulator.hpp"
#include "core/kway.hpp"
#include "core/symbolic.hpp"
#include "gen/workload.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::from_triplets;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;
using Coo = spkadd::testing::Coo;

std::vector<std::int32_t> oracle_counts(std::span<const Csc> inputs) {
  const auto oracle = spkadd::testing::dense_sum_oracle(inputs);
  std::vector<std::int32_t> counts(static_cast<std::size_t>(oracle.cols()));
  for (std::int32_t j = 0; j < oracle.cols(); ++j)
    counts[static_cast<std::size_t>(j)] =
        static_cast<std::int32_t>(oracle.col_nnz(j));
  return counts;
}

TEST(Symbolic, MatchesUnionSizesPlain) {
  const auto inputs = random_collection(8, 128, 16, 300, 1);
  const auto got =
      symbolic_nnz_per_column(std::span<const Csc>(inputs), Options{}, false);
  EXPECT_EQ(got, oracle_counts(std::span<const Csc>(inputs)));
}

TEST(Symbolic, MatchesUnionSizesSliding) {
  const auto inputs = random_collection(8, 128, 16, 300, 2);
  Options opts;
  opts.max_table_entries = 16;  // force multiple parts per column
  const auto got =
      symbolic_nnz_per_column(std::span<const Csc>(inputs), opts, true);
  EXPECT_EQ(got, oracle_counts(std::span<const Csc>(inputs)));
}

TEST(Symbolic, SlidingEqualsPlainForAllCaps) {
  const auto inputs = random_collection(4, 256, 8, 500, 3);
  const auto plain =
      symbolic_nnz_per_column(std::span<const Csc>(inputs), Options{}, false);
  for (std::size_t cap : {8u, 32u, 128u, 1u << 20}) {
    Options opts;
    opts.max_table_entries = cap;
    EXPECT_EQ(plain, symbolic_nnz_per_column(std::span<const Csc>(inputs),
                                             opts, true))
        << "cap=" << cap;
  }
}

TEST(Symbolic, SlidingHandlesUnsortedInputs) {
  auto inputs = random_collection(4, 256, 8, 500, 4);
  const auto plain =
      symbolic_nnz_per_column(std::span<const Csc>(inputs), Options{}, false);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    spkadd::gen::shuffle_columns(inputs[i], 2000 + i);
  Options opts;
  opts.inputs_sorted = false;
  opts.max_table_entries = 32;
  EXPECT_EQ(plain, symbolic_nnz_per_column(std::span<const Csc>(inputs), opts,
                                           true));
}

TEST(Symbolic, CountsProbesAndTableInits) {
  const auto inputs = random_collection(4, 128, 8, 200, 5);
  OpCounters c;
  Options opts;
  opts.counters = &c;
  symbolic_nnz_per_column(std::span<const Csc>(inputs), opts, false);
  const std::size_t input_nnz =
      core::detail::total_nnz(std::span<const Csc>(inputs));
  EXPECT_GE(c.hash_probes, input_nnz);  // one probe minimum per entry
  EXPECT_GT(c.table_inits, 0u);
}

TEST(Symbolic, EmptyColumnsAreZero) {
  std::vector<Csc> inputs{from_triplets(8, 4, {{0, 1, 1.0}}),
                          from_triplets(8, 4, {{3, 1, 1.0}, {0, 3, 1.0}})};
  const auto got =
      symbolic_nnz_per_column(std::span<const Csc>(inputs), Options{}, false);
  EXPECT_EQ(got, (std::vector<std::int32_t>{0, 2, 0, 1}));
}

TEST(TableEntryCap, DerivesFromLlcAndThreads) {
  Options opts;
  opts.llc_bytes = 1 << 20;
  opts.threads = 4;
  // 1MB / (2 * 4B * 4 threads) = 32K keys for the symbolic phase (the
  // factor 2 covers the <= 0.5 table load factor).
  EXPECT_EQ(core::detail::table_entry_cap(opts, 4), (1u << 20) / 32);
  // Override wins.
  opts.max_table_entries = 123;
  EXPECT_EQ(core::detail::table_entry_cap(opts, 4), 123u);
  // Floor at 8.
  opts.max_table_entries = 1;
  EXPECT_EQ(core::detail::table_entry_cap(opts, 4), 8u);
}

TEST(FilterRange, SplitsByRow) {
  const auto a = from_triplets(10, 1, {{1, 0, 1.0}, {4, 0, 2.0}, {8, 0, 3.0}});
  const auto b = from_triplets(10, 1, {{4, 0, 5.0}});
  std::vector<ColumnView<std::int32_t, double>> views{a.column(0),
                                                      b.column(0)};
  std::vector<std::int32_t> rows;
  std::vector<double> vals;
  std::vector<std::size_t> bounds;
  std::vector<ColumnView<std::int32_t, double>> out;
  core::detail::filter_range(
      std::span<const ColumnView<std::int32_t, double>>(views),
      std::int32_t{2}, std::int32_t{8}, rows, vals, bounds, out);
  ASSERT_EQ(out.size(), 2u);  // both inputs have entries in [2, 8)
  EXPECT_EQ(out[0].nnz(), 1u);
  EXPECT_EQ(out[0].rows[0], 4);
  EXPECT_EQ(out[1].nnz(), 1u);
  EXPECT_DOUBLE_EQ(out[1].vals[0], 5.0);
}

// ------------------------------------------------------------- workspaces
TEST(Workspace, SpaGenerationsAvoidClearing) {
  SpaWorkspace<std::int32_t, double> spa;
  spa.ensure_rows(16);
  spa.new_column();
  spa.add(3, 1.0);
  spa.add(3, 2.0);
  spa.add(7, 5.0);
  EXPECT_EQ(spa.touched.size(), 2u);
  EXPECT_DOUBLE_EQ(spa.values[3], 3.0);
  spa.new_column();  // old entries invisible without clearing
  EXPECT_FALSE(spa.occupied(3));
  spa.add(3, 9.0);
  EXPECT_DOUBLE_EQ(spa.values[3], 9.0);
}

TEST(Workspace, SpaSurvivesGenerationWraparound) {
  SpaWorkspace<std::int32_t, double> spa;
  spa.ensure_rows(4);
  spa.generation = ~0u;  // force the wrap on next new_column
  spa.new_column();
  EXPECT_EQ(spa.generation, 1u);
  spa.add(0, 1.0);
  EXPECT_TRUE(spa.occupied(0));
  EXPECT_FALSE(spa.occupied(1));
}

TEST(Workspace, HashResetOnlyTouchesRequestedEntries) {
  HashWorkspace<std::int32_t, double> ws;
  ws.reset(8);
  EXPECT_EQ(ws.capacity(), 8u);
  ws.keys[0] = 42;
  ws.reset(4);  // shrink: only first 4 slots re-initialized, mask updated
  EXPECT_EQ(ws.capacity(), 4u);
  EXPECT_EQ(ws.keys[0], (HashWorkspace<std::int32_t, double>::kEmpty));
}

TEST(Workspace, HashTableEntriesKeepsLoadFactorUnderHalf) {
  EXPECT_EQ(hash_table_entries(0), 1u);
  EXPECT_EQ(hash_table_entries(1), 2u);
  EXPECT_EQ(hash_table_entries(8), 16u);
  EXPECT_EQ(hash_table_entries(9), 32u);
  // The load-factor guarantee: need / entries <= 0.5 for any need > 0.
  for (std::size_t need : {1u, 3u, 511u, 512u, 513u, 1023u, 1024u, 100000u})
    EXPECT_LE(2 * need, hash_table_entries(need)) << need;
}

template <class IndexT>
void expect_hash_inside_every_table() {
  util::Xoshiro256 rng(17);
  std::vector<IndexT> rows = {0, 1, 2, 4095, 4096, IndexT{1} << 30,
                              std::numeric_limits<IndexT>::max() - 1};
  for (int i = 0; i < 64; ++i)
    rows.push_back(static_cast<IndexT>(rng.bounded(
        static_cast<std::uint64_t>(std::numeric_limits<IndexT>::max()))));
  for (unsigned q = 0; q <= 40; ++q) {
    const std::size_t mask = (std::size_t{1} << q) - 1;
    for (const IndexT r : rows) {
      EXPECT_LE(hash_index(r, mask), mask) << q;
      // Knuth's slot: the top q bits of the 64-bit product.
      if (q > 0) {
        EXPECT_EQ(hash_index(r, mask),
                  (static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ULL) >>
                      (64 - q))
            << r << " " << q;
      }
    }
  }
  for (const IndexT r : rows) EXPECT_EQ(hash_index(r, 0), 0u) << r;
}

// Every table width a kernel can build keeps the slot in range, down to
// the resident sum's 1-slot "no table" (mask 0, where a shift by the full
// 64 bits would be undefined).
TEST(HashIndex, StaysInsideEveryTableWidth) {
  expect_hash_inside_every_table<std::int32_t>();
  expect_hash_inside_every_table<std::int64_t>();
}

// Linear probing at load <= 1/2 costs ~1.5 probes per entry when the hash
// spreads the rows. A hash that keeps the product's low bits cannot spread
// rows that share their low bits, which is what these inputs have.
void expect_few_probes(const std::vector<Csc>& inputs, std::int32_t j) {
  std::vector<ColumnView<std::int32_t, double>> views;
  for (const auto& m : inputs)
    if (!m.column(j).empty()) views.push_back(m.column(j));
  const std::span<const ColumnView<std::int32_t, double>> vs(views);
  std::size_t nnz = 0;
  for (const auto& v : views) nnz += v.nnz();
  ASSERT_GT(nnz, 0u);
  const std::int32_t rows = inputs.front().rows();
  ThreadScratch<std::int32_t, double> s;

  OpCounters sym, num;
  const std::size_t out = hash_symbolic_column(vs, s.sym_table, &sym);
  std::vector<std::int32_t> orows(out);
  std::vector<double> ovals(out);
  hash_add_column(vs, out, s.table, orows.data(), ovals.data(), true, &num);
  EXPECT_LE(sym.hash_probes, 2 * nnz) << "Hash symbolic";
  EXPECT_LE(num.hash_probes, 2 * nnz) << "Hash numeric";

  // SlidingHash cut into about four row ranges. Its numeric phase hashes
  // each part twice: a keys-only count sizes the part's table.
  const std::size_t cap = nnz / 4 + 1;
  OpCounters ssym, snum;
  EXPECT_EQ(sliding_symbolic_column(vs, rows, cap, true, s, &ssym), out);
  sliding_hash_add_column(vs, out, rows, std::max<std::size_t>(1, out / 4),
                          true, true, s, orows.data(), ovals.data(), &snum);
  EXPECT_LE(ssym.hash_probes, 2 * nnz) << "SlidingHash symbolic";
  EXPECT_LE(snum.hash_probes, 2 * (2 * nnz)) << "SlidingHash numeric";
}

/// Fold every addend into an Accumulator (the ResidentSum scatter) and
/// bound the fold's probes by 2x the folded nnz.
void expect_few_fold_probes(const std::vector<Csc>& inputs) {
  OpCounters fold;
  Options opts;
  opts.counters = &fold;
  Accumulator<std::int32_t, double> acc(inputs.front().rows(),
                                        inputs.front().cols(), opts);
  std::size_t nnz = 0;
  for (const auto& m : inputs) {
    acc.add(m);
    nnz += m.nnz();
  }
  acc.flush();
  EXPECT_LE(fold.hash_probes, 2 * nnz) << "Accumulator fold";
}

TEST(HashQuality, RowsSharingTheirLowBitsSpreadOut) {
  // 16 addends of one column; rows i << 12 for 64 random i < 256 each.
  constexpr std::int32_t kRows = 1 << 20;
  util::Xoshiro256 rng(23);
  std::vector<Csc> inputs;
  for (int a = 0; a < 16; ++a) {
    Coo coo(kRows, 1);
    for (int e = 0; e < 64; ++e)
      coo.push(static_cast<std::int32_t>(rng.bounded(256) << 12), 0, 1.0);
    coo.compress();
    inputs.push_back(coo.to_csc());
  }
  expect_few_probes(inputs, 0);
  expect_few_fold_probes(inputs);
}

TEST(HashQuality, RmatHubColumnSpreadsOut) {
  // One group of the oneshot-rmat benchmark: k = 64 R-MAT addends of
  // 2^18 x 2^6, d = 16; the heaviest column is its hub.
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::RMAT;
  spec.rows = 1 << 18;
  spec.cols = 1 << 6;
  spec.avg_nnz_per_col = 16;
  spec.k = 64;
  spec.seed = 4;
  const auto inputs = gen::make_workload(spec);
  std::int32_t hub = 0;
  std::size_t hub_nnz = 0;
  for (std::int32_t j = 0; j < inputs.front().cols(); ++j) {
    std::size_t nnz = 0;
    for (const auto& m : inputs) nnz += m.col_nnz(j);
    if (nnz > hub_nnz) {
      hub = j;
      hub_nnz = nnz;
    }
  }
  expect_few_probes(inputs, hub);
  expect_few_fold_probes(inputs);
}

}  // namespace
