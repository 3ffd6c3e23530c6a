// k-way drivers: heap, SPA, hash, sliding hash — correctness against the
// dense oracle, edge cases, sorted/unsorted modes, counters.
#include <gtest/gtest.h>

#include "core/kway.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::canonicalized;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::from_triplets;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;

class KwayDriverTest : public ::testing::Test {
 protected:
  static std::vector<Csc> paper_example() {
    // Fig. 1(a): four columns being added, extended to a full matrix.
    return {
        from_triplets(8, 1, {{1, 0, 3.0}, {3, 0, 2.0}, {6, 0, 1.0}}),
        from_triplets(8, 1, {{0, 0, 2.0}, {3, 0, 1.0}, {5, 0, 3.0}}),
        from_triplets(8, 1, {{5, 0, 2.0}, {7, 0, 1.0}}),
        from_triplets(8, 1, {{1, 0, 2.0}, {6, 0, 1.0}, {7, 0, 3.0}}),
    };
  }

  static Csc paper_result() {
    // Fig. 1(a) output column: (0,2)(1,5)(3,3)(5,5)(6,2)(7,4).
    return from_triplets(8, 1, {{0, 0, 2.0}, {1, 0, 5.0}, {3, 0, 3.0},
                                {5, 0, 5.0}, {6, 0, 2.0}, {7, 0, 4.0}});
  }
};

TEST_F(KwayDriverTest, HeapReproducesPaperFigure1) {
  const auto inputs = paper_example();
  EXPECT_TRUE(approx_equal(paper_result(),
                           spkadd_heap(std::span<const Csc>(inputs))));
}

TEST_F(KwayDriverTest, SpaReproducesPaperFigure1) {
  const auto inputs = paper_example();
  EXPECT_TRUE(approx_equal(paper_result(),
                           spkadd_spa(std::span<const Csc>(inputs))));
}

TEST_F(KwayDriverTest, HashReproducesPaperFigure1) {
  const auto inputs = paper_example();
  EXPECT_TRUE(approx_equal(paper_result(),
                           spkadd_hash(std::span<const Csc>(inputs))));
}

TEST_F(KwayDriverTest, SlidingHashReproducesPaperFigure1) {
  const auto inputs = paper_example();
  Options opts;
  opts.max_table_entries = 2;  // force many parts even on a tiny column
  EXPECT_TRUE(approx_equal(
      paper_result(), spkadd_sliding_hash(std::span<const Csc>(inputs), opts)));
}

TEST_F(KwayDriverTest, AllDriversMatchOracleOnRandomInputs) {
  const auto inputs = random_collection(8, 128, 16, 300, 42);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, spkadd_heap(std::span<const Csc>(inputs))));
  EXPECT_TRUE(approx_equal(oracle, spkadd_spa(std::span<const Csc>(inputs))));
  EXPECT_TRUE(approx_equal(oracle, spkadd_hash(std::span<const Csc>(inputs))));
  EXPECT_TRUE(approx_equal(
      oracle, spkadd_sliding_hash(std::span<const Csc>(inputs))));
}

TEST_F(KwayDriverTest, HandlesEmptyMatricesInCollection) {
  std::vector<Csc> inputs = random_collection(3, 32, 8, 50, 7);
  inputs.emplace_back(32, 8);  // all-empty addend
  inputs.emplace_back(32, 8);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, spkadd_hash(std::span<const Csc>(inputs))));
  EXPECT_TRUE(approx_equal(oracle, spkadd_heap(std::span<const Csc>(inputs))));
}

TEST_F(KwayDriverTest, AllEmptyCollection) {
  std::vector<Csc> inputs{Csc(16, 4), Csc(16, 4), Csc(16, 4)};
  // The drivers are overloaded on value vs pointer spans now; pin the
  // value-span flavor for the function-pointer sweep.
  using DriverFn = Csc (*)(std::span<const Csc>, const Options&);
  for (DriverFn fn : {static_cast<DriverFn>(&spkadd_heap<std::int32_t, double>),
                      static_cast<DriverFn>(&spkadd_spa<std::int32_t, double>),
                      static_cast<DriverFn>(&spkadd_hash<std::int32_t, double>),
                      static_cast<DriverFn>(
                          &spkadd_sliding_hash<std::int32_t, double>)}) {
    const auto out = fn(std::span<const Csc>(inputs), Options{});
    EXPECT_EQ(out.nnz(), 0u);
    EXPECT_EQ(out.rows(), 16);
    EXPECT_EQ(out.cols(), 4);
  }
}

TEST_F(KwayDriverTest, IdenticalInputsGiveCompressionFactorK) {
  const auto base = spkadd::testing::random_matrix(64, 8, 100, 5);
  std::vector<Csc> inputs(6, base);
  const auto out = spkadd_hash(std::span<const Csc>(inputs));
  EXPECT_EQ(out.nnz(), base.nnz());  // cf == 6
  EXPECT_DOUBLE_EQ(
      compression_factor(std::span<const Csc>(inputs), out), 6.0);
  // Values are 6x the base.
  for (std::int32_t j = 0; j < base.cols(); ++j) {
    const auto col = base.column(j);
    for (std::size_t i = 0; i < col.nnz(); ++i)
      EXPECT_NEAR(out.at(col.rows[i], j), 6.0 * col.vals[i], 1e-12);
  }
}

TEST_F(KwayDriverTest, CancellationKeepsStructuralZero) {
  // a + (-a): the stored pattern survives with value 0 (structural
  // semantics, matching the paper/CombBLAS).
  const auto a = from_triplets(8, 1, {{2, 0, 5.0}, {6, 0, -1.0}});
  auto neg = a;
  for (auto& v : neg.mutable_values()) v = -v;
  std::vector<Csc> inputs{a, neg};
  const auto out = spkadd_hash(std::span<const Csc>(inputs));
  EXPECT_EQ(out.nnz(), 2u);
  EXPECT_DOUBLE_EQ(out.at(2, 0), 0.0);
}

TEST_F(KwayDriverTest, HashAndSpaAcceptUnsortedInputs) {
  auto inputs = random_collection(4, 128, 8, 200, 9);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (std::size_t i = 0; i < inputs.size(); ++i)
    spkadd::gen::shuffle_columns(inputs[i], 1000 + i);
  Options opts;
  opts.inputs_sorted = false;
  EXPECT_TRUE(approx_equal(
      oracle, spkadd_hash(std::span<const Csc>(inputs), opts)));
  EXPECT_TRUE(approx_equal(
      oracle, spkadd_spa(std::span<const Csc>(inputs), opts)));
  Options sliding_opts = opts;
  sliding_opts.max_table_entries = 16;  // force the filtered sliding path
  EXPECT_TRUE(approx_equal(
      oracle, spkadd_sliding_hash(std::span<const Csc>(inputs), sliding_opts)));
}

TEST_F(KwayDriverTest, HeapRejectsUnsortedInputs) {
  auto inputs = random_collection(3, 64, 8, 100, 12);
  spkadd::gen::shuffle_columns(inputs[1], 77);
  EXPECT_THROW(spkadd_heap(std::span<const Csc>(inputs)),
               std::invalid_argument);
  Options opts;
  opts.inputs_sorted = false;
  EXPECT_THROW(spkadd_heap(std::span<const Csc>(inputs), opts),
               std::invalid_argument);
}

TEST_F(KwayDriverTest, UnsortedOutputHasSameEntrySet) {
  const auto inputs = random_collection(6, 128, 8, 250, 21);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.sorted_output = false;
  const auto hash_out = spkadd_hash(std::span<const Csc>(inputs), opts);
  EXPECT_TRUE(approx_equal(oracle, canonicalized(hash_out)));
  const auto spa_out = spkadd_spa(std::span<const Csc>(inputs), opts);
  EXPECT_TRUE(approx_equal(oracle, canonicalized(spa_out)));
}

TEST_F(KwayDriverTest, NonConformantInputsThrow) {
  std::vector<Csc> inputs{Csc(4, 4), Csc(4, 5)};
  EXPECT_THROW(spkadd_hash(std::span<const Csc>(inputs)),
               std::invalid_argument);
  std::vector<Csc> empty;
  EXPECT_THROW(spkadd_hash(std::span<const Csc>(empty)),
               std::invalid_argument);
}

TEST_F(KwayDriverTest, SlidingHashMatchesHashForAnyTableCap) {
  const auto inputs = random_collection(8, 256, 8, 400, 33);
  const auto reference = spkadd_hash(std::span<const Csc>(inputs));
  for (std::size_t cap : {8u, 16u, 64u, 256u, 4096u}) {
    Options opts;
    opts.max_table_entries = cap;
    EXPECT_TRUE(approx_equal(
        reference, spkadd_sliding_hash(std::span<const Csc>(inputs), opts)))
        << "cap=" << cap;
  }
}

TEST_F(KwayDriverTest, SlidingHashRespectsLlcBudgetOption) {
  const auto inputs = random_collection(8, 1 << 12, 4, 4000, 14);
  Options opts;
  opts.llc_bytes = 4 << 10;  // absurdly small LLC => many parts
  opts.threads = 1;
  const auto out = spkadd_sliding_hash(std::span<const Csc>(inputs), opts);
  EXPECT_TRUE(approx_equal(
      dense_sum_oracle(std::span<const Csc>(inputs)), out));
}

TEST_F(KwayDriverTest, CountersTrackWork) {
  const auto inputs = random_collection(8, 256, 16, 500, 55);
  OpCounters heap_c, hash_c, spa_c;
  Options opts;
  opts.counters = &heap_c;
  (void)spkadd_heap(std::span<const Csc>(inputs), opts);
  opts.counters = &hash_c;
  (void)spkadd_hash(std::span<const Csc>(inputs), opts);
  opts.counters = &spa_c;
  (void)spkadd_spa(std::span<const Csc>(inputs), opts);

  const std::size_t input_nnz = detail::total_nnz(std::span<const Csc>(inputs));
  // Every input entry passes through each structure at least once.
  EXPECT_GE(heap_c.heap_ops, input_nnz);
  EXPECT_GE(hash_c.hash_probes, input_nnz);
  EXPECT_GE(spa_c.spa_touches, input_nnz);
  EXPECT_GT(heap_c.bytes_moved, 0u);
}

TEST_F(KwayDriverTest, StaticScheduleGivesSameResult) {
  const auto inputs = random_collection(4, 128, 32, 300, 66);
  Options dyn, sta;
  sta.schedule = Schedule::Static;
  EXPECT_TRUE(approx_equal(spkadd_hash(std::span<const Csc>(inputs), dyn),
                           spkadd_hash(std::span<const Csc>(inputs), sta)));
}

TEST_F(KwayDriverTest, ExplicitThreadCounts) {
  const auto inputs = random_collection(4, 128, 16, 300, 71);
  const auto reference = spkadd_hash(std::span<const Csc>(inputs));
  for (int t : {1, 2, 4}) {
    Options opts;
    opts.threads = t;
    EXPECT_TRUE(approx_equal(reference,
                             spkadd_hash(std::span<const Csc>(inputs), opts)))
        << "threads=" << t;
    EXPECT_TRUE(approx_equal(reference,
                             spkadd_heap(std::span<const Csc>(inputs), opts)))
        << "threads=" << t;
  }
}

TEST_F(KwayDriverTest, SingleColumnManyRows) {
  const auto inputs = random_collection(16, 1 << 14, 1, 2000, 81);
  const auto hash_out = spkadd_hash(std::span<const Csc>(inputs));
  const auto heap_out = spkadd_heap(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(hash_out, heap_out));
}

TEST_F(KwayDriverTest, WideMatrixManyEmptyColumns) {
  std::vector<Csc> inputs;
  for (int i = 0; i < 4; ++i)
    inputs.push_back(from_triplets(
        8, 64, {{i, i * 7 % 64, 1.0}, {7 - i, (i * 13 + 1) % 64, 2.0}}));
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, spkadd_hash(std::span<const Csc>(inputs))));
  EXPECT_TRUE(approx_equal(oracle, spkadd_heap(std::span<const Csc>(inputs))));
  EXPECT_TRUE(approx_equal(oracle, spkadd_spa(std::span<const Csc>(inputs))));
}

// ------------------------------------------------- deterministic scratch
TEST(RuntimeScratch, SizeFollowsTheCallShapeNotTheSchedule) {
  // Every thread's scratch is grown to the call's largest need before each
  // column loop, so which thread draws which column cannot change the
  // pool: identical calls leave identical storage, under any schedule.
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::RMAT;
  spec.rows = 1 << 10;
  spec.cols = 1 << 6;
  spec.avg_nnz_per_col = 8;
  spec.k = 16;
  auto inputs = gen::make_workload(spec);
  for (const bool sorted : {true, false}) {
    if (!sorted)
      for (std::size_t i = 0; i < inputs.size(); ++i)
        gen::shuffle_columns(inputs[i], 70 + i);
    for (const auto m : {Method::Auto, Method::Hash, Method::SlidingHash,
                         Method::Spa, Method::Heap, Method::DenseAcc,
                         Method::Hybrid}) {
      if (!sorted && m == Method::Heap) continue;
      std::size_t reference = 0;
      for (const auto sched :
           {Schedule::Static, Schedule::Dynamic, Schedule::NnzBalanced}) {
        Options opts;
        opts.method = m;
        opts.schedule = sched;
        opts.threads = 4;
        opts.inputs_sorted = sorted;
        opts.max_table_entries = 64;  // make the sliding kernels slide
        Runtime<std::int32_t, double> rt;
        std::vector<const Csc*> ptrs;
        detail::borrow_all(std::span<const Csc>(inputs), ptrs);
        const Csc first = core::spkadd(MatrixPtrs<std::int32_t, double>(ptrs),
                                       opts, &rt);
        const std::size_t bytes = rt.storage_bytes();
        EXPECT_GT(bytes, 0u);
        // Every thread was grown to the call's largest need, whichever
        // columns it drew.
        ASSERT_EQ(rt.scratch.size(), 4u);
        for (const auto& s : rt.scratch)
          EXPECT_EQ(s.storage_bytes(), rt.scratch[0].storage_bytes())
              << method_name(m) << " " << schedule_name(sched);
        EXPECT_TRUE(core::spkadd(MatrixPtrs<std::int32_t, double>(ptrs), opts,
                                 &rt) == first);
        EXPECT_EQ(rt.storage_bytes(), bytes)
            << method_name(m) << " " << schedule_name(sched);
        if (reference == 0) reference = bytes;
        EXPECT_EQ(bytes, reference)
            << method_name(m) << " " << schedule_name(sched)
            << " sorted=" << sorted;
      }
    }
  }
}

}  // namespace
