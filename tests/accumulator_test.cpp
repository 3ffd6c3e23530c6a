// The streaming accumulator (paper §V as a stateful subsystem): incremental
// folds equal one-shot SpKAdd, zero-copy staging, workspace persistence
// across finalize() cycles, the nnz-balanced schedule, and the hash-sentinel
// shape guard.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/accumulator.hpp"
#include "core/batched.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "service/window.hpp"
#include "test_helpers.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::canonicalized;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::random_collection;
using spkadd::testing::random_matrix;

using Csc = spkadd::testing::Csc;

// ----------------------------------------------------- partial_sum borrow
TEST(Accumulator, PartialSumBorrowsWithoutConsumingTheStream) {
  const auto inputs = random_collection(6, 64, 8, 120, 11);
  Accumulator<> acc(64, 8, {}, 4);
  for (int i = 0; i < 3; ++i) acc.add(inputs[static_cast<std::size_t>(i)]);
  // Borrowing folds what is pending but keeps the stream alive.
  const Csc mid = acc.partial_sum();
  EXPECT_EQ(acc.pending(), 0u);
  std::vector<Csc> first3(inputs.begin(), inputs.begin() + 3);
  EXPECT_EQ(mid, core::spkadd(first3));
  for (int i = 3; i < 6; ++i) acc.add(inputs[static_cast<std::size_t>(i)]);
  // The earlier borrow did not disturb the running sum: finalize still
  // matches the full one-shot reduction.
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
}

TEST(Accumulator, PartialSumOfVirginAccumulatorIsAllZeroShape) {
  Accumulator<> acc(10, 4);
  const Csc& p = acc.partial_sum();
  EXPECT_EQ(p.rows(), 10);
  EXPECT_EQ(p.cols(), 4);
  EXPECT_EQ(p.nnz(), 0u);
  EXPECT_TRUE(acc.partial_is_sorted());
  // finalize() after the materializing borrow is still the zero matrix.
  EXPECT_EQ(acc.finalize().nnz(), 0u);
}

TEST(Accumulator, PartialSortednessTracksUnsortedHashFolds) {
  Options opts;
  opts.method = Method::Hash;
  opts.sorted_output = false;
  Accumulator<> acc(128, 6, opts, 2);
  const auto inputs = random_collection(4, 128, 6, 400, 5);
  for (const auto& m : inputs) acc.add(m);
  (void)acc.partial_sum();
  EXPECT_FALSE(acc.partial_is_sorted());
}

TEST(Accumulator, DiscardStagedRecoversAfterAFailedFold) {
  Options opts;
  opts.method = Method::Heap;  // requires sorted inputs
  Accumulator<> acc(64, 4, opts, 8);
  const auto sorted = random_collection(3, 64, 4, 80, 17);
  for (const auto& m : sorted) acc.add(m);
  acc.flush();
  Csc bad = random_matrix(64, 4, 80, 18);
  gen::shuffle_columns(bad, 5);
  acc.add(bad);
  EXPECT_THROW(acc.flush(), std::invalid_argument);
  // The failed batch is dropped; the running sum keeps its last
  // consistent value and the accumulator keeps working.
  acc.discard_staged();
  EXPECT_EQ(acc.pending(), 0u);
  acc.add(sorted[0]);
  std::vector<Csc> expected(sorted);
  expected.push_back(sorted[0]);
  EXPECT_TRUE(approx_equal(dense_sum_oracle(std::span<const Csc>(expected)),
                           acc.finalize()));
}

// --------------------------------------------------- incremental == one-shot
TEST(Accumulator, IncrementalAddEqualsOneShotSpkadd) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const int k : {1, 5, 8, 17}) {
      const auto inputs = random_collection(k, 96, 12, 200, seed);
      const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
      Accumulator<> acc(96, 12);
      for (const auto& m : inputs) acc.add(m);
      EXPECT_TRUE(approx_equal(oracle, acc.finalize()))
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(Accumulator, PropertyAcrossMethodsAndCapacities) {
  const auto inputs = random_collection(13, 64, 8, 150, 11);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (auto m : {Method::Auto, Method::TwoWayTree, Method::Heap, Method::Spa,
                 Method::Hash, Method::SlidingHash, Method::DenseAcc}) {
    for (const std::size_t cap : {1u, 2u, 4u, 13u, 100u}) {
      Options opts;
      opts.method = m;
      Accumulator<> acc(64, 8, opts, cap);
      acc.add_batch(std::span<const Csc>(inputs));
      EXPECT_TRUE(approx_equal(oracle, acc.finalize()))
          << method_name(m) << " cap=" << cap;
    }
  }
}

TEST(Accumulator, UnsortedOutputStreamsFoldCorrectly) {
  // sorted_output=false leaves the running sum unsorted between folds; the
  // accumulator must mark it non-sorted for the next fold.
  const auto inputs = random_collection(9, 80, 6, 160, 13);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.method = Method::Hash;
  opts.sorted_output = false;
  Accumulator<> acc(80, 6, opts, 3);
  for (const auto& m : inputs) acc.add(m);
  EXPECT_TRUE(approx_equal(oracle, canonicalized(acc.finalize())));
}

// ------------------------------------------------------------- edge streams
TEST(Accumulator, EmptyStreamYieldsAllZeroMatrix) {
  Accumulator<> acc(32, 4);
  const auto out = acc.finalize();
  EXPECT_EQ(out.rows(), 32);
  EXPECT_EQ(out.cols(), 4);
  EXPECT_EQ(out.nnz(), 0u);
}

TEST(Accumulator, SingleAddendStreamCopiesThrough) {
  const auto m = random_matrix(48, 6, 90, 17);
  Accumulator<> acc(48, 6);
  acc.add(m);
  EXPECT_TRUE(acc.finalize() == m);
}

TEST(Accumulator, EmptyAddendsAreHarmless) {
  auto inputs = random_collection(4, 40, 5, 80, 19);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Accumulator<> acc(40, 5, Options{}, 2);
  acc.add(Csc(40, 5));  // all-empty owned addend
  for (const auto& m : inputs) {
    acc.add(m);
    acc.add(Csc(40, 5));  // interleave empties
  }
  EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
}

TEST(Accumulator, RejectsNonConformantAddend) {
  Accumulator<> acc(16, 4);
  EXPECT_THROW(acc.add(Csc(16, 5)), std::invalid_argument);
  EXPECT_THROW(acc.add(Csc(17, 4)), std::invalid_argument);
}

TEST(Accumulator, RejectsZeroBatchCapacity) {
  EXPECT_THROW(Accumulator<>(8, 2, Options{}, 0), std::invalid_argument);
}

// --------------------------------------------------------------- zero copies
TEST(Accumulator, BorrowedStreamingMakesZeroInputCopies) {
  const auto inputs = random_collection(16, 64, 8, 120, 23);
  Options opts;
  opts.method = Method::Hash;
  Accumulator<> acc(64, 8, opts, 4);
  const std::uint64_t before = debug::csc_copies();
  for (const auto& m : inputs) acc.add(m);
  auto out = acc.finalize();
  EXPECT_EQ(debug::csc_copies() - before, 0u);
  EXPECT_GT(out.nnz(), 0u);
}

TEST(Accumulator, MovedAddendsMakeZeroCopies) {
  auto inputs = random_collection(10, 64, 8, 120, 29);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.method = Method::Hash;
  Accumulator<> acc(64, 8, opts, 3);
  const std::uint64_t before = debug::csc_copies();
  for (auto& m : inputs) acc.add(std::move(m));
  const auto out = acc.finalize();
  EXPECT_EQ(debug::csc_copies() - before, 0u);
  EXPECT_TRUE(approx_equal(oracle, out));
}

// ----------------------------------------------------------- workspace reuse
TEST(Accumulator, WorkspaceSurvivesFinalizeAndDoesNotRegrow) {
  const auto inputs = random_collection(12, 128, 16, 400, 31);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.method = Method::Hash;
  Accumulator<> acc(128, 16, opts, 4);

  acc.add_batch(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
  const std::size_t grown = acc.workspace_bytes();
  EXPECT_GT(grown, 0u);  // scratch survives finalize()

  // An identical second stream must not grow the scratch further.
  acc.add_batch(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
  EXPECT_EQ(acc.workspace_bytes(), grown);
  EXPECT_EQ(acc.stats().addends, 24u);
  EXPECT_GE(acc.stats().flushes, 6u);
}

TEST(Accumulator, StatsTrackPeakIntermediateFootprint) {
  const auto inputs = random_collection(8, 64, 8, 200, 37);
  Accumulator<> acc(64, 8, Options{}, 4);
  acc.add_batch(std::span<const Csc>(inputs));
  (void)acc.finalize();
  EXPECT_GT(acc.stats().peak_intermediate_bytes, 0u);
}

// ----------------------------------------------- in-place staging + reshape
TEST(Accumulator, StageBufferEmitsInPlaceWithZeroCopies) {
  auto inputs = random_collection(9, 64, 8, 150, 41);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.method = Method::Hash;
  Accumulator<> acc(64, 8, opts, 3);
  const std::uint64_t before = debug::csc_copies();
  for (auto& m : inputs) {
    acc.stage_buffer() = std::move(m);  // the producer fills the slot
    acc.commit_staged();
  }
  const auto out = acc.finalize();
  EXPECT_EQ(debug::csc_copies() - before, 0u);
  EXPECT_TRUE(approx_equal(oracle, out));
}

TEST(Accumulator, StageBufferProtocolIsEnforced) {
  const auto m = random_matrix(16, 4, 30, 42);
  Accumulator<> acc(16, 4);
  EXPECT_THROW(acc.commit_staged(), std::logic_error);  // nothing open
  auto& slot = acc.stage_buffer();
  EXPECT_THROW((void)acc.stage_buffer(), std::logic_error);  // already open
  EXPECT_THROW(acc.flush(), std::logic_error);  // fold with an open buffer
  EXPECT_THROW(acc.add(m), std::logic_error);   // add with an open buffer
  EXPECT_THROW(acc.add(Csc(m)), std::logic_error);  // owned add, same
  slot = Csc(16, 4);
  acc.commit_staged();
  EXPECT_EQ(acc.pending(), 1u);
  // A committed wrong-shape emission is rejected like any other addend.
  acc.stage_buffer() = Csc(8, 4);
  EXPECT_THROW(acc.commit_staged(), std::invalid_argument);
}

TEST(Accumulator, RejectedStageBufferLeavesNoDebris) {
  // A wrong-shape emission must vanish entirely: the next single-addend
  // stream must yield that addend, not the rejected buffer's contents.
  const auto m = random_matrix(16, 4, 30, 48);
  Accumulator<> acc(16, 4);
  acc.stage_buffer() = Csc(8, 4);
  EXPECT_THROW(acc.commit_staged(), std::invalid_argument);
  acc.add(m);  // borrowed single addend
  const auto out = acc.finalize();
  EXPECT_TRUE(out == m);
}

TEST(Accumulator, ReshapeServesDifferentlyShapedStreams) {
  Accumulator<> acc(64, 8, Options{}, 4);
  const auto first = random_collection(6, 64, 8, 150, 43);
  acc.add_batch(std::span<const Csc>(first));
  EXPECT_TRUE(approx_equal(dense_sum_oracle(std::span<const Csc>(first)),
                           acc.finalize()));
  const std::size_t grown = acc.workspace_bytes();

  acc.reshape(32, 5);
  EXPECT_EQ(acc.rows(), 32);
  EXPECT_EQ(acc.cols(), 5);
  EXPECT_EQ(acc.workspace_bytes(), grown);  // scratch survives the reshape
  const auto second = random_collection(6, 32, 5, 80, 44);
  acc.add_batch(std::span<const Csc>(second));
  EXPECT_TRUE(approx_equal(dense_sum_oracle(std::span<const Csc>(second)),
                           acc.finalize()));
}

TEST(Accumulator, ReshapeWhileNotIdleThrows) {
  const auto m = random_matrix(16, 4, 30, 45);
  Accumulator<> acc(16, 4);
  acc.add(m);
  EXPECT_THROW(acc.reshape(8, 8), std::logic_error);  // pending addend
  acc.flush();
  EXPECT_THROW(acc.reshape(8, 8), std::logic_error);  // running sum exists
  (void)acc.finalize();
  acc.reshape(8, 8);  // idle again: fine
  EXPECT_EQ(acc.rows(), 8);
}

TEST(Accumulator, PeakStagedNnzIsBoundedByBatchCapacity) {
  const auto inputs = random_collection(12, 64, 8, 200, 46);
  std::size_t max_addend = 0;
  for (const auto& m : inputs) max_addend = std::max(max_addend, m.nnz());
  for (const std::size_t cap : {1u, 2u, 4u}) {
    Accumulator<> acc(64, 8, Options{}, cap);
    acc.add_batch(std::span<const Csc>(inputs));
    (void)acc.finalize();
    EXPECT_LE(acc.stats().peak_staged_nnz, cap * max_addend) << "cap=" << cap;
    EXPECT_GT(acc.stats().peak_staged_nnz, 0u);
  }
}

TEST(Accumulator, HeapMethodStreamingIsBitIdenticalToOneShot) {
  // The (row, source) heap tie-break makes the k-way merge a strict left
  // fold, so incremental heap folds reproduce one-shot heap SpKAdd exactly.
  const auto inputs = random_collection(11, 96, 10, 400, 47);
  Options opts;
  opts.method = Method::Heap;
  const auto one_shot = core::spkadd(std::span<const Csc>(inputs), opts);
  for (const std::size_t cap : {1u, 2u, 3u, 16u}) {
    Accumulator<> acc(96, 10, opts, cap);
    acc.add_batch(std::span<const Csc>(inputs));
    EXPECT_TRUE(acc.finalize() == one_shot) << "cap=" << cap;
  }
}

// ------------------------------------------------------ resident running sum
// Shapes whose columns cross the hash→dense break-even mid-stream: with
// 256 rows a column turns dense past ~64 distinct rows, i.e. after about
// eight ER addends of d = 8 (RMAT's heavy columns sooner, its light ones
// never).
std::vector<Csc> crossing_stream(gen::Pattern pattern, std::uint64_t seed) {
  gen::WorkloadSpec spec;
  spec.pattern = pattern;
  spec.rows = 256;
  spec.cols = 16;
  spec.avg_nnz_per_col = 8;
  spec.k = 32;
  spec.seed = seed;
  return gen::make_workload(spec);
}

Csc one_shot_prefix(const std::vector<Csc>& inputs, std::size_t n,
                    const Options& opts = {}) {
  return core::spkadd(std::span<const Csc>(inputs).first(n), opts);
}

TEST(ResidentSum, EveryReadIsByteIdenticalToOneShotPrefix) {
  for (const auto pattern : {gen::Pattern::ER, gen::Pattern::RMAT}) {
    const auto inputs = crossing_stream(pattern, 61);
    for (const std::size_t cadence : {1u, 3u, 13u, 0u}) {
      for (const std::size_t cap : {1u, 2u, 8u}) {
        Accumulator<> acc(256, 16, Options{}, cap);
        std::size_t dense_at_first_fold = 0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          acc.add(inputs[i]);
          if (acc.stats().flushes == 1 && acc.pending() == 0)
            dense_at_first_fold = acc.dense_resident_cols();
          if (cadence != 0 && (i + 1) % cadence == 0) {
            EXPECT_TRUE(acc.partial_sum() == one_shot_prefix(inputs, i + 1))
                << "prefix " << i + 1 << " cadence " << cadence << " cap "
                << cap;
          }
        }
        acc.flush();
        // The stream really crossed the break-even: few or no dense
        // columns early, some by the end, and a column never switches back.
        EXPECT_LT(dense_at_first_fold, 16u);
        EXPECT_GT(acc.dense_resident_cols(), 0u);
        EXPECT_EQ(acc.dense_resident_cols(), acc.stats().dense_promotions);
        EXPECT_TRUE(acc.finalize() == one_shot_prefix(inputs, inputs.size()))
            << "cadence " << cadence << " cap " << cap;
        EXPECT_EQ(acc.dense_resident_cols(), 0u);
      }
    }
  }
}

TEST(ResidentSum, UnsortedOutputHoldsTheSameBytesPerColumn) {
  // sorted_output=false lists hash columns' rows in first-seen order;
  // each column still holds exactly the one-shot entries, value bytes
  // included.
  const auto inputs = crossing_stream(gen::Pattern::RMAT, 62);
  Options opts;
  opts.method = Method::Hash;
  opts.sorted_output = false;
  Accumulator<> acc(256, 16, opts, 2);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    acc.add(inputs[i]);
    if ((i + 1) % 3 == 0) {
      EXPECT_TRUE(canonicalized(acc.partial_sum()) ==
                  one_shot_prefix(inputs, i + 1))
          << "prefix " << i + 1;
    }
  }
  EXPECT_FALSE(acc.partial_is_sorted());
  EXPECT_TRUE(canonicalized(acc.finalize()) ==
              one_shot_prefix(inputs, inputs.size()));
}

TEST(ResidentSum, SortedMethodsKeepSortedPartialsUnderUnsortedOutput) {
  // The merge, heap and dense families emit sorted columns whatever
  // sorted_output says, so their partials stay byte-identical to one-shot
  // and sorted, and a snapshot that adds window buckets' partials under
  // such a method (which requires sorted inputs) still accepts them.
  const auto inputs = crossing_stream(gen::Pattern::RMAT, 67);
  for (const auto m :
       {Method::Heap, Method::TwoWayIncremental, Method::DenseAcc}) {
    Options opts;
    opts.method = m;
    opts.sorted_output = false;
    Accumulator<> acc(256, 16, opts, 3);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      acc.add(inputs[i]);
      if ((i + 1) % 5 == 0) {
        EXPECT_TRUE(acc.partial_sum() == one_shot_prefix(inputs, i + 1, opts))
            << method_name(m) << " prefix " << i + 1;
        EXPECT_TRUE(acc.partial_is_sorted()) << method_name(m);
      }
    }
    EXPECT_TRUE(acc.finalize() ==
                one_shot_prefix(inputs, inputs.size(), opts))
        << method_name(m);
  }

  // A window snapshot adds four bucket partials under Heap, which
  // requires sorted inputs: the partials must qualify, and the sum
  // equals the one-shot sum of the per-bucket one-shot sums.
  service::WindowConfig wcfg;
  wcfg.bucket_width = 1;
  wcfg.live_buckets = 4;
  wcfg.batch_window = 3;
  wcfg.options.method = Method::Heap;
  wcfg.options.sorted_output = false;
  service::TenantWindow window(256, 16, wcfg);
  std::vector<Csc> bucket_sums;
  const std::size_t per_bucket = inputs.size() / 4;
  for (std::size_t b = 0; b < 4; ++b) {
    const auto slice =
        std::span<const Csc>(inputs).subspan(b * per_bucket, per_bucket);
    for (const auto& u : slice) EXPECT_TRUE(window.submit(b, Csc(u)));
    bucket_sums.push_back(core::spkadd(slice, wcfg.options));
  }
  const Csc snap = window.snapshot();
  EXPECT_EQ(window.stats().live_buckets, 4u);
  EXPECT_TRUE(snap.is_sorted());
  EXPECT_TRUE(snap == core::spkadd(bucket_sums, wcfg.options));
}

TEST(ResidentSum, RejectedAddendLeavesSumAndSnapshotUntouched) {
  const auto inputs = crossing_stream(gen::Pattern::ER, 63);
  Options opts;
  opts.method = Method::Heap;  // the heap family rejects unsorted addends
  Accumulator<> acc(256, 16, opts, 4);
  for (std::size_t i = 0; i < 12; ++i) acc.add(inputs[i]);
  const Csc& snap = acc.partial_sum();
  const Csc before = snap;
  ASSERT_GT(acc.dense_resident_cols(), 0u);
  const auto emissions = acc.stats().emissions;
  Csc bad = inputs[12];
  gen::shuffle_columns(bad, 7);
  ASSERT_FALSE(bad.is_sorted());
  acc.add(inputs[13]);
  acc.add(bad);
  EXPECT_THROW(acc.flush(), std::invalid_argument);
  EXPECT_TRUE(snap == before);  // the last snapshot is intact
  acc.discard_staged();
  // Nothing was folded: the read is clean and returns the same snapshot.
  EXPECT_TRUE(acc.partial_sum() == before);
  EXPECT_EQ(acc.stats().emissions, emissions);
  for (std::size_t i = 12; i < inputs.size(); ++i) acc.add(inputs[i]);
  EXPECT_TRUE(acc.finalize() == one_shot_prefix(inputs, inputs.size(), opts));
}

TEST(ResidentSum, StagingDiscardAndReshapeWithLiveResidency) {
  const auto inputs = crossing_stream(gen::Pattern::ER, 64);
  Accumulator<> acc(256, 16, Options{}, 4);
  for (std::size_t i = 0; i < 16; ++i) acc.add(inputs[i]);
  ASSERT_GT(acc.dense_resident_cols(), 0u);
  // A staged addend discarded while columns are resident never lands.
  acc.add(inputs[31]);
  acc.discard_staged();
  // In-place staging folds into the resident columns.
  for (std::size_t i = 16; i < 20; ++i) {
    acc.stage_buffer() = Csc(inputs[i]);
    acc.commit_staged();
  }
  EXPECT_TRUE(acc.partial_sum() == one_shot_prefix(inputs, 20));
  EXPECT_THROW(acc.reshape(64, 4), std::logic_error);  // running sum lives
  EXPECT_TRUE(acc.finalize() == one_shot_prefix(inputs, 20));

  acc.reshape(64, 4);
  const auto small = random_collection(6, 64, 4, 120, 65);
  acc.add_batch(std::span<const Csc>(small));
  EXPECT_TRUE(acc.finalize() == core::spkadd(small));
  // The same 20 addends in the same batches again: the store's capacity
  // is kept across the reshapes, so it does not regrow.
  const std::size_t grown = acc.workspace_bytes();
  acc.reshape(256, 16);
  EXPECT_EQ(acc.workspace_bytes(), grown);
  acc.add_batch(std::span<const Csc>(inputs).first(20));
  EXPECT_TRUE(acc.finalize() == one_shot_prefix(inputs, 20));
  EXPECT_EQ(acc.workspace_bytes(), grown);
}

TEST(ResidentSum, CleanReadReturnsTheCachedSnapshot) {
  const auto inputs = crossing_stream(gen::Pattern::ER, 66);
  OpCounters counters;
  Options opts;
  opts.counters = &counters;
  Accumulator<> acc(256, 16, opts, 8);
  std::size_t addend_nnz = 0, emitted_nnz = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    acc.add(inputs[i]);
    addend_nnz += inputs[i].nnz();
  }
  const Csc* first = &acc.partial_sum();
  emitted_nnz += first->nnz();
  EXPECT_EQ(acc.stats().emissions, 1u);
  // Nothing folded since: no re-emission, the same matrix.
  EXPECT_EQ(&acc.partial_sum(), first);
  acc.flush();
  EXPECT_EQ(&acc.partial_sum(), first);
  EXPECT_EQ(acc.stats().emissions, 1u);
  acc.add(inputs[5]);
  addend_nnz += inputs[5].nnz();
  emitted_nnz += acc.partial_sum().nnz();
  EXPECT_EQ(acc.stats().emissions, 2u);
  // I/O accounting: each fold reads its addends once, each emission
  // writes its snapshot once — the running sum is never re-streamed.
  constexpr std::size_t kEntry = sizeof(std::int32_t) + sizeof(double);
  EXPECT_EQ(counters.bytes_moved, (addend_nnz + emitted_nnz) * kEntry);
}

// ------------------------------------------------------ nnz-aware scheduling
TEST(Schedule, NnzBalancedMatchesOtherSchedulesExactly) {
  // Skewed columns (RMAT-ish) are where balancing matters; results must be
  // bit-identical across schedules because the per-column work is the same.
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::RMAT;
  spec.rows = 1 << 10;
  spec.cols = 1 << 6;
  spec.avg_nnz_per_col = 8;
  spec.k = 8;  // make_workload requires a power of two
  const auto inputs = gen::make_workload(spec);
  for (auto m : {Method::Heap, Method::Spa, Method::Hash,
                 Method::SlidingHash}) {
    Options dyn;
    dyn.method = m;
    dyn.schedule = Schedule::Dynamic;
    Options bal = dyn;
    bal.schedule = Schedule::NnzBalanced;
    EXPECT_TRUE(core::spkadd(inputs, dyn) == core::spkadd(inputs, bal))
        << method_name(m);
  }
}

TEST(Schedule, NnzBalancedWorksThroughBatchedAndAccumulator) {
  const auto inputs = random_collection(11, 96, 12, 250, 41);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  Options opts;
  opts.schedule = Schedule::NnzBalanced;
  EXPECT_TRUE(approx_equal(
      oracle, spkadd_batched(std::span<const Csc>(inputs), 4, opts)));
  Accumulator<> acc(96, 12, opts, 3);
  acc.add_batch(std::span<const Csc>(inputs));
  EXPECT_TRUE(approx_equal(oracle, acc.finalize()));
}

TEST(Schedule, NamesAreDistinct) {
  EXPECT_NE(schedule_name(Schedule::Dynamic), schedule_name(Schedule::Static));
  EXPECT_NE(schedule_name(Schedule::Dynamic),
            schedule_name(Schedule::NnzBalanced));
}

// ------------------------------------------------------- hash sentinel guard
TEST(SentinelGuard, UnsignedMaxRowCountIsRejected) {
  using UCsc = CscMatrix<std::uint32_t, double>;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  const UCsc bad(kMax, 1);  // shape only: no entries allocated
  EXPECT_FALSE(validate(bad));
  std::vector<UCsc> inputs{bad, bad};
  EXPECT_THROW(
      (void)core::spkadd(std::span<const UCsc>(inputs), Options{}),
      std::invalid_argument);
  EXPECT_THROW((Accumulator<std::uint32_t, double>(kMax, 1)),
               std::invalid_argument);
}

TEST(SentinelGuard, SaneUnsignedShapesStillWork) {
  using UCsc = CscMatrix<std::uint32_t, double>;
  UCsc a(8, 2, {0, 2, 3}, {1, 5, 7}, {1.0, 2.0, 3.0});
  UCsc b(8, 2, {0, 1, 3}, {5, 0, 7}, {10.0, 4.0, 5.0});
  EXPECT_TRUE(validate(a));
  std::vector<UCsc> inputs{a, b};
  Options opts;
  opts.method = Method::Hash;
  const auto sum = core::spkadd(std::span<const UCsc>(inputs), opts);
  EXPECT_EQ(sum.nnz(), 4u);
  EXPECT_DOUBLE_EQ(sum.at(5, 0), 12.0);
  EXPECT_DOUBLE_EQ(sum.at(7, 1), 8.0);
}

TEST(SentinelGuard, SignedShapesAreUnaffected) {
  const auto inputs = random_collection(3, 32, 4, 60, 43);
  EXPECT_TRUE(validate(inputs[0]));
  EXPECT_NO_THROW((void)core::spkadd(inputs));
}

}  // namespace
