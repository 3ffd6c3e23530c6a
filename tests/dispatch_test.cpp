// Unified spkadd() dispatch, the Auto policy and Options plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "matrix/validate.hpp"
#include "test_helpers.hpp"
#include "util/cache_info.hpp"
#include "util/rng.hpp"

namespace {

using namespace spkadd;
using namespace spkadd::core;
using spkadd::testing::dense_sum_oracle;
using spkadd::testing::random_collection;

using Csc = spkadd::testing::Csc;
using Coo = spkadd::testing::Coo;

TEST(Dispatch, EveryMethodProducesTheSameSum) {
  const auto inputs = random_collection(8, 128, 16, 300, 1);
  const auto oracle = dense_sum_oracle(std::span<const Csc>(inputs));
  for (auto m : {Method::TwoWayIncremental, Method::TwoWayTree, Method::Heap,
                 Method::Spa, Method::Hash, Method::SlidingHash,
                 Method::DenseAcc, Method::ReferenceIncremental,
                 Method::ReferenceTree, Method::Auto, Method::Hybrid}) {
    Options opts;
    opts.method = m;
    EXPECT_TRUE(approx_equal(oracle, core::spkadd(inputs, opts)))
        << method_name(m);
  }
}

TEST(Dispatch, SingleInputIsCopiedThrough) {
  const auto inputs = random_collection(1, 32, 4, 40, 3);
  const auto out = core::spkadd(inputs);
  EXPECT_TRUE(out == inputs[0]);
}

TEST(Dispatch, SingleUnsortedInputIsCanonicalizedOnRequest) {
  auto inputs = random_collection(1, 64, 8, 120, 4);
  const auto sorted_original = inputs[0];
  spkadd::gen::shuffle_columns(inputs[0], 5);
  Options opts;
  opts.inputs_sorted = false;
  opts.sorted_output = true;
  EXPECT_TRUE(core::spkadd(inputs, opts) == sorted_original);
}

TEST(Dispatch, EmptyCollectionThrows) {
  std::vector<Csc> empty;
  EXPECT_THROW(core::spkadd(empty), std::invalid_argument);
}

TEST(AutoPolicy, SmallTablesPickPlainHash) {
  const auto inputs = random_collection(4, 256, 16, 200, 7);
  Options opts;
  opts.llc_bytes = 32u << 20;  // plenty of cache
  opts.threads = 1;
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), opts), Method::Hash);
}

TEST(AutoPolicy, CacheOverflowPicksSlidingHash) {
  const auto inputs = random_collection(8, 1 << 12, 2, 3000, 8);
  Options opts;
  opts.llc_bytes = 1 << 10;  // 1KB "LLC": tables cannot fit
  opts.threads = 4;
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), opts),
            Method::SlidingHash);
}

TEST(AutoPolicy, PairOfSortedInputsUsesTree) {
  const auto inputs = random_collection(2, 64, 8, 100, 9);
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), Options{}),
            Method::TwoWayTree);
}

TEST(AutoPolicy, RespectsGlobalLlcOverride) {
  const auto inputs = random_collection(8, 1 << 12, 2, 3000, 10);
  Options opts;
  opts.threads = 4;
  util::set_llc_override(1 << 10);
  const auto with_small = auto_select(std::span<const Csc>(inputs), opts);
  util::set_llc_override(1u << 30);
  const auto with_large = auto_select(std::span<const Csc>(inputs), opts);
  util::set_llc_override(0);
  EXPECT_EQ(with_small, Method::SlidingHash);
  EXPECT_EQ(with_large, Method::Hash);
}

TEST(AutoPolicy, DeterministicLlcBoundaryRegression) {
  // 4 addends, each contributing 10 distinct rows to column 0, so the
  // heaviest summed column has exactly 40 entries. With entry bytes
  // b = sizeof(int32) + sizeof(double) = 12 and threads pinned to 3, the
  // numeric-phase tables need 12 * 3 * 40 = 1440 bytes. The Fig. 2 surface
  // is "tables overflow LLC", so an exactly-fitting budget stays Hash and
  // one byte less tips to SlidingHash — independent of the host's real LLC
  // because opts.llc_bytes is pinned.
  std::vector<Csc> inputs;
  for (int i = 0; i < 4; ++i) {
    Coo coo(64, 2);
    for (int r = 0; r < 10; ++r)
      coo.push(static_cast<std::int32_t>(i * 10 + r), 0, 1.0);
    coo.compress();
    inputs.push_back(coo.to_csc());
  }
  constexpr std::size_t kTableBytes =
      (sizeof(std::int32_t) + sizeof(double)) * 3 * 40;
  Options opts;
  opts.threads = 3;
  opts.llc_bytes = kTableBytes;
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), opts), Method::Hash);
  opts.llc_bytes = kTableBytes - 1;
  EXPECT_EQ(auto_select(std::span<const Csc>(inputs), opts),
            Method::SlidingHash);
}

namespace {
constexpr Method kAllMethods[] = {
    Method::TwoWayIncremental, Method::TwoWayTree,
    Method::Heap,              Method::Spa,
    Method::Hash,              Method::SlidingHash,
    Method::DenseAcc,
    Method::ReferenceIncremental,
    Method::ReferenceTree,     Method::Auto,
    Method::Hybrid};
}  // namespace

TEST(MethodName, AllNamesDistinct) {
  std::set<std::string> names;
  for (auto m : kAllMethods) names.insert(method_name(m));
  EXPECT_EQ(names.size(), 11u);
}

TEST(MethodName, FromNameRoundTripsEveryMethod) {
  for (auto m : kAllMethods) EXPECT_EQ(method_from_name(method_name(m)), m);
}

TEST(MethodName, FromNameAcceptsCliSpellings) {
  EXPECT_EQ(method_from_name("hash"), Method::Hash);
  EXPECT_EQ(method_from_name("sliding-hash"), Method::SlidingHash);
  EXPECT_EQ(method_from_name("SLIDING_HASH"), Method::SlidingHash);
  EXPECT_EQ(method_from_name("2way-tree"), Method::TwoWayTree);
  EXPECT_EQ(method_from_name("ref-tree"), Method::ReferenceTree);
  EXPECT_EQ(method_from_name("Hybrid"), Method::Hybrid);
  EXPECT_EQ(method_from_name("dense"), Method::DenseAcc);
  EXPECT_EQ(method_from_name("DenseAcc"), Method::DenseAcc);
  EXPECT_THROW((void)method_from_name("hashish"), std::invalid_argument);
  EXPECT_THROW((void)method_from_name(""), std::invalid_argument);
}

TEST(ScheduleName, FromNameRoundTripsEverySchedule) {
  for (auto s :
       {Schedule::Dynamic, Schedule::Static, Schedule::NnzBalanced})
    EXPECT_EQ(schedule_from_name(schedule_name(s)), s);
  EXPECT_EQ(schedule_from_name("NNZ-Balanced"), Schedule::NnzBalanced);
  EXPECT_THROW((void)schedule_from_name("guided"), std::invalid_argument);
}

TEST(Dispatch, VectorOverloadMatchesSpanOverload) {
  const auto inputs = random_collection(4, 64, 8, 100, 11);
  EXPECT_TRUE(core::spkadd(inputs) ==
              core::spkadd(std::span<const Csc>(inputs), Options{}));
}

/// Cut `costs` with default Options at `threads` threads and check the
/// chunks tile [0, n) and none costs more than the thread share
/// ceil(total / threads) or its own heaviest column.
void expect_capped_chunks(const std::vector<std::uint64_t>& costs,
                          int threads) {
  Options opts;
  opts.threads = threads;
  const auto n = static_cast<std::int32_t>(costs.size());
  HybridPlan<std::int32_t> plan;
  plan_single(ColumnKernel::Hash, n, std::span<const std::uint64_t>(costs),
              opts, plan);
  std::uint64_t total = 0;
  for (const std::uint64_t c : costs) total += c;
  const auto t = static_cast<std::uint64_t>(threads);
  const std::uint64_t share = (total + t - 1) / t;
  std::int32_t next = 0;
  for (const auto& [c0, c1] : plan.chunks) {
    ASSERT_EQ(c0, next);
    ASSERT_LT(c0, c1);
    next = c1;
    std::uint64_t sum = 0, heaviest = 0;
    for (std::int32_t j = c0; j < c1; ++j) {
      sum += costs[static_cast<std::size_t>(j)];
      heaviest = std::max(heaviest, costs[static_cast<std::size_t>(j)]);
    }
    EXPECT_LE(sum, std::max(heaviest, share))
        << "chunk [" << c0 << ", " << c1 << ") at " << threads << " threads";
  }
  EXPECT_EQ(next, n);
}

// The default schedule is the cost-balanced one. On an oneshot-rmat-like
// group (64 columns; one 8-column window holds 43% of the cost, with
// per-window shares 0.43/0.14/0.14/0.04/0.14/0.05/0.04/0.01 and each
// window's cost halving column by column) no chunk exceeds a thread's
// share unless one column alone does.
TEST(Schedule, DefaultCutsHubWindowIntoCappedChunks) {
  EXPECT_EQ(Options{}.schedule, Schedule::NnzBalanced);
  const double share[8] = {0.43, 0.14, 0.14, 0.04, 0.14, 0.05, 0.04, 0.01};
  std::vector<std::uint64_t> costs;
  for (const double s : share)
    for (int i = 0; i < 8; ++i)
      costs.push_back(static_cast<std::uint64_t>(
          1e6 * s * std::ldexp(1.0, -(i + 1)) / (1.0 - std::ldexp(1.0, -8))));
  for (const int threads : {1, 2, 3, 4, 8})
    expect_capped_chunks(costs, threads);
}

// A hub column that arrives while a chunk already holds light columns
// starts a chunk of its own instead of adding their cost to its own.
TEST(Schedule, HubColumnNeverCarriesLightNeighbours) {
  std::vector<std::uint64_t> costs(1000, 1);
  costs[10] = 200;
  for (const int threads : {1, 2, 3, 4, 8})
    expect_capped_chunks(costs, threads);
  util::Xoshiro256 rng(31);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::uint64_t> skewed(1 + rng.bounded(300));
    for (auto& c : skewed)
      c = rng.bounded(4) == 0 ? rng.bounded(1 << 16) : rng.bounded(64);
    expect_capped_chunks(skewed, 1 + static_cast<int>(rng.bounded(8)));
  }
}

}  // namespace
