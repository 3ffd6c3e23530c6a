// WindowedAggService: concurrent timestamped ingest over the MPMC
// burst path, drain exactness, windowed snapshot bit-identity against
// reference folds, expired-update accounting, invalid-update rejection,
// shutdown draining, and the one-unbounded-bucket running-sum case.
// Runs under the TSAN CI leg (label: concurrency).
#include "service/windowed_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using spkadd::service::WindowedAggService;
using spkadd::testing::Csc;

constexpr std::int32_t kRows = 150;
constexpr std::int32_t kCols = 9;

/// Integer-valued update: double addition is exact, so any
/// producer/worker interleaving yields bit-identical sums.
Csc integer_matrix(std::uint64_t seed) {
  spkadd::util::Xoshiro256 rng(seed);
  spkadd::CooMatrix<std::int32_t, double> coo(kRows, kCols);
  coo.reserve(80);
  for (std::size_t i = 0; i < 80; ++i) {
    const auto r = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(kRows)));
    const auto c = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(kCols)));
    coo.push(r, c, static_cast<double>(rng.bounded(9)) - 4.0);
  }
  coo.compress();
  return coo.to_csc();
}

WindowedAggService::Config small_config() {
  WindowedAggService::Config cfg;
  cfg.window.bucket_width = 10;
  cfg.window.live_buckets = 4;
  cfg.window.batch_window = 3;
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  cfg.burst_size = 8;
  return cfg;
}

/// Plain running sums: one unbounded bucket that every timestamp lands
/// in and nothing ever expires from.
WindowedAggService::Config running_sum_config() {
  WindowedAggService::Config cfg;
  cfg.window.bucket_width = std::numeric_limits<std::uint64_t>::max();
  cfg.window.live_buckets = 1;
  cfg.metrics = nullptr;
  return cfg;
}

/// Reference: per-bucket strict folds, then a strict left fold of the
/// partials ascending — the same shape TenantWindow::snapshot uses.
Csc reference_fold(const WindowedAggService::Config& cfg,
                   const std::vector<std::vector<Csc>>& bucket_streams) {
  std::vector<spkadd::core::Accumulator<>> accs;
  for (const auto& stream : bucket_streams) {
    if (stream.empty()) continue;
    accs.emplace_back(kRows, kCols, cfg.window.options,
                      cfg.window.batch_window);
    for (const auto& u : stream) accs.back().add(u);
  }
  if (accs.empty()) return Csc(kRows, kCols);
  std::vector<const Csc*> parts;
  for (auto& a : accs) parts.push_back(&a.partial_sum());
  if (parts.size() == 1) return *parts.front();
  return spkadd::core::spkadd(
      spkadd::core::MatrixPtrs<std::int32_t, double>(parts),
      cfg.window.options);
}

// ----------------------------------------------------- configuration
TEST(WindowedServiceConfig, RejectsUnusableKnobs) {
  auto cfg = small_config();
  cfg.workers = 0;
  EXPECT_THROW(WindowedAggService{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.queue_capacity = 0;
  EXPECT_THROW(WindowedAggService{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.window.live_buckets = 0;
  EXPECT_THROW(WindowedAggService{cfg}, std::invalid_argument);
}

// -------------------------------------------------------- bit-identity
TEST(WindowedService, ConcurrentProducersMatchReferenceFold) {
  // 4 producers stream integer-valued updates into 3 buckets of one
  // tenant; after drain every windowed snapshot must be bit-identical
  // to the single-threaded reference fold of those buckets.
  constexpr int kProducers = 4;
  constexpr int kPerBucket = 5;
  const auto cfg = small_config();
  std::vector<std::vector<Csc>> buckets(3);
  for (int b = 0; b < 3; ++b)
    for (int p = 0; p < kProducers; ++p)
      for (int i = 0; i < kPerBucket; ++i)
        buckets[static_cast<std::size_t>(b)].push_back(integer_matrix(
            static_cast<std::uint64_t>(b * 1000 + p * 100 + i)));

  WindowedAggService svc(cfg);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      // Buckets ascend so no producer can expire another's bucket
      // (live_buckets = 4 > 3 used); within a bucket, interleaving is
      // free because integer addition is order-exact.
      for (int b = 0; b < 3; ++b)
        for (int i = 0; i < kPerBucket; ++i) {
          const auto& u = buckets[static_cast<std::size_t>(b)]
                                 [static_cast<std::size_t>(
                                     p * kPerBucket + i)];
          EXPECT_TRUE(svc.submit(
              "t", static_cast<std::uint64_t>(b) * 10 + 3, Csc(u)));
        }
    });
  for (auto& t : producers) t.join();
  svc.drain();

  const auto full = svc.snapshot("t", 0);
  EXPECT_EQ(full.sum,
            reference_fold(cfg, {buckets[0], buckets[1], buckets[2]}));
  EXPECT_EQ(full.updates_applied,
            static_cast<std::uint64_t>(3 * kProducers * kPerBucket));
  const auto two = svc.snapshot("t", 2);
  EXPECT_EQ(two.sum, reference_fold(cfg, {buckets[1], buckets[2]}));
  const auto one = svc.snapshot("t", 1);
  EXPECT_EQ(one.sum, reference_fold(cfg, {buckets[2]}));
  EXPECT_GT(one.epoch, two.epoch);  // per-tenant epochs advance

  const auto stats = svc.stats();
  EXPECT_EQ(stats.applied, stats.submitted);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.apply_errors, 0u);
  EXPECT_EQ(stats.latency.count, stats.applied);  // submit -> applied
  EXPECT_LE(stats.latency.p50, stats.latency.p99);
  EXPECT_GT(stats.latency.p99, 0.0);
}

TEST(WindowedService, BurstSubmitMatchesPerUpdateSubmit) {
  // The net server's entry point: a whole burst enqueued at once must
  // fold to the same bits as per-update submits.
  const auto cfg = small_config();
  std::vector<Csc> updates;
  for (std::uint64_t i = 0; i < 12; ++i)
    updates.push_back(integer_matrix(i));

  WindowedAggService burst_svc(cfg);
  std::vector<WindowedAggService::TimedUpdate> burst;
  for (const auto& u : updates)
    burst.push_back(WindowedAggService::TimedUpdate{"t", 15, Csc(u)});
  EXPECT_EQ(burst_svc.submit_burst(burst), updates.size());
  EXPECT_TRUE(burst.empty());
  burst_svc.drain();

  WindowedAggService one_svc(cfg);
  for (const auto& u : updates)
    EXPECT_TRUE(one_svc.submit("t", 15, Csc(u)));
  one_svc.drain();

  EXPECT_EQ(burst_svc.snapshot("t", 0).sum, one_svc.snapshot("t", 0).sum);
  EXPECT_EQ(burst_svc.stats().bursts, 1u);
  EXPECT_EQ(burst_svc.stats().burst_updates, updates.size());
}

// ---------------------------------------------------- running sums
TEST(WindowedService, SingleWorkerRunningSumMatchesSequentialAccumulator) {
  // One bucket, one worker, one producer: the service folds in exactly
  // submission order, so even non-exact (arbitrary double) values must
  // match a sequential Accumulator bit for bit, at any timestamps.
  const auto updates =
      spkadd::testing::random_collection(12, kRows, kCols, 150, 3);
  auto cfg = running_sum_config();
  cfg.workers = 1;
  cfg.window.batch_window = 4;
  WindowedAggService svc(cfg);
  std::uint64_t ts = 0;
  for (const auto& u : updates) {
    EXPECT_TRUE(svc.submit("t", ts, Csc(u)));
    ts = ts * 7 + 1'000'003;
  }
  svc.drain();
  const auto snap = svc.snapshot("t", 0);
  spkadd::core::Accumulator<> acc(kRows, kCols, cfg.window.options,
                                  cfg.window.batch_window);
  for (const auto& u : updates) acc.add(u);
  EXPECT_EQ(snap.sum, acc.finalize());
  EXPECT_EQ(snap.updates_applied, updates.size());
  EXPECT_EQ(svc.stats().expired, 0u);
}

TEST(WindowedService, SnapshotDuringIngestNeverObservesTornUpdates) {
  // Every update writes value 1 at four rows of column 0. A snapshot
  // that saw part of an update would show those rows unequal; the
  // tenant lock must make each update all-or-nothing.
  constexpr int kUpdates = 60;
  constexpr std::int32_t kTornRows[] = {0, 40, 80, 120};
  spkadd::CooMatrix<std::int32_t, double> coo(kRows, kCols);
  for (const auto r : kTornRows) coo.push(r, 0, 1.0);
  coo.compress();
  const Csc update = coo.to_csc();

  auto cfg = running_sum_config();
  cfg.workers = 2;
  cfg.window.batch_window = 3;
  WindowedAggService svc(cfg);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < kUpdates; ++i)
      EXPECT_TRUE(svc.submit("c", static_cast<std::uint64_t>(i),
                             Csc(update)));
    done.store(true);
  });
  int observed = 0;
  while (!done.load() || observed == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    WindowedAggService::Snapshot snap;
    try {
      snap = svc.snapshot("c", 0);
    } catch (const std::invalid_argument&) {
      continue;  // tenant not created yet
    }
    ++observed;
    const double first = snap.sum.at(kTornRows[0], 0);
    for (const auto r : kTornRows)
      EXPECT_EQ(snap.sum.at(r, 0), first)
          << "torn update visible in snapshot " << snap.epoch;
    EXPECT_LE(first, static_cast<double>(kUpdates));
  }
  producer.join();
  svc.drain();
  const auto final_snap = svc.snapshot("c", 0);
  for (const auto r : kTornRows)
    EXPECT_EQ(final_snap.sum.at(r, 0), static_cast<double>(kUpdates));
  EXPECT_GE(final_snap.epoch, static_cast<std::uint64_t>(observed));
}

TEST(WindowedService, HybridFoldsMatchOneShotAndReportChunkMix) {
  // Per-chunk hybrid dispatch as the fold method: the concurrent
  // running sum must stay bit-identical to one-shot spkadd (integer
  // values), and the window's chunk-dispatch counters must surface the
  // kernel mix through WindowStats.
  std::vector<Csc> updates;
  for (std::uint64_t i = 0; i < 16; ++i)
    updates.push_back(integer_matrix(900 + i));
  const Csc expected = spkadd::core::spkadd(updates);

  auto cfg = running_sum_config();
  cfg.workers = 2;
  cfg.window.batch_window = 4;
  cfg.window.options.method = spkadd::core::Method::Hybrid;
  WindowedAggService svc(cfg);
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p)
    producers.emplace_back([&, p] {
      for (int i = p; i < 16; i += 2)
        EXPECT_TRUE(
            svc.submit("t", 0, Csc(updates[static_cast<std::size_t>(i)])));
    });
  for (auto& t : producers) t.join();
  svc.drain();
  EXPECT_EQ(svc.snapshot("t", 0).sum, expected);

  const auto st = svc.stats();
  ASSERT_EQ(st.tenants.size(), 1u);
  const auto& ws = st.tenants[0].second;
  EXPECT_GT(ws.chunks_heap + ws.chunks_spa + ws.chunks_hash +
                ws.chunks_sliding + ws.chunks_dense,
            0u);
}

// ------------------------------------------------ expiry + validation
TEST(WindowedService, ExpiredUpdatesAreCountedNeverFolded) {
  const auto cfg = small_config();  // live ring covers 4 buckets
  WindowedAggService svc(cfg);
  const Csc live = integer_matrix(1);
  EXPECT_TRUE(svc.submit("t", 75, Csc(live)));  // bucket 7
  svc.drain();
  const Csc before = svc.snapshot("t", 0).sum;
  EXPECT_TRUE(svc.submit("t", 5, integer_matrix(2)));  // bucket 0: stale
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.applied, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].second.expired_rejected, 1u);
  EXPECT_EQ(svc.snapshot("t", 0).sum, before);
}

TEST(WindowedService, ShapeMismatchThrowsAndLeavesBurstUntouched) {
  WindowedAggService svc(small_config());
  EXPECT_TRUE(svc.submit("t", 0, integer_matrix(1)));
  std::vector<WindowedAggService::TimedUpdate> burst;
  burst.push_back(WindowedAggService::TimedUpdate{
      "t", 1, spkadd::testing::random_matrix(kRows + 1, kCols, 10, 2)});
  EXPECT_THROW(svc.submit_burst(burst), std::invalid_argument);
  EXPECT_EQ(burst.size(), 1u);  // untouched: nothing partially queued
  svc.drain();
  EXPECT_EQ(svc.stats().applied, 1u);
}

TEST(WindowedService, RejectsUnsortedUpdatesWithoutPoisoningStagedBatches) {
  // The config declares inputs sorted (default), so an unsorted update
  // is invalid traffic (the daemon decodes wire payloads without
  // requiring sorted columns). It must be dropped and counted BEFORE it
  // is staged — not poison a half-full batch window so later folds or
  // snapshots throw, and not take staged good updates down with it.
  for (const std::size_t window : {1u, 4u}) {
    auto cfg = running_sum_config();
    cfg.workers = 1;
    cfg.window.batch_window = window;
    cfg.window.options.method = spkadd::core::Method::Heap;
    WindowedAggService svc(cfg);
    Csc unsorted = spkadd::testing::random_matrix(kRows, kCols, 60, 3);
    spkadd::gen::shuffle_columns(unsorted, 99);
    ASSERT_FALSE(unsorted.is_sorted());
    const Csc good = integer_matrix(4);
    EXPECT_TRUE(svc.submit("t", 0, Csc(good)));
    EXPECT_TRUE(svc.submit("t", 0, Csc(good)));  // staged at window=4
    EXPECT_TRUE(svc.submit("t", 0, std::move(unsorted)));  // dropped
    EXPECT_TRUE(svc.submit("t", 0, Csc(good)));
    svc.drain();
    const auto st = svc.stats();
    EXPECT_EQ(st.applied, 3u) << "window=" << window;
    EXPECT_EQ(st.apply_errors, 1u) << "window=" << window;
    // Snapshot must not throw, and every good update must survive.
    WindowedAggService::Snapshot snap;
    ASSERT_NO_THROW(snap = svc.snapshot("t", 0)) << "window=" << window;
    EXPECT_EQ(snap.sum, spkadd::core::spkadd(std::vector<Csc>{good, good,
                                                              good}))
        << "window=" << window;
  }
}

TEST(WindowedService, SnapshotValidatesTenantAndWindow) {
  WindowedAggService svc(small_config());
  EXPECT_THROW((void)svc.snapshot("ghost", 0), std::invalid_argument);
  EXPECT_TRUE(svc.submit("t", 0, integer_matrix(1)));
  svc.drain();
  EXPECT_THROW((void)svc.snapshot("t", 5), std::invalid_argument);
}

// ---------------------------------------------------------- shutdown
TEST(WindowedService, StopFoldsBacklogAndRejectsLateSubmits) {
  auto cfg = small_config();
  cfg.workers = 1;
  WindowedAggService svc(cfg);
  std::vector<Csc> updates;
  for (std::uint64_t i = 0; i < 10; ++i) {
    updates.push_back(integer_matrix(i));
    EXPECT_TRUE(svc.submit("t", 15, Csc(updates.back())));
  }
  svc.stop();  // close-drains the backlog before workers exit
  EXPECT_FALSE(svc.submit("t", 15, integer_matrix(99)));
  const auto stats = svc.stats();
  EXPECT_EQ(stats.applied, 10u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(svc.snapshot("t", 0).sum,
            reference_fold(cfg, {updates}));
}

TEST(WindowedService, MultiTenantStreamsStayIsolated) {
  const auto cfg = small_config();
  WindowedAggService svc(cfg);
  std::vector<Csc> a_updates, b_updates;
  std::thread ta([&] {
    for (std::uint64_t i = 0; i < 8; ++i) {
      a_updates.push_back(integer_matrix(1000 + i));
      EXPECT_TRUE(svc.submit("a", 12, Csc(a_updates.back())));
    }
  });
  std::thread tb([&] {
    for (std::uint64_t i = 0; i < 8; ++i) {
      b_updates.push_back(integer_matrix(2000 + i));
      EXPECT_TRUE(svc.submit("b", 22, Csc(b_updates.back())));
    }
  });
  ta.join();
  tb.join();
  svc.drain();
  EXPECT_EQ(svc.snapshot("a", 0).sum, reference_fold(cfg, {a_updates}));
  EXPECT_EQ(svc.snapshot("b", 0).sum, reference_fold(cfg, {b_updates}));
  EXPECT_EQ(svc.stats().tenants.size(), 2u);
}

}  // namespace
