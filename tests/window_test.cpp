// TenantWindow: bucket routing, O(1) expiry, windowed snapshot
// bit-identity against reference folds, and the window-edge cases
// (rotation-spanning snapshots, expired submits, bucket boundaries),
// and recovery from a fold that throws.
#include "service/window.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "test_helpers.hpp"

namespace {

using spkadd::core::Accumulator;
using spkadd::service::TenantWindow;
using spkadd::service::WindowConfig;
using spkadd::testing::Csc;

constexpr std::int32_t kRows = 120;
constexpr std::int32_t kCols = 7;

Csc update(std::uint64_t seed) {
  return spkadd::testing::random_matrix(kRows, kCols, 60, seed);
}

/// Reference for a windowed snapshot: per-bucket strict folds in
/// submission order, then a strict left fold of the bucket partials in
/// ascending bucket order — the single-threaded shape the window's
/// bit-identity guarantee is stated against.
Csc reference_fold(const WindowConfig& cfg,
                   const std::vector<std::vector<Csc>>& bucket_streams) {
  std::vector<Accumulator<>> accs;
  for (const auto& stream : bucket_streams) {
    if (stream.empty()) continue;
    accs.emplace_back(kRows, kCols, cfg.options, cfg.batch_window);
    for (const auto& u : stream) accs.back().add(u);
  }
  if (accs.empty()) return Csc(kRows, kCols);
  std::vector<const Csc*> parts;
  bool sorted = true;
  for (auto& a : accs) {
    parts.push_back(&a.partial_sum());
    sorted = sorted && a.partial_is_sorted();
  }
  if (parts.size() == 1) return *parts.front();
  spkadd::core::Options opts = cfg.options;
  opts.inputs_sorted = opts.inputs_sorted && sorted;
  return spkadd::core::spkadd(
      spkadd::core::MatrixPtrs<std::int32_t, double>(parts), opts);
}

// ------------------------------------------------------- configuration
TEST(WindowConfig, RejectsUnusableKnobs) {
  WindowConfig cfg;
  cfg.bucket_width = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = WindowConfig{};
  cfg.live_buckets = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = WindowConfig{};
  cfg.batch_window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = WindowConfig{};
  cfg.options.method = spkadd::core::Method::Heap;
  cfg.options.inputs_sorted = false;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// -------------------------------------------------------- bit-identity
TEST(TenantWindow, SingleBucketWindowMatchesNonWindowedAccumulator) {
  // All updates land in one bucket, so a 1-bucket window must return
  // the bucket partial unchanged: bit-identical to a plain Accumulator
  // fed the same stream even for arbitrary (non-exact) doubles.
  WindowConfig cfg;
  cfg.bucket_width = 100;
  cfg.live_buckets = 4;
  cfg.batch_window = 3;
  TenantWindow w(kRows, kCols, cfg);
  Accumulator<> acc(kRows, kCols, cfg.options, cfg.batch_window);
  std::vector<Csc> updates;  // borrowed by acc until each batched flush
  for (std::uint64_t i = 0; i < 9; ++i) updates.push_back(update(i));
  for (std::uint64_t i = 0; i < 9; ++i) {
    acc.add(updates[i]);
    EXPECT_TRUE(w.submit(40 + i, Csc(updates[i])));
  }
  const Csc want = acc.finalize();
  EXPECT_EQ(w.snapshot(1), want);
  EXPECT_EQ(w.snapshot(0), want);  // only one bucket is live anyway
  EXPECT_EQ(w.stats().buckets_opened, 1u);
}

TEST(TenantWindow, SnapshotSpansBucketRotation) {
  // Stream across live_buckets + 2 buckets: the two oldest retire, and
  // every windowed cut must match the reference fold of exactly the
  // buckets inside the cut.
  WindowConfig cfg;
  cfg.bucket_width = 10;
  cfg.live_buckets = 3;
  cfg.batch_window = 2;
  TenantWindow w(kRows, kCols, cfg);
  std::vector<std::vector<Csc>> streams(5);  // bucket ids 0..4
  std::uint64_t seed = 100;
  for (std::uint64_t b = 0; b < 5; ++b)
    for (std::uint64_t i = 0; i < 3; ++i) {
      streams[b].push_back(update(seed++));
      EXPECT_TRUE(w.submit(b * 10 + i, Csc(streams[b].back())));
    }
  EXPECT_EQ(w.stats().buckets_retired, 2u);
  EXPECT_EQ(w.stats().live_buckets, 3u);
  // Full ring: buckets 2, 3, 4.
  EXPECT_EQ(w.snapshot(),
            reference_fold(cfg, {streams[2], streams[3], streams[4]}));
  // Two-bucket cut: buckets 3, 4.
  EXPECT_EQ(w.snapshot(2), reference_fold(cfg, {streams[3], streams[4]}));
  // One-bucket cut: newest only.
  EXPECT_EQ(w.snapshot(1), reference_fold(cfg, {streams[4]}));
}

// ------------------------------------------------------------- expiry
TEST(TenantWindow, ExpiredSubmitIsRejectedCountedAndNeverFolded) {
  WindowConfig cfg;
  cfg.bucket_width = 10;
  cfg.live_buckets = 2;
  TenantWindow w(kRows, kCols, cfg);
  const Csc live = update(1);
  EXPECT_TRUE(w.submit(50, Csc(live)));  // bucket 5; oldest live is 4
  const Csc before = w.snapshot();
  EXPECT_FALSE(w.submit(39, update(2)));  // bucket 3: expired
  EXPECT_FALSE(w.submit(0, update(3)));   // long expired
  const auto s = w.stats();
  EXPECT_EQ(s.expired_rejected, 2u);
  EXPECT_EQ(s.accepted, 1u);
  // Rejected updates left no trace in the aggregate.
  EXPECT_EQ(w.snapshot(), before);
}

TEST(TenantWindow, ExpiryIsO1NoFoldWorkOnRetire) {
  WindowConfig cfg;
  cfg.bucket_width = 10;
  cfg.live_buckets = 3;
  cfg.batch_window = 2;
  TenantWindow w(kRows, kCols, cfg);
  std::uint64_t seed = 0;
  for (std::uint64_t b = 0; b < 3; ++b)
    for (std::uint64_t i = 0; i < 4; ++i)
      EXPECT_TRUE(w.submit(b * 10 + i, update(seed++)));
  (void)w.snapshot();  // force every bucket partial to materialize
  const std::uint64_t flushes_before = w.stats().fold_flushes;
  EXPECT_GT(flushes_before, 0u);
  // Advance far enough that every bucket retires: pure pops, so the
  // fold counter must not move at all.
  w.advance_to(1000);
  const auto s = w.stats();
  EXPECT_EQ(s.fold_flushes, flushes_before);
  EXPECT_EQ(s.live_buckets, 0u);
  EXPECT_EQ(s.buckets_retired, 3u);
  // The ring is empty now: snapshot is the all-zero matrix.
  const Csc empty = w.snapshot();
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_EQ(empty.rows(), kRows);
}

// -------------------------------------------------------- edge cases
TEST(TenantWindow, BucketBoundaryTimestamps) {
  WindowConfig cfg;
  cfg.bucket_width = 10;
  cfg.live_buckets = 8;
  TenantWindow w(kRows, kCols, cfg);
  EXPECT_TRUE(w.submit(9, update(1)));   // last tick of bucket 0
  EXPECT_TRUE(w.submit(10, update(2)));  // first tick of bucket 1
  const auto s = w.stats();
  EXPECT_EQ(s.buckets_opened, 2u);
  EXPECT_EQ(s.newest_bucket, 1u);
}

TEST(TenantWindow, SparseBucketsMaterializeOnlyOnUse) {
  WindowConfig cfg;
  cfg.bucket_width = 10;
  cfg.live_buckets = 8;
  TenantWindow w(kRows, kCols, cfg);
  const Csc a = update(1);
  const Csc b = update(2);
  EXPECT_TRUE(w.submit(5, Csc(a)));   // bucket 0
  EXPECT_TRUE(w.submit(55, Csc(b)));  // bucket 5; 1..4 never open
  const auto s = w.stats();
  EXPECT_EQ(s.buckets_opened, 2u);
  EXPECT_EQ(s.live_buckets, 2u);
  EXPECT_EQ(w.snapshot(), reference_fold(cfg, {{a}, {b}}));
}

TEST(TenantWindow, LargeTimeGapRetiresEverything) {
  WindowConfig cfg;
  cfg.bucket_width = 10;
  cfg.live_buckets = 2;
  TenantWindow w(kRows, kCols, cfg);
  EXPECT_TRUE(w.submit(0, update(1)));
  const Csc fresh = update(2);
  EXPECT_TRUE(w.submit(990, Csc(fresh)));  // bucket 99: 0 retires
  const auto s = w.stats();
  EXPECT_EQ(s.buckets_retired, 1u);
  EXPECT_EQ(s.live_buckets, 1u);
  EXPECT_EQ(w.snapshot(), reference_fold(cfg, {{fresh}}));
}

TEST(TenantWindow, OversizedWindowAndBadShapesThrow) {
  WindowConfig cfg;
  cfg.live_buckets = 4;
  TenantWindow w(kRows, kCols, cfg);
  EXPECT_TRUE(w.submit(0, update(1)));
  EXPECT_THROW((void)w.snapshot(5), std::invalid_argument);
  EXPECT_THROW(
      w.submit(0, spkadd::testing::random_matrix(kRows + 1, kCols, 9, 2)),
      std::invalid_argument);
  // The failed submit left the counters untouched.
  EXPECT_EQ(w.stats().accepted, 1u);
}

TEST(TenantWindow, ThrowingFoldDiscardsTheStagedBatch) {
  // A fold that throws (here: an unsorted addend under Heap) must not
  // leave its batch staged, or every later fold and snapshot of the
  // bucket re-throws. The batch is lost; the running sum and the
  // window stay usable.
  WindowConfig cfg;
  cfg.batch_window = 2;
  cfg.options.method = spkadd::core::Method::Heap;
  TenantWindow w(kRows, kCols, cfg);
  const Csc first = update(1), second = update(2), third = update(3);
  EXPECT_TRUE(w.submit(0, Csc(first)));
  EXPECT_TRUE(w.submit(0, Csc(second)));  // folds {first, second}
  Csc unsorted = update(4);
  spkadd::gen::shuffle_columns(unsorted, 5);
  ASSERT_FALSE(unsorted.is_sorted());
  EXPECT_TRUE(w.submit(0, Csc(third)));
  EXPECT_THROW(w.submit(0, std::move(unsorted)), std::invalid_argument);
  EXPECT_EQ(w.snapshot(), reference_fold(cfg, {{first, second}}));
  EXPECT_EQ(w.stats().accepted, 3u);
}

TEST(TenantWindow, EmptyWindowSnapshotIsAllZero) {
  WindowConfig cfg;
  TenantWindow w(kRows, kCols, cfg);
  const Csc empty = w.snapshot();
  EXPECT_EQ(empty.rows(), kRows);
  EXPECT_EQ(empty.cols(), kCols);
  EXPECT_EQ(empty.nnz(), 0);
}

}  // namespace
