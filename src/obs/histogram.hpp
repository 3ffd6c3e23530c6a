// Lock-free log-scale histogram — the one histogram implementation in
// the tree. obs::MetricsRegistry exports registered instances as full
// cumulative Prometheus histograms through the public bucket-iteration
// API below.
//
// Thread-safety contract: record() is lock-free (relaxed atomics) and
// safe from any thread concurrently with summary() /
// for_each_nonzero_bucket(); readers see a consistent-enough sample
// (counts are monotone). Counters here are observability only — they
// never feed fold paths, so they cannot affect any bit-identity
// guarantee.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace spkadd::obs {

/// Percentile digest of a recorded population, in seconds (recorded
/// ticks are nanoseconds on every latency path).
struct LatencySummary {
  std::uint64_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Fixed-footprint log-scale histogram: 8 sub-buckets per power of two
/// of the recorded tick value, giving <= 12.5% relative quantile error
/// with no allocation and relaxed-atomic recording (recorders never
/// contend on a lock).
class LogHistogram {
 public:
  static constexpr std::size_t kSub = 8;  ///< sub-buckets per octave
  static constexpr std::size_t kBuckets = 62 * kSub;

  /// Record one observation (latency paths record nanoseconds; size
  /// distributions record plain counts).
  void record(std::uint64_t ticks) {
    const std::size_t idx = bucket_of(ticks);
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ticks, std::memory_order_relaxed);
    // Keep the true maximum exactly (quantiles are bucket-quantized).
    std::uint64_t prev = max_ticks_.load(std::memory_order_relaxed);
    while (prev < ticks && !max_ticks_.compare_exchange_weak(
                               prev, ticks, std::memory_order_relaxed)) {
    }
  }

  /// p50/p95/p99 digest of everything recorded so far, interpreting
  /// ticks as nanoseconds. Safe to call concurrently with record().
  [[nodiscard]] LatencySummary summary() const;

  /// Total observations recorded so far.
  [[nodiscard]] std::uint64_t total_count() const;

  /// Sum of every recorded tick value (the Prometheus `_sum` series).
  [[nodiscard]] std::uint64_t sum_ticks() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Largest tick value ever recorded (exact, not bucket-quantized).
  [[nodiscard]] std::uint64_t max_ticks() const {
    return max_ticks_.load(std::memory_order_relaxed);
  }

  /// Visit every non-empty bucket in ascending bound order as
  /// fn(upper_bound_ticks, count). Bounds are inclusive per-bucket
  /// upper edges; cumulating the counts in visit order yields the
  /// Prometheus `le` series. Safe concurrently with record().
  template <typename Fn>
  void for_each_nonzero_bucket(Fn&& fn) const {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
      if (c != 0) fn(bucket_upper(i), c);
    }
  }

  /// Inclusive upper bound of bucket `idx` in ticks (public so tests
  /// and exporters can reason about the bucket layout).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t idx);

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ticks);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> max_ticks_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace spkadd::obs
