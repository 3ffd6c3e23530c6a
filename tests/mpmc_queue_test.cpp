// BoundedMpmcQueue: FIFO order, capacity/backpressure, shutdown
// semantics, and a multi-producer/multi-consumer stress run. These are
// the tests the TSAN CI leg exercises (label: concurrency).
#include "util/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace {

using spkadd::util::BoundedMpmcQueue;

TEST(MpmcQueue, FifoSingleThreaded) {
  BoundedMpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 8; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpmcQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedMpmcQueue<int>(0), std::invalid_argument);
}

TEST(MpmcQueue, TryPushRespectsCapacity) {
  BoundedMpmcQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_FALSE(q.try_push(std::move(c)));  // full
  EXPECT_EQ(c, 3);                         // untouched on failure
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.try_push(std::move(c)));
}

TEST(MpmcQueue, TryPopNeverBlocks) {
  using Status = BoundedMpmcQueue<int>::PopStatus;
  BoundedMpmcQueue<int> q(2);
  int out = -1;
  EXPECT_EQ(q.try_pop(out), Status::kEmpty);  // empty: no blocking
  EXPECT_EQ(out, -1);                         // untouched without an item
  EXPECT_TRUE(q.push(7));
  EXPECT_EQ(q.try_pop(out), Status::kItem);
  EXPECT_EQ(out, 7);
  q.close();
  EXPECT_EQ(q.try_pop(out), Status::kClosed);  // closed and drained
}

// "Momentarily empty" and "closed and drained" must be distinguishable,
// or a non-blocking consumer cannot tell "retry later" from "shut down"
// — and a closed queue with a backlog must still hand out the items.
TEST(MpmcQueue, TryPopDistinguishesEmptyFromClosed) {
  using Status = BoundedMpmcQueue<int>::PopStatus;
  BoundedMpmcQueue<int> q(4);
  int out = 0;
  EXPECT_EQ(q.try_pop(out), Status::kEmpty);  // open + empty: retry
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_EQ(q.try_pop(out), Status::kItem);  // closed but NOT drained
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.try_pop(out), Status::kItem);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.try_pop(out), Status::kClosed);  // now drained: stop
}

// A rejected blocking push must leave the item in the caller's hands —
// the old by-value signature destroyed the moved-from payload on a
// closed queue while try_push promised the opposite.
TEST(MpmcQueue, PushHandsItemBackWhenClosed) {
  BoundedMpmcQueue<std::vector<int>> q(2);
  q.close();
  std::vector<int> payload{1, 2, 3};
  EXPECT_FALSE(q.push(std::move(payload)));
  // The caller can still account or retry the exact item it offered.
  EXPECT_EQ(payload, (std::vector<int>{1, 2, 3}));
}

TEST(MpmcQueue, HighWaterTracksDeepestBacklog) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  (void)q.pop();
  (void)q.pop();
  (void)q.pop();
  EXPECT_TRUE(q.push(4));
  EXPECT_EQ(q.high_water(), 3u);
}

TEST(MpmcQueue, BlockingPushUnblocksWhenSpaceOpens) {
  BoundedMpmcQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the consumer pops
    pushed.store(true);
  });
  // The producer cannot complete while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(MpmcQueue, CloseWakesBlockedConsumers) {
  BoundedMpmcQueue<int> q(4);
  std::vector<std::thread> consumers;
  std::atomic<int> drained{0};
  for (int i = 0; i < 3; ++i)
    consumers.emplace_back([&] {
      while (q.pop().has_value()) {
      }
      drained.fetch_add(1);
    });
  q.close();
  for (auto& c : consumers) c.join();
  EXPECT_EQ(drained.load(), 3);
}

TEST(MpmcQueue, CloseDrainsBacklogThenRejects) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop().value(), 1);  // backlog still poppable
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // closed and drained
  EXPECT_TRUE(q.closed());
}

TEST(MpmcQueue, CloseWakesBlockedProducer) {
  BoundedMpmcQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    rejected.store(!q.push(2));  // blocked on full, then closed
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  EXPECT_TRUE(rejected.load());
}

TEST(MpmcQueue, PushBurstPreservesFifo) {
  BoundedMpmcQueue<int> q(8);
  std::vector<int> burst{0, 1, 2, 3, 4};
  EXPECT_EQ(q.push_burst(burst), 5u);
  EXPECT_TRUE(burst.empty());  // fully admitted
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

// A burst larger than the queue's free space is admitted in chunks: the
// producer blocks between chunks while a consumer makes room, and every
// item still arrives exactly once, in order.
TEST(MpmcQueue, PushBurstChunksThroughConsumer) {
  BoundedMpmcQueue<int> q(4);
  std::vector<int> burst(16);
  for (int i = 0; i < 16; ++i) burst[static_cast<std::size_t>(i)] = i;
  std::thread producer([&] { EXPECT_EQ(q.push_burst(burst), 16u); });
  for (int i = 0; i < 16; ++i) EXPECT_EQ(q.pop().value(), i);
  producer.join();
  EXPECT_TRUE(burst.empty());
}

// close() while a burst is mid-flight: the pushed prefix is consumable,
// the unpushed tail comes back to the producer (never destroyed).
TEST(MpmcQueue, PushBurstHandsBackRemainderOnClose) {
  BoundedMpmcQueue<int> q(2);
  std::vector<int> burst{10, 11, 12, 13, 14};
  std::atomic<std::size_t> pushed{0};
  std::thread producer([&] { pushed.store(q.push_burst(burst)); });
  // Let the producer fill the queue and block on the second chunk.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(pushed.load(), 2u);
  EXPECT_EQ(burst, (std::vector<int>{12, 13, 14}));  // the unpushed tail
  EXPECT_EQ(q.pop().value(), 10);  // prefix still drains after close
  EXPECT_EQ(q.pop().value(), 11);
  EXPECT_FALSE(q.pop().has_value());
}

// Hysteresis: admission shuts off at the high watermark and does NOT
// come back until the depth falls to the low watermark — a queue
// hovering between the two stays closed to producers.
TEST(MpmcQueue, WatermarkHysteresisGatesAdmission) {
  BoundedMpmcQueue<int> q(8, /*high_watermark=*/6, /*low_watermark=*/3);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.try_push(std::move(i)));
  int extra = 100;
  EXPECT_FALSE(q.try_push(std::move(extra)));  // throttled at high
  (void)q.pop();
  (void)q.pop();
  EXPECT_EQ(q.size(), 4u);  // above low: still throttled
  EXPECT_FALSE(q.try_push(std::move(extra)));
  (void)q.pop();
  EXPECT_EQ(q.size(), 3u);  // at low: released
  EXPECT_TRUE(q.try_push(std::move(extra)));
}

// A blocking producer throttled at the high watermark is released only
// by the drain to the low watermark, and the throttle is counted.
TEST(MpmcQueue, WatermarkReleaseWakesBlockedProducer) {
  BoundedMpmcQueue<int> q(8, /*high_watermark=*/4, /*low_watermark=*/2);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(99));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // throttled at the high watermark
  (void)q.pop();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // size 3 > low: hysteresis holds
  (void)q.pop();                // size 2 == low: released
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GE(q.throttle_events(), 1u);
  EXPECT_GE(q.throttle_seconds(), 0.0);
}

TEST(MpmcQueue, PopBurstDrainsUpToMax) {
  BoundedMpmcQueue<int> q(8);
  std::vector<int> burst{0, 1, 2, 3, 4};
  EXPECT_EQ(q.push_burst(burst), 5u);
  std::vector<int> out;
  EXPECT_EQ(q.pop_burst(out, 3), 3u);  // capped at max_items
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.pop_burst(out, 8), 2u);  // appends the remainder
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  q.close();
  EXPECT_EQ(q.pop_burst(out, 8), 0u);  // closed and drained: exit signal
}

// P producers x C consumers; every pushed value is popped exactly once
// and each producer's own sequence arrives in order (per-producer FIFO).
TEST(MpmcQueue, MpmcStressPreservesItemsAndPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedMpmcQueue<std::pair<int, int>> q(8);  // small: force contention

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push({p, i}));
    });

  std::mutex sink_mutex;
  std::vector<std::vector<int>> sunk(kProducers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      std::vector<std::vector<int>> local(kProducers);
      while (auto v = q.pop()) local[v->first].push_back(v->second);
      std::lock_guard<std::mutex> lock(sink_mutex);
      // Splice each consumer's per-producer subsequence; order within a
      // consumer is checked below after a merge by value.
      for (int p = 0; p < kProducers; ++p) {
        // A single consumer must see producer p's items in order.
        for (std::size_t i = 1; i < local[p].size(); ++i)
          EXPECT_LT(local[p][i - 1], local[p][i]);
        sunk[p].insert(sunk[p].end(), local[p].begin(), local[p].end());
      }
    });

  for (auto& p : producers) p.join();
  q.close();
  for (auto& c : consumers) c.join();

  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(sunk[p].size(), static_cast<std::size_t>(kPerProducer));
    std::sort(sunk[p].begin(), sunk[p].end());
    for (int i = 0; i < kPerProducer; ++i) EXPECT_EQ(sunk[p][i], i);
  }
}

}  // namespace
