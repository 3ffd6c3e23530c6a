// obs layer: MetricsRegistry instrument semantics, Prometheus text
// exposition (golden fragments + exposition-format invariants), JSON
// rendering, concurrent recording (TSAN leg), and Tracer ring
// wraparound + slow-op capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace spkadd::obs;

/// Every non-comment line of a rendering, in order.
std::vector<std::string> sample_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') out.push_back(line);
  }
  return out;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------- registry
TEST(MetricsRegistry, CounterFindOrCreateIsStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("spk_test_total", "help");
  Counter& b = reg.counter("spk_test_total", "help");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitInstruments) {
  MetricsRegistry reg;
  Counter& a =
      reg.counter("spk_test_total", "help", {{"x", "1"}, {"y", "2"}});
  Counter& b =
      reg.counter("spk_test_total", "help", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, TypeConflictThrows) {
  MetricsRegistry reg;
  reg.counter("spk_test_total", "help");
  EXPECT_THROW(reg.gauge("spk_test_total", "help"), std::invalid_argument);
  // Same family name under different labels must keep one type too.
  EXPECT_THROW(reg.histogram("spk_test_total", "help", {{"a", "b"}}),
               std::invalid_argument);
}

TEST(MetricsRegistry, InvalidNameThrows) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("", "help"), std::invalid_argument);
  EXPECT_THROW(reg.counter("9starts_with_digit", "help"),
               std::invalid_argument);
  EXPECT_THROW(reg.counter("has space", "help"), std::invalid_argument);
  EXPECT_NO_THROW(reg.counter("spkadd:ok_name_9", "help"));
}

// ------------------------------------------------- prometheus golden
TEST(MetricsRegistry, PrometheusCounterAndGaugeGolden) {
  MetricsRegistry reg;
  reg.counter("spk_requests_total", "Requests served.", {{"verb", "submit"}})
      .add(7);
  reg.gauge("spk_depth", "Queue depth.").set(3.5);
  const std::string text = reg.render_prometheus();
  EXPECT_TRUE(contains(text, "# HELP spk_requests_total Requests served.\n"))
      << text;
  EXPECT_TRUE(contains(text, "# TYPE spk_requests_total counter\n")) << text;
  EXPECT_TRUE(contains(text, "spk_requests_total{verb=\"submit\"} 7\n"))
      << text;
  EXPECT_TRUE(contains(text, "# TYPE spk_depth gauge\n")) << text;
  EXPECT_TRUE(contains(text, "spk_depth 3.5\n")) << text;
}

TEST(MetricsRegistry, PrometheusLabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("spk_esc_total", "h", {{"tenant", "a\"b\\c\nd"}}).add(1);
  const std::string text = reg.render_prometheus();
  EXPECT_TRUE(
      contains(text, "spk_esc_total{tenant=\"a\\\"b\\\\c\\nd\"} 1\n"))
      << text;
}

TEST(MetricsRegistry, PrometheusHistogramIsCumulative) {
  MetricsRegistry reg;
  LogHistogram& h =
      reg.histogram("spk_lat_seconds", "h", {}, Unit::kSeconds);
  h.record(1000);  // 1 us
  h.record(1000);
  h.record(2'000'000);  // 2 ms
  const std::string text = reg.render_prometheus();
  EXPECT_TRUE(contains(text, "# TYPE spk_lat_seconds histogram\n")) << text;
  EXPECT_TRUE(contains(text, "spk_lat_seconds_count 3\n")) << text;
  // _sum is in seconds: 2 * 1e-6 + 2e-3.
  EXPECT_TRUE(contains(text, "spk_lat_seconds_sum 0.002002\n")) << text;
  EXPECT_TRUE(contains(text, "spk_lat_seconds_bucket{le=\"+Inf\"} 3\n"))
      << text;

  // Bucket counts must be cumulative and non-decreasing in le order.
  std::uint64_t prev = 0;
  std::size_t buckets = 0;
  for (const auto& line : sample_lines(text)) {
    if (line.rfind("spk_lat_seconds_bucket", 0) != 0) continue;
    ++buckets;
    const auto space = line.rfind(' ');
    const auto v = static_cast<std::uint64_t>(
        std::stod(line.substr(space + 1)));
    EXPECT_GE(v, prev) << line;
    prev = v;
  }
  EXPECT_GE(buckets, 3u);  // two occupied buckets + +Inf
  EXPECT_EQ(prev, 3u);
}

TEST(MetricsRegistry, RenderJsonCarriesEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("spk_a_total", "h", {{"tenant", "t\"1"}}).add(4);
  reg.histogram("spk_b", "h", {}, Unit::kCount).record(10);
  const std::string json = reg.render_json();
  EXPECT_TRUE(contains(json, "\"name\":\"spk_a_total\"")) << json;
  EXPECT_TRUE(contains(json, "\"tenant\":\"t\\\"1\"")) << json;
  EXPECT_TRUE(contains(json, "\"name\":\"spk_b_count\"")) << json;
  EXPECT_TRUE(contains(json, "\"name\":\"spk_b_max\"")) << json;
}

// ---------------------------------------------------------- collector
TEST(MetricsRegistry, CollectorExportsAtScrapeTime) {
  MetricsRegistry reg;
  LogHistogram local;
  local.record(100);
  std::uint64_t hits = 0;
  {
    CollectorHandle handle =
        reg.add_collector([&](CollectorSink& sink) {
          ++hits;
          sink.counter("spk_coll_total", "h", {{"s", "x"}}, 5);
          sink.gauge("spk_coll_depth", "h", {}, 2);
          sink.histogram("spk_coll_hist", "h", {}, local, Unit::kCount);
        });
    const std::string text = reg.render_prometheus();
    EXPECT_EQ(hits, 1u);
    EXPECT_TRUE(contains(text, "spk_coll_total{s=\"x\"} 5\n")) << text;
    EXPECT_TRUE(contains(text, "spk_coll_depth 2\n")) << text;
    EXPECT_TRUE(contains(text, "spk_coll_hist_count 1\n")) << text;
  }
  // Handle destroyed: the collector must not run again.
  (void)reg.render_prometheus();
  EXPECT_EQ(hits, 1u);
}

// -------------------------------------------------------- concurrency
TEST(MetricsRegistry, ConcurrentCountsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("spk_conc_total", "h");
  LogHistogram& h = reg.histogram("spk_conc_hist", "h", {}, Unit::kCount);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(t) * 1000 + 1);
      }
    });
  }
  // A concurrent scrape must be safe while writers run.
  const std::string mid = reg.render_prometheus();
  EXPECT_TRUE(contains(mid, "spk_conc_total"));
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.total_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------- histogram
TEST(LogHistogram, BucketIterationMatchesTotals) {
  LogHistogram h;
  const std::vector<std::uint64_t> ticks = {0, 1, 7, 8, 100, 1000, 999999};
  std::uint64_t sum = 0;
  for (const auto t : ticks) {
    h.record(t);
    sum += t;
  }
  std::uint64_t count = 0;
  std::uint64_t prev_upper = 0;
  bool first = true;
  h.for_each_nonzero_bucket([&](std::uint64_t upper, std::uint64_t c) {
    if (!first) {
      EXPECT_GT(upper, prev_upper);
    }
    first = false;
    prev_upper = upper;
    count += c;
  });
  EXPECT_EQ(count, ticks.size());
  EXPECT_EQ(h.total_count(), ticks.size());
  EXPECT_EQ(h.sum_ticks(), sum);
  EXPECT_EQ(h.max_ticks(), 999999u);
}

TEST(LogHistogram, EveryTickFallsAtOrBelowItsBucketUpper) {
  LogHistogram h;
  for (std::uint64_t t : {1u, 9u, 100u, 4096u, 1u << 20}) {
    LogHistogram one;
    one.record(t);
    one.for_each_nonzero_bucket([&](std::uint64_t upper, std::uint64_t) {
      EXPECT_GE(upper, t);
    });
  }
  // bucket_upper is monotone over the whole layout.
  for (std::size_t i = 1; i < LogHistogram::kBuckets; ++i)
    EXPECT_GT(LogHistogram::bucket_upper(i), LogHistogram::bucket_upper(i - 1));
}

TEST(LogHistogram, SummaryQuantilesNeverExceedMax) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  h.record(5000);
  const LatencySummary s = h.summary();
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.max, 5000 * 1e-9);
  EXPECT_LE(s.p99, s.max);
  EXPECT_LE(s.p50, s.p99);
}

TEST(LogHistogram, QuantilesClampedToRecordedMax) {
  // The top occupied bucket's upper bound can exceed every recorded
  // value (log buckets are up to 12.5% wide); a reported p99 above the
  // true max is a lie operators will chase. Quantiles must clamp.
  LogHistogram h;
  h.record(1'000'000'001);  // 1.000000001 s; its bucket tops out higher
  const LatencySummary s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.max, 1.000000001);
  EXPECT_DOUBLE_EQ(s.p50, s.max);
  EXPECT_DOUBLE_EQ(s.p99, s.max);
  // Quantiles landing in lower buckets stay bucket-quantized but can
  // never overshoot the maximum either.
  h.record(1000);
  const LatencySummary s2 = h.summary();
  EXPECT_EQ(s2.count, 2u);
  EXPECT_LE(s2.p50, s2.p99);
  EXPECT_LE(s2.p99, s2.max);
}

// -------------------------------------------------------------- tracer
TEST(Tracer, DisabledTracerIsInactive) {
  Tracer tracer;  // default config: disabled
  OpTrace op = tracer.begin_op();
  EXPECT_FALSE(op.active());
  tracer.record(op, Stage::kShardFold, Tracer::now_ns());
  tracer.finish_op(op);
  EXPECT_TRUE(tracer.recent().empty());
  EXPECT_TRUE(tracer.slow_ops().empty());
}

TEST(Tracer, RecordsSpansInOrder) {
  Tracer::Config cfg;
  cfg.enabled = true;
  Tracer tracer(cfg);
  OpTrace op = tracer.begin_op();
  ASSERT_TRUE(op.active());
  tracer.record(op, Stage::kWireDecode, Tracer::now_ns(), "tenant=a");
  tracer.record(op, Stage::kShardFold, Tracer::now_ns());
  EXPECT_EQ(op.spans.size(), 2u);
  tracer.finish_op(op);
  EXPECT_FALSE(op.active());

  const std::vector<Span> spans = tracer.recent();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].stage, Stage::kWireDecode);
  EXPECT_EQ(spans[0].detail, "tenant=a");
  EXPECT_EQ(spans[1].stage, Stage::kShardFold);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
}

TEST(Tracer, RingWrapsKeepingTheNewestSpans) {
  Tracer::Config cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  Tracer tracer(cfg);
  for (int i = 0; i < 20; ++i)
    tracer.record_span(Stage::kSnapshot, Tracer::now_ns(),
                       "i=" + std::to_string(i));
  const std::vector<Span> spans = tracer.recent();
  ASSERT_EQ(spans.size(), 8u);  // capacity, not 20
  // The survivors must be exactly the 8 newest, oldest first.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].detail,
              "i=" + std::to_string(12 + i));
}

TEST(Tracer, SlowOpsAreCapturedAndBounded) {
  Tracer::Config cfg;
  cfg.enabled = true;
  cfg.slow_threshold_ns = 0;  // every op qualifies
  cfg.slow_log_capacity = 4;
  Tracer tracer(cfg);
  for (int i = 0; i < 10; ++i) {
    OpTrace op = tracer.begin_op();
    tracer.record(op, Stage::kQueueWait, Tracer::now_ns(),
                  "op=" + std::to_string(i));
    tracer.finish_op(op);
  }
  const std::vector<SlowOp> slow = tracer.slow_ops();
  ASSERT_EQ(slow.size(), 4u);  // bounded, oldest evicted
  for (const SlowOp& s : slow) {
    EXPECT_NE(s.op_id, 0u);
    ASSERT_EQ(s.spans.size(), 1u);
    EXPECT_EQ(s.spans[0].stage, Stage::kQueueWait);
  }
  EXPECT_EQ(slow.back().spans[0].detail, "op=9");

  tracer.clear();
  EXPECT_TRUE(tracer.recent().empty());
  EXPECT_TRUE(tracer.slow_ops().empty());
}

TEST(Tracer, FastOpsStayOutOfTheSlowLog) {
  Tracer::Config cfg;
  cfg.enabled = true;
  cfg.slow_threshold_ns = 60'000'000'000ull;  // one minute: never slow
  Tracer tracer(cfg);
  OpTrace op = tracer.begin_op();
  tracer.record(op, Stage::kShardFold, Tracer::now_ns());
  tracer.finish_op(op);
  EXPECT_TRUE(tracer.slow_ops().empty());
  EXPECT_EQ(tracer.recent().size(), 1u);
}

TEST(Tracer, ConcurrentRecordingIsSafe) {
  Tracer::Config cfg;
  cfg.enabled = true;
  cfg.slow_threshold_ns = 0;
  cfg.ring_capacity = 64;
  Tracer tracer(cfg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        OpTrace op = tracer.begin_op();
        tracer.record(op, Stage::kShardFold, Tracer::now_ns());
        tracer.finish_op(op);
      }
    });
  }
  // Dump while writers run: must not race or crash.
  (void)tracer.recent();
  (void)tracer.dump_json();
  for (auto& th : threads) th.join();
  // 4 rings of 64 spans each survive.
  EXPECT_EQ(tracer.recent().size(), 4u * 64u);
}

TEST(Tracer, DumpJsonEscapesDetails) {
  Tracer::Config cfg;
  cfg.enabled = true;
  Tracer tracer(cfg);
  tracer.record_span(Stage::kOther, Tracer::now_ns(), "weird\"detail");
  const std::string json = tracer.dump_json();
  EXPECT_TRUE(contains(json, "\"spans\"")) << json;
  EXPECT_TRUE(contains(json, "weird\\\"detail")) << json;
}

// ------------------------------------------------------- json_escape
TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  using spkadd::util::json_escape;
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
}

}  // namespace
