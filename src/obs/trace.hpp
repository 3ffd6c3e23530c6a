// Span tracing for the submit lifecycle: every traced operation carries
// an OpTrace through the pipeline (wire decode -> burst enqueue ->
// queue wait -> shard fold; snapshot assembly is its own op), each
// completed span is also appended to the recording thread's ring
// buffer, and finish_op() captures the FULL span chain of any op slower
// than the configured threshold into a bounded slow-op log. Disabled
// (the default) the begin_op fast path is one relaxed atomic load.
//
// Thread-safety contract: every Tracer member is safe from any thread.
// An OpTrace itself is NOT synchronized — it travels with its operation
// and must be touched by one thread at a time (which the queue hand-off
// already guarantees). Rings are per-thread, each guarded by its own
// mutex: writers only ever touch their own ring, so the lock is
// uncontended except against a concurrent dump.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spkadd::obs {

/// Pipeline stage a span measures.
enum class Stage : std::uint8_t {
  kWireDecode,    ///< SPKN frame decode on the daemon poll loop
  kBurstEnqueue,  ///< submit_burst staging + queue push
  kQueueWait,     ///< enqueue -> worker pop
  kShardFold,     ///< fold into the tenant window
  kSnapshot,      ///< snapshot assembly
  kOther,
};

[[nodiscard]] const char* stage_name(Stage stage);

/// One timed stage of one operation.
struct Span {
  std::uint64_t op_id = 0;
  Stage stage = Stage::kOther;
  std::uint64_t start_ns = 0;     ///< steady-clock, see Tracer::now_ns
  std::uint64_t duration_ns = 0;
  std::string detail;  ///< free-form ("tenant=a nnz=120"), may be empty
};

/// The trace context one operation carries through the pipeline.
/// Default-constructed (op_id 0) it is inactive and every Tracer call
/// on it is a no-op, so untraced paths pay nothing but the branch.
struct OpTrace {
  std::uint64_t op_id = 0;
  std::uint64_t begin_ns = 0;
  std::vector<Span> spans;

  [[nodiscard]] bool active() const { return op_id != 0; }
};

/// A slow operation's complete captured span chain.
struct SlowOp {
  std::uint64_t op_id = 0;
  std::uint64_t total_ns = 0;
  std::vector<Span> spans;
};

class Tracer {
 public:
  struct Config {
    bool enabled = false;
    /// finish_op captures the op's full span chain when its lifetime
    /// (begin_op -> finish_op) exceeds this.
    std::uint64_t slow_threshold_ns = 10'000'000;  // 10 ms
    std::size_t ring_capacity = 1024;   ///< spans kept per thread
    std::size_t slow_log_capacity = 64; ///< slow ops kept (oldest out)
  };

  Tracer() = default;
  explicit Tracer(Config config) : config_(config) {
    enabled_.store(config.enabled, std::memory_order_relaxed);
  }

  /// The process-wide tracer (disabled until set_enabled(true)).
  static Tracer& global();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Start tracing one operation; inactive (op_id 0) when disabled.
  [[nodiscard]] OpTrace begin_op();

  /// Close a span [start_ns, now) on `op` and this thread's ring.
  /// No-op when `op` is inactive.
  void record(OpTrace& op, Stage stage, std::uint64_t start_ns,
              std::string detail = {});

  /// Ring-only span with no operation context (e.g. snapshot assembly
  /// measured where no OpTrace travels).
  void record_span(Stage stage, std::uint64_t start_ns,
                   std::string detail = {});

  /// Finish `op`: if its lifetime exceeded the slow threshold, capture
  /// the full span chain into the slow-op log. Leaves `op` inactive.
  void finish_op(OpTrace& op);

  /// Most recent spans across all thread rings, oldest first.
  [[nodiscard]] std::vector<Span> recent() const;

  /// Captured slow operations, oldest first.
  [[nodiscard]] std::vector<SlowOp> slow_ops() const;

  /// Drop all buffered spans and slow ops.
  void clear();

  /// On-demand dump of rings + slow-op log as one JSON document.
  [[nodiscard]] std::string dump_json() const;

  /// Monotonic nanoseconds (steady_clock) — the time base every span
  /// start must come from.
  [[nodiscard]] static std::uint64_t now_ns();

 private:
  /// Fixed-size per-thread span ring; the owning thread appends, dumps
  /// read under the ring's own mutex (uncontended in steady state).
  struct Ring {
    explicit Ring(std::size_t capacity)
        : spans(capacity != 0 ? capacity : 1) {}
    mutable std::mutex mutex;
    std::vector<Span> spans;
    std::size_t next = 0;       ///< slot the next span lands in
    std::uint64_t written = 0;  ///< total spans ever appended
  };

  Ring& local_ring();
  void push_span(Span span);

  Config config_{};
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_op_id_{1};

  mutable std::mutex rings_mutex_;  ///< guards the ring list only
  std::vector<std::shared_ptr<Ring>> rings_;

  mutable std::mutex slow_mutex_;
  std::deque<SlowOp> slow_ops_;
};

}  // namespace spkadd::obs
