// WindowedAggService — the multi-tenant, concurrent front of the
// sliding-window aggregation layer (service/window.hpp), and the
// backend the network daemon (net/server.hpp) serves.
//
//   submit(tenant, ts, update)        snapshot(tenant, window)
//        |                                  ^
//        v                                  | strict left fold of the
//   [bounded MPMC ingest queue]             | live window buckets
//        |  burst push/pop: the net         | (k-way SpKAdd)
//        |  server stages one poll          |
//        v  cycle's submits as ONE burst    |
//   worker pool --- pops whole bursts,      |
//     groups per tenant ------------> tenant's TenantWindow
//                                     (mutex + one Accumulator
//                                      epoch per live time bucket)
//
// Ingest is burst-batched (util::BoundedMpmcQueue push_burst/pop_burst
// with watermark hysteresis): producers — the daemon's poll loop above
// all — enqueue a whole burst of timestamped updates with one
// queue-lock acquisition, and workers fold a popped burst's updates
// grouped per tenant with one tenant-lock acquisition per
// (burst, tenant).
//
// Plain running sums (the paper's §V gradient aggregation) are the
// one-bucket case: WindowConfig{bucket_width = UINT64_MAX,
// live_buckets = 1} puts every timestamp in bucket 0, nothing ever
// expires, and snapshot(tenant, 0) returns that bucket's running sum.
//
// Thread-safety contract: every public method is safe to call from any
// thread, concurrently with every other. Internally each tenant's
// TenantWindow is guarded by its own mutex (folds and snapshots of
// different tenants never contend; an update lands whole under it, so
// a snapshot never sees part of one) and the tenant registry by a
// shared_mutex. drain()/stop() use per-burst ticket accounting, so a
// drain covers exactly the updates accepted before it.
//
// Bit-identity guarantee: worker folds and snapshot assembly go through
// the same strict-left-fold SpKAdd paths as TenantWindow documents, so
// snapshot(tenant, w) is bit-identical to a single-threaded reference
// fold of the live buckets — exactly (independent of producer/worker
// interleaving) whenever value addition is exact, e.g. integer-valued
// updates. bench/bench_daemon.cpp re-verifies this over live sockets,
// bench/bench_service.cpp against one-shot spkadd.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/window.hpp"
#include "util/mpmc_queue.hpp"

namespace spkadd::service {

/// Aggregate counters for the windowed service (see also WindowStats).
struct WindowedServiceStats {
  std::uint64_t submitted = 0;  ///< updates accepted into the queue
  std::uint64_t applied = 0;    ///< updates folded into a bucket
  std::uint64_t expired = 0;    ///< updates rejected as expired at fold
  std::uint64_t rejected = 0;   ///< updates refused (service stopped)
  /// Updates dropped at fold time: unsorted columns under
  /// options.inputs_sorted, or a fold that threw. The service keeps
  /// serving, and drain() counts these as progressed.
  std::uint64_t apply_errors = 0;
  std::uint64_t snapshots = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t bursts = 0;         ///< burst enqueues into the queue
  std::uint64_t burst_updates = 0;  ///< updates across those bursts
  obs::LatencySummary latency;      ///< submit -> applied
  /// Per-tenant window counters, keyed by tenant name.
  std::vector<std::pair<std::string, WindowStats>> tenants;
};

class WindowedAggService {
 public:
  using Matrix = CscMatrix<std::int32_t, double>;

  struct Config {
    WindowConfig window;            ///< applied to every tenant
    std::size_t workers = 2;        ///< ingest worker threads
    std::size_t queue_capacity = 256;
    std::size_t burst_size = 16;    ///< max updates per worker pop
    /// Watermark hysteresis (0 defaults: high = capacity, low = 3/4).
    std::size_t queue_high_watermark = 0;
    std::size_t queue_low_watermark = 0;

    [[nodiscard]] std::size_t effective_high_watermark() const {
      return queue_high_watermark != 0 ? queue_high_watermark
                                       : queue_capacity;
    }
    [[nodiscard]] std::size_t effective_low_watermark() const {
      if (queue_low_watermark != 0) return queue_low_watermark;
      const std::size_t high = effective_high_watermark();
      return high > 1 ? high - high / 4 : 1;
    }
    /// Registry this service exports its counters and per-tenant
    /// window gauges into (a scrape-time collector — hot paths never
    /// touch it). nullptr disables the export; stats() is unaffected.
    obs::MetricsRegistry* metrics = &obs::default_registry();

    /// Tracer submit/snapshot spans are recorded into. Never nullptr
    /// in practice (the global tracer is disabled by default, and a
    /// disabled tracer's record calls are branch-only); nullptr is
    /// honored as fully off.
    obs::Tracer* tracer = &obs::Tracer::global();

    /// Throws std::invalid_argument on an unusable configuration.
    void validate() const;
  };

  /// One timestamped update, the unit the ingest queue carries. The
  /// daemon's poll loop builds a vector of these per poll cycle and
  /// hands it to submit_burst as one enqueue.
  struct TimedUpdate {
    std::string tenant;
    std::uint64_t timestamp = 0;
    Matrix update;
    /// Trace context this update carries through the pipeline (inactive
    /// by default — aggregate-initializing the three data fields keeps
    /// it inactive, costing one branch per tracer call).
    obs::OpTrace trace;
  };

  /// A consistent windowed view of one tenant's aggregate.
  struct Snapshot {
    Matrix sum;
    std::uint64_t epoch = 0;  ///< per-tenant snapshot sequence number
    std::uint64_t updates_applied = 0;  ///< updates folded in by then
  };

  /// Starts the worker pool immediately. Throws std::invalid_argument
  /// on an unusable config.
  explicit WindowedAggService(Config config);
  ~WindowedAggService();

  WindowedAggService(const WindowedAggService&) = delete;
  WindowedAggService& operator=(const WindowedAggService&) = delete;

  /// Enqueue one timestamped update (blocking at the queue's high
  /// watermark — backpressure). The tenant is created on first submit
  /// with the update's shape; later updates must be conformant (throws
  /// std::invalid_argument otherwise). Returns false — counting the
  /// update as rejected — once the service is stopped. Whether the
  /// update lands in a bucket or expires is decided at fold time and
  /// surfaces in stats().
  bool submit(const std::string& tenant, std::uint64_t ts, Matrix&& update);

  /// Enqueue a whole burst with one queue-lock acquisition (the net
  /// server's per-poll-cycle entry point). Tenants are created/checked
  /// for every update BEFORE anything is enqueued; a shape mismatch
  /// throws and leaves the burst untouched. Returns the number of
  /// updates accepted (fewer than burst.size() only when the service
  /// stopped mid-push; the unpushed tail is counted rejected).
  /// `burst` is emptied of everything accepted.
  std::size_t submit_burst(std::vector<TimedUpdate>& burst);

  /// Fold the newest `window_buckets` live buckets (0 = the whole live
  /// ring) of `tenant` into one sum. In-queue updates are not waited
  /// for — call drain() first for an exact cut. Throws
  /// std::invalid_argument for an unknown tenant or an oversized
  /// window.
  Snapshot snapshot(const std::string& tenant, std::size_t window_buckets);

  /// Block until every update accepted by now has been folded (or
  /// rejected as expired / dropped by a throwing fold).
  void drain();

  /// Stop accepting updates, fold the queued backlog, join the
  /// workers. Idempotent; snapshot()/stats() remain usable afterwards.
  void stop();

  [[nodiscard]] WindowedServiceStats stats() const;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Task {
    TimedUpdate item;
    std::uint64_t ticket = 0;   ///< acceptance order; drives drain()
    std::uint64_t enqueue_ns = 0;  ///< queue-wait span start (tracing)
    std::uint64_t submit_ns = 0;   ///< submit_burst entry (latency)
  };

  struct Tenant {
    Tenant(std::int32_t rows, std::int32_t cols, const WindowConfig& cfg)
        : window(rows, cols, cfg) {}
    std::mutex mutex;  ///< guards window (fold + snapshot + stats)
    TenantWindow window;
    std::uint64_t epoch = 0;      ///< guarded by mutex
    std::uint64_t snapshots = 0;  ///< guarded by mutex
  };

  [[nodiscard]] Tenant* find_tenant(const std::string& name) const;
  Tenant& tenant_for(const std::string& name, std::int32_t rows,
                     std::int32_t cols);
  void worker_loop();
  void apply_burst(std::vector<Task>& burst);

  Config config_;
  util::BoundedMpmcQueue<Task> queue_;

  mutable std::shared_mutex tenants_mutex_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::once_flag stop_once_;

  // Progress accounting: tickets are issued per accepted burst and
  // retired per folded burst, all under progress_mutex_, so drain()
  // waits on exactly its cutoff.
  mutable std::mutex progress_mutex_;
  std::condition_variable progress_cv_;
  std::uint64_t next_ticket_ = 1;
  std::set<std::uint64_t> pending_tickets_;
  std::uint64_t submitted_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t apply_errors_ = 0;
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> bursts_{0};
  std::atomic<std::uint64_t> burst_updates_{0};
  std::atomic<std::uint64_t> snapshots_{0};

  // Per-instance histograms (lock-free recording), exported through the
  // scrape-time collector below.
  obs::LogHistogram latency_;      ///< submit -> applied, ns
  obs::LogHistogram fold_hist_;    ///< per-burst fold wall time, ns
  obs::LogHistogram burst_hist_;   ///< updates per accepted burst

  /// Exports every counter above plus per-tenant window stats.
  void export_metrics(obs::CollectorSink& sink) const;

  // LAST member: destroyed first, and its dtor blocks until no render
  // can still be invoking export_metrics on this instance.
  obs::CollectorHandle collector_;
};

}  // namespace spkadd::service
