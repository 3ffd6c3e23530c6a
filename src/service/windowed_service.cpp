#include "service/windowed_service.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace spkadd::service {

void WindowedAggService::Config::validate() const {
  window.validate();
  if (workers < 1)
    throw std::invalid_argument(
        "WindowedAggService: workers must be >= 1");
  if (queue_capacity < 1)
    throw std::invalid_argument(
        "WindowedAggService: queue_capacity must be >= 1");
  if (burst_size < 1)
    throw std::invalid_argument(
        "WindowedAggService: burst_size must be >= 1");
  if (effective_high_watermark() > queue_capacity)
    throw std::invalid_argument(
        "WindowedAggService: high watermark exceeds queue_capacity");
  if (effective_low_watermark() > effective_high_watermark())
    throw std::invalid_argument(
        "WindowedAggService: low watermark exceeds the high watermark");
}

namespace {

WindowedAggService::Config validated(WindowedAggService::Config cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

WindowedAggService::WindowedAggService(Config config)
    : config_(validated(std::move(config))),
      queue_(config_.queue_capacity, config_.effective_high_watermark(),
             config_.effective_low_watermark()) {
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (config_.metrics != nullptr) {
    collector_ = config_.metrics->add_collector(
        [this](obs::CollectorSink& sink) { export_metrics(sink); });
  }
}

WindowedAggService::~WindowedAggService() { stop(); }

WindowedAggService::Tenant* WindowedAggService::find_tenant(
    const std::string& name) const {
  std::shared_lock lock(tenants_mutex_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

WindowedAggService::Tenant& WindowedAggService::tenant_for(
    const std::string& name, std::int32_t rows, std::int32_t cols) {
  const auto check = [&](Tenant& t) -> Tenant& {
    if (t.window.rows() != rows || t.window.cols() != cols)
      throw std::invalid_argument(
          "WindowedAggService: update shape does not match tenant '" +
          name + "'");
    return t;
  };
  {
    std::shared_lock lock(tenants_mutex_);
    auto it = tenants_.find(name);
    if (it != tenants_.end()) return check(*it->second);
  }
  std::unique_lock lock(tenants_mutex_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return check(*it->second);
  auto t = std::make_unique<Tenant>(rows, cols, config_.window);
  return *tenants_.emplace(name, std::move(t)).first->second;
}

bool WindowedAggService::submit(const std::string& tenant,
                                std::uint64_t ts, Matrix&& update) {
  std::vector<TimedUpdate> one;
  one.push_back(TimedUpdate{tenant, ts, std::move(update), {}});
  return submit_burst(one) == 1;
}

std::size_t WindowedAggService::submit_burst(
    std::vector<TimedUpdate>& burst) {
  if (burst.empty()) return 0;
  if (stopped_.load(std::memory_order_seq_cst)) {
    rejected_.fetch_add(burst.size(), std::memory_order_relaxed);
    return 0;
  }
  // Create/validate every tenant BEFORE anything is ticketed or
  // enqueued: a shape mismatch throws here with the burst untouched.
  for (const auto& u : burst)
    tenant_for(u.tenant, u.update.rows(), u.update.cols());

  obs::Tracer* const tracer = config_.tracer;
  const std::uint64_t submit_ns = obs::Tracer::now_ns();
  const std::uint64_t enqueue_start =
      tracer != nullptr && tracer->enabled() ? submit_ns : 0;
  std::vector<Task> tasks;
  tasks.reserve(burst.size());
  for (auto& u : burst) tasks.push_back(Task{std::move(u), 0, 0, submit_ns});
  burst.clear();
  if (enqueue_start != 0) {
    // Close the burst-enqueue span before the tasks are moved into the
    // queue; enqueue_ns marks where the queue-wait span begins.
    for (auto& task : tasks) {
      tracer->record(task.item.trace, obs::Stage::kBurstEnqueue,
                     enqueue_start, "tenant=" + task.item.tenant);
      task.enqueue_ns = obs::Tracer::now_ns();
    }
  }
  const std::size_t n = tasks.size();
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    for (auto& task : tasks) {
      task.ticket = next_ticket_++;
      pending_tickets_.insert(task.ticket);
    }
    submitted_ += n;
  }
  const std::size_t pushed = queue_.push_burst(tasks);
  if (!tasks.empty()) {
    // Queue closed mid-burst; retire the handed-back tail as rejected.
    {
      std::lock_guard<std::mutex> lock(progress_mutex_);
      for (const auto& task : tasks) pending_tickets_.erase(task.ticket);
      submitted_ -= tasks.size();
    }
    progress_cv_.notify_all();
    rejected_.fetch_add(tasks.size(), std::memory_order_relaxed);
  }
  if (pushed != 0) {
    bursts_.fetch_add(1, std::memory_order_relaxed);
    burst_updates_.fetch_add(pushed, std::memory_order_relaxed);
    burst_hist_.record(pushed);
  }
  return pushed;
}

void WindowedAggService::worker_loop() {
  std::vector<Task> burst;
  burst.reserve(config_.burst_size);
  // pop_burst returns 0 only once the queue is closed AND drained, so
  // shutdown folds the whole backlog before the workers exit.
  while (queue_.pop_burst(burst, config_.burst_size) != 0) {
    apply_burst(burst);
    burst.clear();
  }
}

void WindowedAggService::apply_burst(std::vector<Task>& burst) {
  // Group task indices per tenant, preserving burst order, then take
  // each tenant's lock once for the whole group.
  std::vector<std::pair<const std::string*, std::vector<std::size_t>>>
      groups;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return *g.first == burst[i].item.tenant;
    });
    if (it == groups.end())
      groups.emplace_back(&burst[i].item.tenant,
                          std::vector<std::size_t>{i});
    else
      it->second.push_back(i);
  }
  std::uint64_t n_applied = 0;
  std::uint64_t n_expired = 0;
  std::uint64_t n_errors = 0;
  obs::Tracer* const tracer = config_.tracer;
  const bool require_sorted = config_.window.options.inputs_sorted;
  const std::uint64_t fold_start = obs::Tracer::now_ns();
  for (auto& g : groups) {
    Tenant* t = find_tenant(*g.first);
    if (t == nullptr) {  // unreachable: submit_burst creates tenants
      n_errors += g.second.size();
      continue;
    }
    std::lock_guard<std::mutex> lock(t->mutex);
    for (auto i : g.second) {
      obs::OpTrace& trace = burst[i].item.trace;
      if (tracer != nullptr && trace.active())
        tracer->record(trace, obs::Stage::kQueueWait,
                       burst[i].enqueue_ns);
      const std::uint64_t submit_start =
          trace.active() ? obs::Tracer::now_ns() : 0;
      try {
        // Validate BEFORE staging: the config declares inputs sorted to
        // the kernels (merge methods throw on unsorted columns, sliding
        // hash row-slices by binary search), so an unsorted update is
        // invalid traffic. Rejecting it here keeps it out of the
        // bucket's staged batch, where it would make every later fold
        // and snapshot of the tenant throw.
        if (require_sorted && !burst[i].item.update.is_sorted())
          throw std::invalid_argument(
              "update has unsorted columns but options.inputs_sorted is "
              "set");
        if (t->window.submit(burst[i].item.timestamp,
                             std::move(burst[i].item.update))) {
          ++n_applied;
          latency_.record(obs::Tracer::now_ns() - burst[i].submit_ns);
        } else {
          ++n_expired;  // counted in the window too, never folded
        }
      } catch (const std::exception& e) {
        ++n_errors;
        std::cerr << "WindowedAggService: dropped update for tenant '"
                  << *g.first << "': " << e.what() << "\n";
      }
      if (tracer != nullptr && trace.active()) {
        tracer->record(trace, obs::Stage::kShardFold, submit_start,
                       "tenant=" + *g.first);
        tracer->finish_op(trace);
      }
    }
  }
  fold_hist_.record(obs::Tracer::now_ns() - fold_start);
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    for (const auto& task : burst) pending_tickets_.erase(task.ticket);
    applied_ += n_applied;
    expired_ += n_expired;
    apply_errors_ += n_errors;
  }
  progress_cv_.notify_all();
}

WindowedAggService::Snapshot WindowedAggService::snapshot(
    const std::string& tenant, std::size_t window_buckets) {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr)
    throw std::invalid_argument("WindowedAggService: unknown tenant '" +
                                tenant + "'");
  const std::uint64_t start = obs::Tracer::now_ns();
  std::lock_guard<std::mutex> lock(t->mutex);
  Snapshot snap;
  snap.sum = t->window.snapshot(window_buckets);
  snap.epoch = ++t->epoch;
  snap.updates_applied = t->window.stats().accepted;
  ++t->snapshots;
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  if (config_.tracer != nullptr)
    config_.tracer->record_span(obs::Stage::kSnapshot, start,
                                "tenant=" + tenant);
  return snap;
}

void WindowedAggService::drain() {
  std::unique_lock<std::mutex> lock(progress_mutex_);
  // Wait for exactly the tickets issued before this call: completions
  // of later-submitted tasks can never satisfy an earlier drain.
  const std::uint64_t cutoff = next_ticket_;
  progress_cv_.wait(lock, [&] {
    return pending_tickets_.empty() || *pending_tickets_.begin() >= cutoff;
  });
}

void WindowedAggService::stop() {
  std::call_once(stop_once_, [this] {
    stopped_.store(true, std::memory_order_seq_cst);
    queue_.close();  // workers fold the backlog, then see 0
    for (auto& w : workers_) w.join();
  });
}

WindowedServiceStats WindowedAggService::stats() const {
  WindowedServiceStats out;
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    out.submitted = submitted_;
    out.applied = applied_;
    out.expired = expired_;
    out.apply_errors = apply_errors_;
  }
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.snapshots = snapshots_.load(std::memory_order_relaxed);
  out.queue_depth = queue_.size();
  out.queue_high_water = queue_.high_water();
  out.bursts = bursts_.load(std::memory_order_relaxed);
  out.burst_updates = burst_updates_.load(std::memory_order_relaxed);
  out.latency = latency_.summary();
  std::shared_lock tenants_lock(tenants_mutex_);
  for (const auto& [name, t] : tenants_) {
    std::lock_guard<std::mutex> g(t->mutex);
    out.tenants.emplace_back(name, t->window.stats());
  }
  return out;
}

void WindowedAggService::export_metrics(obs::CollectorSink& sink) const {
  // Invoked by the registry at scrape time (registry mutex held); the
  // hot paths never take the registry mutex, so taking the service
  // locks inside stats() cannot cycle.
  const WindowedServiceStats st = stats();
  const obs::Labels svc{{"service", "windowed"}};
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  sink.counter("spkadd_service_submitted_total",
               "Updates accepted by submit() and handed to the queue",
               svc, d(st.submitted));
  sink.counter("spkadd_service_applied_total",
               "Updates folded into a window bucket", svc,
               d(st.applied));
  sink.counter("spkadd_service_expired_total",
               "Updates rejected as expired at fold time", svc,
               d(st.expired));
  sink.counter("spkadd_service_rejected_total",
               "Updates refused (service stopped or queue closed)", svc,
               d(st.rejected));
  sink.counter("spkadd_service_apply_errors_total",
               "Updates dropped at fold time (unsorted or a throwing fold)",
               svc, d(st.apply_errors));
  sink.counter("spkadd_service_snapshots_total",
               "Windowed snapshots assembled", svc, d(st.snapshots));
  sink.gauge("spkadd_queue_depth", "Current ingest queue backlog", svc,
             d(st.queue_depth));
  sink.gauge("spkadd_queue_high_water", "Deepest ingest backlog seen",
             svc, d(st.queue_high_water));
  sink.counter("spkadd_ingest_bursts_total",
               "Burst flushes into the ingest queue", svc, d(st.bursts));
  sink.counter("spkadd_queue_throttle_events_total",
               "Producer pushes blocked at the high watermark", svc,
               d(queue_.throttle_events()));
  sink.counter("spkadd_queue_throttle_seconds_total",
               "Total producer time spent throttled", svc,
               queue_.throttle_seconds());
  sink.histogram("spkadd_submit_latency_seconds",
                 "Submit-to-applied latency", svc, latency_,
                 obs::Unit::kSeconds);
  sink.histogram("spkadd_fold_seconds",
                 "Wall time folding one popped burst into windows", svc,
                 fold_hist_, obs::Unit::kSeconds);
  sink.histogram("spkadd_ingest_burst_updates",
                 "Updates per accepted burst", svc, burst_hist_,
                 obs::Unit::kCount);
  WindowStats totals;
  for (const auto& [name, ws] : st.tenants) {
    const obs::Labels tl{{"service", "windowed"}, {"tenant", name}};
    sink.gauge("spkadd_tenant_live_buckets",
               "Window buckets currently materialized", tl,
               d(ws.live_buckets));
    sink.counter("spkadd_tenant_accepted_total",
                 "Updates routed into this tenant's window", tl,
                 d(ws.accepted));
    sink.counter("spkadd_tenant_expired_total",
                 "Updates rejected as older than the live ring", tl,
                 d(ws.expired_rejected));
    sink.counter("spkadd_tenant_buckets_retired_total",
                 "Window buckets aged out of the live ring", tl,
                 d(ws.buckets_retired));
    totals.fold_flushes += ws.fold_flushes;
    totals.peak_staged_nnz =
        std::max(totals.peak_staged_nnz, ws.peak_staged_nnz);
    totals.chunks_heap += ws.chunks_heap;
    totals.chunks_spa += ws.chunks_spa;
    totals.chunks_hash += ws.chunks_hash;
    totals.chunks_sliding += ws.chunks_sliding;
    totals.chunks_dense += ws.chunks_dense;
  }
  sink.counter("spkadd_shard_fold_flushes_total",
               "Accumulator folds performed across tenant windows", svc,
               d(totals.fold_flushes));
  sink.gauge("spkadd_accumulator_staged_nnz_peak",
             "Max nonzeros awaiting a fold in any one bucket", svc,
             d(totals.peak_staged_nnz));
  const auto chunk = [&](const char* kernel, std::uint64_t v) {
    sink.counter("spkadd_hybrid_chunks_total",
                 "Hybrid column chunks dispatched per kernel",
                 {{"service", "windowed"}, {"kernel", kernel}}, d(v));
  };
  chunk("heap", totals.chunks_heap);
  chunk("spa", totals.chunks_spa);
  chunk("hash", totals.chunks_hash);
  chunk("sliding", totals.chunks_sliding);
  chunk("dense", totals.chunks_dense);
}

}  // namespace spkadd::service
