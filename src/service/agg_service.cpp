#include "service/agg_service.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "core/spkadd.hpp"
#include "io/binary_io.hpp"
#include "util/thread_control.hpp"

namespace spkadd::service {

namespace {

ServiceConfig validated(ServiceConfig cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

AggService::Tenant::Tenant(std::int32_t r, std::int32_t c,
                           const ServiceConfig& cfg)
    : rows(r), cols(c), partition(RowPartition::make(r, cfg.shards)) {
  for (std::size_t s = 0; s < cfg.shards; ++s)
    shards.emplace_back(r, c, cfg.options, cfg.batch_window);
}

AggService::AggService(ServiceConfig config)
    : config_(validated(std::move(config))),
      queue_(config_.queue_capacity, config_.effective_high_watermark(),
             config_.effective_low_watermark()) {
  const std::size_t n = config_.effective_workers();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  flusher_ = std::thread([this] { flusher_loop(); });
  if (config_.metrics != nullptr) {
    collector_ = config_.metrics->add_collector(
        [this](obs::CollectorSink& sink) { export_metrics(sink); });
  }
}

AggService::~AggService() { stop(); }

AggService::Tenant* AggService::find_tenant(const std::string& name) const {
  std::shared_lock lock(tenants_mutex_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

AggService::Tenant& AggService::tenant_for(const std::string& name,
                                           std::int32_t rows,
                                           std::int32_t cols) {
  const auto check = [&](Tenant& t) -> Tenant& {
    if (t.rows != rows || t.cols != cols)
      throw std::invalid_argument(
          "AggService: update shape does not match tenant '" + name + "'");
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
  auto t = std::make_unique<Tenant>(rows, cols, config_);
  return *tenants_.emplace(name, std::move(t)).first->second;
}

AggService::BurstBuffer& AggService::local_buffer() {
  // Keyed by service address: one producer thread can feed several
  // services. An entry outlives its service only as an expired weak_ptr
  // (the service's buffers_ vector holds the owning reference), so an
  // address reused by a new service simply misses and re-registers.
  thread_local std::map<const AggService*, std::weak_ptr<BurstBuffer>>
      cache;
  auto& slot = cache[this];
  if (auto existing = slot.lock()) return *existing;
  for (auto it = cache.begin(); it != cache.end();) {
    it = it->second.expired() && it->first != this ? cache.erase(it)
                                                   : std::next(it);
  }
  auto created = std::make_shared<BurstBuffer>();
  created->tasks.reserve(config_.burst_size);
  slot = created;
  BurstBuffer& ref = *created;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  buffers_.push_back(std::move(created));
  return ref;
}

bool AggService::flush_locked(BurstBuffer& buf, FlushReason reason,
                              bool blocking) {
  if (buf.tasks.empty()) return true;
  const std::size_t n = buf.tasks.size();
  // Tickets are issued here, per burst, never per submit: this is the
  // ONE progress-lock acquisition the whole burst pays on the producer
  // side (retirement in apply_burst is its worker-side mirror).
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    for (auto& task : buf.tasks) {
      task.ticket = next_ticket_++;
      pending_tickets_.insert(task.ticket);
    }
    submitted_ += n;
  }
  const auto retire = [&](std::size_t first, std::size_t count) {
    {
      std::lock_guard<std::mutex> lock(progress_mutex_);
      for (std::size_t i = first; i < first + count; ++i)
        pending_tickets_.erase(buf.tasks[i].ticket);
      submitted_ -= count;
    }
    progress_cv_.notify_all();
  };
  std::size_t pushed = 0;
  bool flushed_all = true;
  if (blocking) {
    pushed = queue_.push_burst(buf.tasks);  // erases the pushed prefix
    if (!buf.tasks.empty()) {
      // Queue closed mid-burst; the hand-back contract left the tail in
      // our hands. Account the drop instead of losing it silently.
      retire(0, buf.tasks.size());
      rejected_.fetch_add(buf.tasks.size(), std::memory_order_relaxed);
      buf.tasks.clear();
    }
  } else if (queue_.try_push_burst(buf.tasks)) {
    pushed = n;
  } else if (queue_.closed()) {
    retire(0, n);
    rejected_.fetch_add(n, std::memory_order_relaxed);
    buf.tasks.clear();
  } else {
    // Saturated, not closed: un-ticket the burst and leave it staged
    // for a later flush (the gap in ticket numbers is harmless —
    // pending_tickets_ is a set, and the tasks get fresh tickets when
    // a flush finally lands them).
    retire(0, n);
    flushed_all = false;
  }
  if (pushed != 0) {
    bursts_.fetch_add(1, std::memory_order_relaxed);
    burst_updates_.fetch_add(pushed, std::memory_order_relaxed);
    burst_hist_.record(pushed);
    std::size_t prev = max_burst_.load(std::memory_order_relaxed);
    while (prev < pushed && !max_burst_.compare_exchange_weak(
                                prev, pushed, std::memory_order_relaxed)) {
    }
    switch (reason) {
      case FlushReason::kFull:
        flushes_full_.fetch_add(1, std::memory_order_relaxed);
        break;
      case FlushReason::kDeadline:
        flushes_deadline_.fetch_add(1, std::memory_order_relaxed);
        break;
      case FlushReason::kDrain:
        flushes_drain_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  return flushed_all;
}

void AggService::flush_all_buffers(FlushReason reason) {
  std::vector<std::shared_ptr<BurstBuffer>> bufs;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    bufs = buffers_;
  }
  for (auto& buf : bufs) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    (void)flush_locked(*buf, reason, /*blocking=*/true);
  }
}

void AggService::flusher_loop() {
  const auto period = std::chrono::microseconds(config_.flush_deadline_us);
  std::unique_lock<std::mutex> lock(flusher_mutex_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(lock, period, [this] { return flusher_stop_; });
    if (flusher_stop_) break;
    lock.unlock();
    std::vector<std::shared_ptr<BurstBuffer>> bufs;
    {
      std::lock_guard<std::mutex> g(buffers_mutex_);
      bufs = buffers_;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& buf : bufs) {
      // try_to_lock: a contended buffer means its producer is mid-
      // submit (it will flush on full, or the next sweep catches it).
      // Yielding here keeps the flusher from ever making a producer's
      // try_submit fail on a momentarily-held buffer mutex.
      std::unique_lock<std::mutex> g(buf->mutex, std::try_to_lock);
      if (!g.owns_lock()) continue;
      if (buf->tasks.empty() || now - buf->oldest < period) continue;
      // Non-blocking: a throttled queue means the system is saturated,
      // not that the update is stranded — the next sweep (or the
      // producer's own full-buffer flush) retries, and the flusher
      // never wedges on one buffer while others age.
      (void)flush_locked(*buf, FlushReason::kDeadline,
                         /*blocking=*/false);
    }
    lock.lock();
  }
}

bool AggService::submit(const std::string& tenant, Matrix update) {
  if (stopped_.load(std::memory_order_seq_cst)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  tenant_for(tenant, update.rows(), update.cols());
  BurstBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  // Re-check under the buffer lock: stop() sets stopped_ and then
  // sweeps every buffer under its mutex, so a submit that stages after
  // this check is ordered before that sweep (or sees stopped_ here).
  if (stopped_.load(std::memory_order_seq_cst)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const auto now = std::chrono::steady_clock::now();
  if (buf.tasks.empty()) buf.oldest = now;
  buf.tasks.push_back(Task{tenant, std::move(update), now});
  if (buf.tasks.size() >= config_.burst_size)
    (void)flush_locked(buf, FlushReason::kFull, /*blocking=*/true);
  return true;
}

bool AggService::try_submit(const std::string& tenant, Matrix&& update) {
  if (stopped_.load(std::memory_order_seq_cst)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  tenant_for(tenant, update.rows(), update.cols());
  BurstBuffer& buf = local_buffer();
  // A busy buffer is either the flusher's microsecond-scale sweep (one
  // yield rides it out) or a drain/stop sweep blocked on the watermark
  // (genuine backpressure: report it rather than blocking an open-loop
  // load generator behind it).
  std::unique_lock<std::mutex> lock(buf.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    std::this_thread::yield();
    if (!lock.try_lock()) return false;
  }
  if (stopped_.load(std::memory_order_seq_cst)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (buf.tasks.size() >= config_.burst_size &&
      !flush_locked(buf, FlushReason::kFull, /*blocking=*/false)) {
    return false;  // ingest saturated; the update is untouched
  }
  const auto now = std::chrono::steady_clock::now();
  if (buf.tasks.empty()) buf.oldest = now;
  buf.tasks.push_back(Task{tenant, std::move(update), now});
  if (buf.tasks.size() >= config_.burst_size)
    (void)flush_locked(buf, FlushReason::kFull, /*blocking=*/false);
  return true;
}

void AggService::worker_loop(std::size_t worker_index) {
  if (config_.pin_threads)
    (void)util::pin_current_thread_to_cpu(worker_index);
  std::vector<Task> burst;
  burst.reserve(config_.burst_size);
  // pop_burst returns 0 only once the queue is closed AND drained, so
  // shutdown folds the whole backlog before the workers exit.
  while (queue_.pop_burst(burst, config_.burst_size) != 0) {
    apply_burst(burst);
    burst.clear();
  }
}

void AggService::apply_burst(std::vector<Task>& burst) {
  // Group task indices per tenant, preserving burst order (= each
  // producer's submission order) within a group. Bursts are small
  // (<= burst_size), so linear grouping beats a map.
  std::vector<std::pair<const std::string*, std::vector<std::size_t>>>
      groups;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const auto& g) { return *g.first == burst[i].tenant; });
    if (it == groups.end())
      groups.emplace_back(&burst[i].tenant,
                          std::vector<std::size_t>{i});
    else
      it->second.push_back(i);
  }
  std::vector<unsigned char> ok(burst.size(), 1);
  const auto fold_start = std::chrono::steady_clock::now();
  for (auto& g : groups) apply_group(burst, g.second, ok);
  const auto now = std::chrono::steady_clock::now();
  fold_hist_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                           fold_start)
          .count()));
  std::uint64_t n_ok = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (!ok[i]) continue;
    ++n_ok;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now - burst[i].submitted)
                        .count();
    latency_.record(static_cast<std::uint64_t>(ns));
  }
  // Retire the whole burst's tickets with one progress-lock
  // acquisition — the worker-side mirror of ticket issue at flush.
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    for (const auto& task : burst) pending_tickets_.erase(task.ticket);
    applied_ += n_ok;
    apply_errors_ += burst.size() - n_ok;
  }
  progress_cv_.notify_all();
}

void AggService::apply_group(std::vector<Task>& burst,
                             const std::vector<std::size_t>& group,
                             std::vector<unsigned char>& ok) {
  Tenant* t = find_tenant(burst[group.front()].tenant);
  if (t == nullptr) {  // unreachable: submit creates the tenant
    for (auto i : group) ok[i] = 0;
    return;
  }
  const auto drop = [&](std::size_t i, const char* what) {
    ok[i] = 0;
    std::cerr << "AggService: dropped update for tenant '"
              << burst[i].tenant << "': " << what << "\n";
  };
  // Validate BEFORE staging anything: the config declares inputs
  // sorted to the kernels (merge methods throw on unsorted columns,
  // sliding hash row-slices by binary search), so an unsorted update is
  // invalid traffic. Rejecting it here keeps the drop all-or-nothing —
  // no slice of it ever reaches a shard, and no later fold or snapshot
  // inherits a poisoned batch.
  if (config_.options.inputs_sorted) {
    for (auto i : group) {
      if (!burst[i].update.is_sorted())
        drop(i, "update has unsorted columns but options.inputs_sorted"
                " is set");
    }
  }
  // Defensive backstop for folds that throw anyway (e.g. allocation
  // failure): the affected shard discards its staged batch — losing
  // that batch but keeping the accumulator serviceable — and the task
  // is dropped into the apply-error accounting. Caller holds sh.mutex.
  const auto fold_slice = [](TenantShard& sh, Matrix&& slice) {
    const std::uint64_t nnz = slice.nnz();
    try {
      sh.acc.add(std::move(slice));
    } catch (...) {
      sh.acc.discard_staged();
      throw;
    }
    ++sh.slices_applied;
    sh.folded_nnz += nnz;
  };
  // Shared vs. snapshot's unique lock: every update in the group lands
  // atomically with respect to readers.
  std::shared_lock apply_lock(t->apply_mutex);
  std::uint64_t applied_here = 0;
  if (t->shards.size() == 1) {
    // One shard-lock acquisition for the whole group.
    TenantShard& sh = t->shards.front();
    std::lock_guard<std::mutex> g(sh.mutex);
    for (auto i : group) {
      if (!ok[i]) continue;
      try {
        fold_slice(sh, std::move(burst[i].update));
        ++applied_here;
      } catch (const std::exception& e) {
        drop(i, e.what());
      }
    }
  } else {
    // Partition every update up front, then visit each shard ONCE for
    // the whole group: one shard-lock acquisition per (burst, shard)
    // instead of per (update, shard).
    std::vector<std::vector<Matrix>> sliced(group.size());
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (ok[group[k]])
        sliced[k] = partition_rows(burst[group[k]].update, t->partition);
    }
    for (std::size_t s = 0; s < t->shards.size(); ++s) {
      TenantShard& sh = t->shards[s];
      std::lock_guard<std::mutex> g(sh.mutex);
      for (std::size_t k = 0; k < group.size(); ++k) {
        const std::size_t i = group[k];
        if (!ok[i] || sliced[k][s].nnz() == 0) continue;
        try {
          fold_slice(sh, std::move(sliced[k][s]));
        } catch (const std::exception& e) {
          drop(i, e.what());  // later shards skip this task
        }
      }
    }
    for (auto i : group)
      if (ok[i]) ++applied_here;
  }
  t->updates_applied.fetch_add(applied_here, std::memory_order_relaxed);
}

AggService::Snapshot AggService::snapshot(const std::string& tenant) {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr)
    throw std::invalid_argument("AggService: unknown tenant '" + tenant +
                                "'");
  std::unique_lock apply_lock(t->apply_mutex);
  return snapshot_locked(*t);
}

AggService::Snapshot AggService::snapshot_locked(Tenant& t) {
  // Workers are excluded by the unique apply lock; the shard mutexes
  // are still taken around the fold so stats() readers never race it.
  std::vector<const Matrix*> parts;
  parts.reserve(t.shards.size());
  bool sorted = true;
  for (auto& sh : t.shards) {
    std::lock_guard<std::mutex> g(sh.mutex);
    const Matrix& partial = sh.acc.partial_sum();
    sorted = sorted && sh.acc.partial_is_sorted();
    parts.push_back(&partial);
  }
  core::Options aopts = config_.options;
  aopts.inputs_sorted = aopts.inputs_sorted && sorted;
  Snapshot snap;
  snap.sum =
      core::spkadd(core::MatrixPtrs<std::int32_t, double>(parts), aopts);
  snap.epoch = t.epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  snap.updates_applied = t.updates_applied.load(std::memory_order_relaxed);
  t.snapshots.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

AggService::Snapshot AggService::save_snapshot(const std::string& tenant,
                                               const std::string& path) {
  Snapshot snap = snapshot(tenant);
  io::write_binary_file(path, snap.sum);
  return snap;
}

void AggService::restore(const std::string& tenant,
                         const std::string& path) {
  Matrix m = io::read_binary_file(path);  // header-validated
  Tenant& t = tenant_for(tenant, m.rows(), m.cols());
  std::unique_lock apply_lock(t.apply_mutex);
  // Replace, don't merge: the dump IS the running sum. Restored nnz is
  // deliberately not counted as ingest in the shard counters. (No
  // single-shard fast path here — restore is cold, and partition_rows
  // of one shard is just the full matrix.)
  auto slices = partition_rows(m, t.partition);
  for (std::size_t s = 0; s < slices.size(); ++s) {
    auto& sh = t.shards[s];
    std::lock_guard<std::mutex> g(sh.mutex);
    (void)sh.acc.finalize();
    if (slices[s].nnz() != 0) sh.acc.add(std::move(slices[s]));
  }
}

void AggService::drain() {
  // Push every staged burst first so the cutoff below covers them; a
  // drain on a stopped service flushes into a closed queue, which
  // retires the stragglers as rejected instead of hanging on them.
  flush_all_buffers(FlushReason::kDrain);
  std::unique_lock<std::mutex> lock(progress_mutex_);
  // Wait for exactly the tickets issued before this call: completions
  // of later-submitted tasks can never satisfy an earlier drain, and
  // tasks accepted after it do not extend the wait.
  const std::uint64_t cutoff = next_ticket_;
  progress_cv_.wait(lock, [&] {
    return pending_tickets_.empty() || *pending_tickets_.begin() >= cutoff;
  });
}

void AggService::stop() {
  std::call_once(stop_once_, [this] {
    stopped_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(flusher_mutex_);
      flusher_stop_ = true;
    }
    flusher_cv_.notify_all();
    if (flusher_.joinable()) flusher_.join();
    // Staged bursts reach the queue before it closes, so the workers'
    // backlog fold covers them.
    flush_all_buffers(FlushReason::kDrain);
    queue_.close();  // workers fold the backlog, then see 0
    for (auto& w : workers_) w.join();
    // Self-heal the submit/stop race: anything staged concurrently
    // with the sweep above now flushes into the closed queue and is
    // retired as rejected rather than leaving a pending ticket.
    flush_all_buffers(FlushReason::kDrain);
  });
}

ServiceStats AggService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    out.submitted = submitted_;
    out.applied = applied_;
    out.apply_errors = apply_errors_;
  }
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.queue_depth = queue_.size();
  out.queue_high_water = queue_.high_water();
  out.ingest.bursts = bursts_.load(std::memory_order_relaxed);
  out.ingest.burst_updates = burst_updates_.load(std::memory_order_relaxed);
  out.ingest.max_burst = max_burst_.load(std::memory_order_relaxed);
  out.ingest.flushes_full = flushes_full_.load(std::memory_order_relaxed);
  out.ingest.flushes_deadline =
      flushes_deadline_.load(std::memory_order_relaxed);
  out.ingest.flushes_drain = flushes_drain_.load(std::memory_order_relaxed);
  out.ingest.throttle_events = queue_.throttle_events();
  out.ingest.throttle_seconds = queue_.throttle_seconds();
  out.latency = latency_.summary();
  out.shards.resize(config_.shards);
  std::shared_lock tenants_lock(tenants_mutex_);
  for (const auto& [name, t] : tenants_) {
    TenantStats ts;
    ts.tenant = name;
    ts.updates_applied =
        t->updates_applied.load(std::memory_order_relaxed);
    ts.snapshots = t->snapshots.load(std::memory_order_relaxed);
    ts.epoch = t->epoch.load(std::memory_order_relaxed);
    for (std::size_t s = 0; s < t->shards.size(); ++s) {
      auto& sh = t->shards[s];
      std::lock_guard<std::mutex> g(sh.mutex);
      ts.folded_nnz += sh.folded_nnz;
      out.shards[s].slices_applied += sh.slices_applied;
      out.shards[s].folded_nnz += sh.folded_nnz;
      out.shards[s].flushes += sh.acc.stats().flushes;
      out.shards[s].peak_staged_nnz = std::max(
          out.shards[s].peak_staged_nnz, sh.acc.stats().peak_staged_nnz);
      out.shards[s].chunks_heap += sh.counters.chunks_heap;
      out.shards[s].chunks_spa += sh.counters.chunks_spa;
      out.shards[s].chunks_hash += sh.counters.chunks_hash;
      out.shards[s].chunks_sliding += sh.counters.chunks_sliding;
      out.shards[s].chunks_dense += sh.counters.chunks_dense;
      out.shards[s].dense_promotions += sh.acc.stats().dense_promotions;
      out.shards[s].dense_resident_cols += sh.acc.dense_resident_cols();
    }
    out.tenants.push_back(std::move(ts));
  }
  return out;
}

void AggService::export_metrics(obs::CollectorSink& sink) const {
  // Invoked by the registry at scrape time (registry mutex held), so
  // taking the service locks inside stats() is safe: the hot paths
  // never take the registry mutex, ruling out a cycle.
  const ServiceStats st = stats();
  const obs::Labels svc{{"service", "agg"}};
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  sink.counter("spkadd_service_submitted_total",
               "Updates accepted by submit() and handed to the queue",
               svc, d(st.submitted));
  sink.counter("spkadd_service_applied_total",
               "Updates fully folded into their shards", svc,
               d(st.applied));
  sink.counter("spkadd_service_rejected_total",
               "Updates refused (service stopped or queue closed)", svc,
               d(st.rejected));
  sink.counter("spkadd_service_apply_errors_total",
               "Updates dropped by a throwing fold", svc,
               d(st.apply_errors));
  sink.gauge("spkadd_queue_depth", "Current ingest queue backlog", svc,
             d(st.queue_depth));
  sink.gauge("spkadd_queue_high_water", "Deepest ingest backlog seen",
             svc, d(st.queue_high_water));
  sink.counter("spkadd_ingest_bursts_total",
               "Burst flushes into the ingest queue", svc,
               d(st.ingest.bursts));
  sink.counter("spkadd_queue_throttle_events_total",
               "Producer pushes blocked at the high watermark", svc,
               d(st.ingest.throttle_events));
  sink.counter("spkadd_queue_throttle_seconds_total",
               "Total producer time spent throttled", svc,
               st.ingest.throttle_seconds);
  sink.histogram("spkadd_submit_latency_seconds",
                 "Submit-to-applied latency", svc, latency_,
                 obs::Unit::kSeconds);
  sink.histogram("spkadd_fold_seconds",
                 "Wall time folding one popped burst into shards", svc,
                 fold_hist_, obs::Unit::kSeconds);
  sink.histogram("spkadd_ingest_burst_updates",
                 "Updates per flushed burst", svc, burst_hist_,
                 obs::Unit::kCount);
  ShardStats totals;
  for (const auto& sh : st.shards) {
    totals.flushes += sh.flushes;
    totals.peak_staged_nnz =
        std::max(totals.peak_staged_nnz, sh.peak_staged_nnz);
    totals.chunks_heap += sh.chunks_heap;
    totals.chunks_spa += sh.chunks_spa;
    totals.chunks_hash += sh.chunks_hash;
    totals.chunks_sliding += sh.chunks_sliding;
    totals.chunks_dense += sh.chunks_dense;
    totals.dense_promotions += sh.dense_promotions;
    totals.dense_resident_cols += sh.dense_resident_cols;
  }
  sink.counter("spkadd_shard_fold_flushes_total",
               "Accumulator folds performed across shards", svc,
               d(totals.flushes));
  sink.gauge("spkadd_accumulator_staged_nnz_peak",
             "Max nonzeros awaiting a fold in any one shard", svc,
             d(totals.peak_staged_nnz));
  const auto chunk = [&](const char* kernel, std::uint64_t v) {
    sink.counter("spkadd_hybrid_chunks_total",
                 "Hybrid column chunks dispatched per kernel",
                 {{"service", "agg"}, {"kernel", kernel}}, d(v));
  };
  chunk("heap", totals.chunks_heap);
  chunk("spa", totals.chunks_spa);
  chunk("hash", totals.chunks_hash);
  chunk("sliding", totals.chunks_sliding);
  chunk("dense", totals.chunks_dense);
  sink.counter("spkadd_dense_promotions_total",
               "Running-sum columns switched from hash to dense storage",
               svc, d(totals.dense_promotions));
  sink.gauge("spkadd_dense_resident_chunks",
             "Running-sum columns currently held in dense storage",
             svc, d(totals.dense_resident_cols));
  for (const auto& ts : st.tenants) {
    sink.counter("spkadd_tenant_updates_applied_total",
                 "Updates folded into this tenant's running sum",
                 {{"service", "agg"}, {"tenant", ts.tenant}},
                 d(ts.updates_applied));
    sink.counter("spkadd_tenant_snapshots_total",
                 "Snapshots assembled for this tenant",
                 {{"service", "agg"}, {"tenant", ts.tenant}},
                 d(ts.snapshots));
  }
}

}  // namespace spkadd::service
