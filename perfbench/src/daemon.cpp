// daemon-mixed: an in-process DaemonServer on loopback with four tenants,
// sliding windows and small integer-valued R-MAT updates. A closed-loop
// phase (pipelined submits at a fixed depth per connection, cut into
// slices by drain barriers) is followed by an open-loop phase (submits at
// a fixed absolute offered rate, timed from their due times); snapshot
// requests run at a fixed rate on their own connection alongside both.
// After a final drain every window of every tenant is compared with a
// reference fold of the updates it should hold. BENCHMARK.json does not
// list this workload (its latencies do not repeat on a shared host, see
// README.md); the drive below also measures the service and net layers in
// the other workloads' traced runs.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <thread>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "probes.hpp"
#include "service/windowed_service.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = spkadd::net;

namespace {

// Updates: 2^10 x 16, ~4 nonzeros per column (64 per update), from a pool
// of 2^14 generated per seed.
constexpr std::int64_t kRows = 1 << 10;
constexpr std::int64_t kCols = 16;
constexpr std::int64_t kAvgNnzPerCol = 4;
constexpr int kPoolUpdates = 1 << 14;
constexpr int kSetupReps = 5;
// Load comes from one process: `submit_connections` submitter threads,
// one snapshot thread and the main thread's control connection, never
// more than nproc connections. Every tenant belongs to one submitter, so
// its timestamps rise in submission order.
// The defaults are the daemon-mixed workload's. The open-loop rate is
// fixed in absolute terms; README.md says why it is about a tenth of the
// closed-loop rate rather than half.
struct DaemonPlan {
  std::size_t submit_connections = 2;
  std::size_t tenants_per_connection = 2;
  std::uint64_t bucket_width = 128;  ///< ticks; one tick per update
  std::size_t live_buckets = 4;
  std::size_t depth = 32;  ///< closed loop: frames in flight per connection
  std::size_t slice_updates = 1024;  ///< closed loop: per connection/slice
  double closed_seconds = 5;
  double open_seconds = 15;
  double open_rate = 4000;     ///< open loop: total offered updates/s
  double snapshot_rate = 200;  ///< snapshot requests/s, both phases
};

/// The daemon and its client connections.
struct DaemonRig {
  std::unique_ptr<spkadd::net::DaemonServer> server;
  std::vector<std::unique_ptr<spkadd::net::Client>> submitters;
  std::unique_ptr<spkadd::net::Client> snapshots;
  std::unique_ptr<spkadd::net::Client> control;
};

struct DaemonOutcome {
  std::vector<double> slice_updates_per_s;  ///< closed loop, per slice
  std::vector<double> slice_gnnz_per_s;
  std::vector<double> submit_s;    ///< open loop: due time -> ack
  std::vector<double> late_s;      ///< open loop: due time -> send
  std::vector<double> snapshot_s;  ///< open loop: due time -> snapshot
  double achieved_rate = 0;        ///< open loop: acks per second
  std::string stats_json;          ///< after the final drain
  std::string metrics_text;        ///< one /metrics scrape at the end
};

Clock::time_point after(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// Waiting for loadgen threads: their own spans cover this time.
void join_all(std::vector<std::thread>& threads) {
  spans::Scope span("bench.join");
  for (auto& t : threads) t.join();
}

/// Run a loadgen thread body; an exception (a broken connection) counts as
/// one failed operation instead of ending the process.
template <class F>
void guarded(std::uint64_t& attempted, std::uint64_t& failed, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    ++attempted;
    ++failed;
    std::cerr << "perfbench: loadgen thread: " << e.what() << "\n";
  }
}

std::string tenant_name(std::size_t t) {
  std::string name(1, 't');
  return name.append(std::to_string(t));
}

struct TenantLog {
  std::string name;
  std::uint64_t next_ts = 0;
  /// (timestamp, pool index) of every update sent, in order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sent;
};

/// One submitter connection's update sequence and check counts.
struct Submitter {
  std::size_t index = 0;
  std::uint64_t seq = 0;
  std::uint64_t attempted = 0, failed = 0, nnz = 0;
  std::vector<double> submit_s, late_s;
};

struct Next {
  TenantLog* tenant;
  std::uint64_t ts;
  const Csc* m;
};

class Sequencer {
 public:
  Sequencer(const DaemonPlan& plan, std::span<const Csc> pool)
      : plan_(plan), pool_(pool) {
    const std::size_t n = plan.submit_connections * plan.tenants_per_connection;
    for (std::size_t t = 0; t < n; ++t)
      tenants_.push_back(TenantLog{tenant_name(t), 0, {}});
  }

  /// The next update of submitter `s`: tenants round-robin among the
  /// ones it owns, pool entries interleaved across submitters.
  Next next(Submitter& s) {
    const std::size_t c = plan_.submit_connections;
    TenantLog& t = tenants_[s.index * plan_.tenants_per_connection +
                            s.seq % plan_.tenants_per_connection];
    const auto p = static_cast<std::uint32_t>((s.index + c * s.seq) %
                                              pool_.size());
    ++s.seq;
    const std::uint64_t ts = t.next_ts++;
    t.sent.push_back({ts, p});
    s.nnz += pool_[p].nnz();
    return {&t, ts, &pool_[p]};
  }

  std::vector<TenantLog>& tenants() { return tenants_; }

 private:
  const DaemonPlan& plan_;
  std::span<const Csc> pool_;
  std::vector<TenantLog> tenants_;
};

void closed_slice(const DaemonPlan& plan, Sequencer& seq, Submitter& s,
                  net::Client& client) {
  spans::Scope root("loadgen.closed_slice");
  const auto send = [&] {
    const Next n = seq.next(s);
    spans::Scope span("net.submit_async", spans::new_op());
    client.submit_async(n.tenant->name, n.ts, *n.m);
  };
  const auto flush = [&] {
    spans::Scope span("net.flush");
    client.flush();
  };
  const auto acks = [&](std::size_t k) {
    spans::Scope span("net.ack_wait");
    return client.collect_acks(k);
  };
  const std::size_t n = plan.slice_updates;
  const std::size_t first = std::min(plan.depth, n);
  for (std::size_t i = 0; i < first; ++i) send();
  flush();
  std::size_t ok = 0;
  for (std::size_t i = first; i < n; ++i) {
    ok += acks(1);
    send();
    flush();
  }
  ok += acks(first);
  s.attempted += n;
  s.failed += n - ok;
}

void open_loop(double rate, Clock::time_point t0, Clock::time_point t_end,
               Sequencer& seq, Submitter& s, net::Client& client) {
  spans::Scope root("loadgen.open_loop");
  for (std::uint64_t i = 0;; ++i) {
    const auto due = after(t0, static_cast<double>(i) / rate);
    if (due >= t_end) break;
    {
      spans::Scope idle("loadgen.sleep");
      std::this_thread::sleep_until(due);
    }
    s.late_s.push_back(seconds_since(due));
    const Next n = seq.next(s);
    net::Status st;
    {
      spans::Scope span("net.submit", spans::new_op());
      st = client.submit(n.tenant->name, n.ts, *n.m);
    }
    s.submit_s.push_back(seconds_since(due));
    ++s.attempted;
    if (st != net::Status::kOk) ++s.failed;
  }
}

/// Snapshots of the whole live ring at plan.snapshot_rate, tenants in
/// turn, each timed from its due time; latencies are kept only while
/// `open_phase` is set.
void snapshot_loop(const DaemonPlan& plan, Sequencer& seq,
                   net::Client& client, const std::atomic<bool>& stop,
                   const std::atomic<bool>& open_phase,
                   std::vector<double>& samples, std::uint64_t& attempted,
                   std::uint64_t& failed) {
  spans::Scope root("loadgen.snapshots");
  const auto t0 = Clock::now();
  const auto& tenants = seq.tenants();
  for (std::uint64_t j = 0;; ++j) {
    const auto due = after(t0, static_cast<double>(j) / plan.snapshot_rate);
    {
      spans::Scope idle("loadgen.sleep");
      std::this_thread::sleep_until(due);
    }
    if (stop.load()) break;
    net::Status st;
    {
      spans::Scope span("net.snapshot", spans::new_op());
      st = client.snapshot(tenants[j % tenants.size()].name, 0).status;
    }
    if (open_phase.load()) samples.push_back(seconds_since(due));
    ++attempted;
    if (st != net::Status::kOk) ++failed;
  }
}

/// Raises a stop flag and joins its thread, at stop() or on any exit path.
class StopAndJoin {
 public:
  StopAndJoin(std::atomic<bool>& flag, std::thread& thread)
      : flag_(flag), thread_(thread) {}
  ~StopAndJoin() { stop(); }
  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    flag_.store(true);
    spans::Scope span("bench.join");
    thread_.join();
  }

 private:
  std::atomic<bool>& flag_;
  std::thread& thread_;
};

/// Reference for one tenant's window of `w` buckets (0 = the live ring):
/// one-shot spkadd over the updates whose bucket lies in the window.
Csc reference(const DaemonPlan& plan, const TenantLog& t, std::size_t w,
              std::span<const Csc> pool) {
  const std::uint64_t newest = t.sent.back().first / plan.bucket_width;
  const std::uint64_t span = (w == 0 ? plan.live_buckets : w) - 1;
  const std::uint64_t lo = newest >= span ? newest - span : 0;
  std::vector<const Csc*> in;
  for (const auto& [ts, p] : t.sent)
    if (ts / plan.bucket_width >= lo) in.push_back(&pool[p]);
  return spkadd::core::spkadd(
      spkadd::core::MatrixPtrs<std::int32_t, double>(in));
}

/// Start a daemon on an ephemeral loopback port and connect the clients.
DaemonRig make_rig(const DaemonPlan& plan) {
  net::ServerConfig cfg;
  cfg.service.window.bucket_width = plan.bucket_width;
  cfg.service.window.live_buckets = plan.live_buckets;
  DaemonRig rig;
  rig.server = std::make_unique<net::DaemonServer>(cfg);
  const auto port = rig.server->port();
  for (std::size_t c = 0; c < plan.submit_connections; ++c)
    rig.submitters.push_back(
        std::make_unique<net::Client>("127.0.0.1", port));
  rig.snapshots = std::make_unique<net::Client>("127.0.0.1", port);
  rig.control = std::make_unique<net::Client>("127.0.0.1", port);
  return rig;
}

/// Closed-loop phase, then open-loop phase, with snapshots at a fixed rate
/// alongside both; then a final drain and the checks: every ack Ok, every
/// window width of every tenant byte-equal to a reference fold of the
/// updates it should hold, no expiry, no apply error, no protocol error.
DaemonOutcome drive_daemon(const DaemonPlan& plan, DaemonRig& rig,
                           std::span<const Csc> pool, Result& r) {
  const std::size_t C = plan.submit_connections;
  Sequencer seq(plan, pool);
  std::vector<Submitter> subs(C);
  for (std::size_t c = 0; c < C; ++c) subs[c].index = c;
  DaemonOutcome out;

  // Create every tenant before snapshots start: one update each.
  for (std::size_t c = 0; c < C; ++c)
    for (std::size_t j = 0; j < plan.tenants_per_connection; ++j) {
      const Next n = seq.next(subs[c]);
      spans::Scope span("net.submit");
      r.check(rig.submitters[c]->submit(n.tenant->name, n.ts, *n.m) ==
                  net::Status::kOk,
              "daemon first submit");
    }
  {
    spans::Scope span("net.drain");
    r.check(rig.control->drain() == net::Status::kOk, "daemon drain");
  }

  // Snapshot latency is reported from the open-loop phase only, where
  // the offered load is fixed; closed-loop snapshots add load and are
  // checked, but queue behind a saturated poll loop by design.
  std::atomic<bool> stop_snapshots{false}, open_phase{false};
  std::uint64_t snap_attempted = 0, snap_failed = 0;
  std::thread snapshotter([&] {
    guarded(snap_attempted, snap_failed, [&] {
      snapshot_loop(plan, seq, *rig.snapshots, stop_snapshots, open_phase,
                    out.snapshot_s, snap_attempted, snap_failed);
    });
  });
  StopAndJoin snapshots_done(stop_snapshots, snapshotter);

  // Closed loop: slices of `slice_updates` per connection, each ended by
  // a drain so the slice rate counts applied updates, not just acks.
  const auto closed_end = after(Clock::now(), plan.closed_seconds);
  do {
    std::uint64_t nnz_before = 0;
    for (const auto& s : subs) nnz_before += s.nnz;
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < C; ++c)
      threads.emplace_back([&, c] {
        guarded(subs[c].attempted, subs[c].failed, [&] {
          closed_slice(plan, seq, subs[c], *rig.submitters[c]);
        });
      });
    join_all(threads);
    net::Status st;
    {
      spans::Scope span("net.drain");
      st = rig.control->drain();
    }
    r.check(st == net::Status::kOk, "daemon slice drain");
    const double dt = seconds_since(t0);
    std::uint64_t nnz_after = 0;
    for (const auto& s : subs) nnz_after += s.nnz;
    out.slice_updates_per_s.push_back(
        static_cast<double>(C * plan.slice_updates) / dt);
    out.slice_gnnz_per_s.push_back(
        static_cast<double>(nnz_after - nnz_before) / dt / 1e9);
  } while (Clock::now() < closed_end);

  // Open loop at a fixed offered rate; a rate <= 0 means half the
  // closed-loop median of this drive.
  const double rate = plan.open_rate > 0
                          ? plan.open_rate
                          : 0.5 * median(out.slice_updates_per_s);
  if (plan.open_seconds > 0) {
    const auto t0 = after(Clock::now(), 0.001);
    open_phase.store(true);
    const auto t_end = after(t0, plan.open_seconds);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < C; ++c)
      threads.emplace_back([&, c] {
        guarded(subs[c].attempted, subs[c].failed, [&] {
          open_loop(rate / static_cast<double>(C), t0, t_end, seq, subs[c],
                    *rig.submitters[c]);
        });
      });
    join_all(threads);
    std::size_t acks = 0;
    for (const auto& s : subs) acks += s.submit_s.size();
    out.achieved_rate = static_cast<double>(acks) / seconds_since(t0);
  }
  snapshots_done.stop();

  for (auto& s : subs) {
    r.attempted += s.attempted;
    r.failed += s.failed;
    out.submit_s.insert(out.submit_s.end(), s.submit_s.begin(),
                        s.submit_s.end());
    out.late_s.insert(out.late_s.end(), s.late_s.begin(), s.late_s.end());
  }
  r.attempted += snap_attempted;
  r.failed += snap_failed;

  // Final cut: every window width of every tenant against its reference.
  {
    spans::Scope root("bench.verify");
    r.check(rig.control->drain() == net::Status::kOk, "daemon final drain");
    for (const auto& t : seq.tenants())
      for (std::size_t w = 0; w <= plan.live_buckets; ++w) {
        const auto snap = rig.control->snapshot(t.name, w);
        r.check(snap.status == net::Status::kOk &&
                    same_bytes(snap.sum, reference(plan, t, w, pool)),
                "daemon window snapshot");
      }
    out.stats_json = rig.control->stats_json();
    out.metrics_text = rig.control->metrics_text();
  }
  const auto& js = out.stats_json;
  r.check(json_number(js, "expired") == 0, "no expired updates");
  r.check(json_number(js, "apply_errors") == 0, "no apply errors");
  r.check(json_number(js, "protocol_errors") == 0, "no protocol errors");
  r.check(json_number(js, "applied") == json_number(js, "submitted"),
          "every submitted update applied");
  return out;
}

/// Per-layer service.*, net.* and loadgen.* metrics of one traced drive.
void report_daemon_layers(const DaemonOutcome& out,
                          std::span<const Csc> pool, Result& r) {
  const auto us = [](const char* span) {
    return 1e6 * median(spans::durations(span));
  };
  r.set("net.encode_us", us("net.submit_async"), "us");
  r.set("net.flush_us", us("net.flush"), "us");
  r.set("net.ack_wait_us", us("net.ack_wait"), "us");
  std::size_t frame_bytes = 0;
  const std::size_t n = pool.size();
  for (std::size_t i = 0; i < n; ++i) {
    net::Request req;
    req.verb = net::Verb::kSubmit;
    req.tenant = "t0";
    req.payload = net::encode_matrix(pool[i]);
    std::string frame;
    net::encode_request(req, frame);
    frame_bytes += frame.size();
  }
  r.set("net.frame_bytes_per_update",
        static_cast<double>(frame_bytes) / static_cast<double>(n), "B");
  const auto& text = out.metrics_text;
  r.set("net.request_p50_us.submit",
        1e6 * prom_histogram_quantile(text, "spkadd_daemon_request_seconds",
                                      "verb=\"submit\"", 0.5),
        "us");
  r.set("net.request_p50_us.snapshot",
        1e6 * prom_histogram_quantile(text, "spkadd_daemon_request_seconds",
                                      "verb=\"snapshot\"", 0.5),
        "us");
  const auto& js = out.stats_json;
  r.set("net.protocol_errors", json_number(js, "protocol_errors"), "count");
  r.set("service.queue_high_water", json_number(js, "queue_high_water"),
        "count");
  r.set("service.updates_per_burst",
        json_number(js, "burst_updates") /
            std::max(1.0, json_number(js, "bursts")),
        "count");
  r.set("service.expired", json_number(js, "expired"), "count");
  r.set("service.apply_errors", json_number(js, "apply_errors"), "count");
  r.set("service.fold_p50_ms",
        1e3 * prom_histogram_quantile(text, "spkadd_fold_seconds", "", 0.5),
        "ms");
  r.set("service.fold_p99_ms",
        1e3 * prom_histogram_quantile(text, "spkadd_fold_seconds", "", 0.99),
        "ms");
  r.set("service.throttle_s",
        prom_value(text, "spkadd_queue_throttle_seconds_total"), "s");
  r.set("loadgen.late_p99_ms", 1e3 * chunked_quantile(out.late_s, 0.99), "ms");
  r.set("loadgen.achieved_rate", out.achieved_rate, "1/s");
}

/// service.inproc_*: the closed-loop update sequence through
/// WindowedAggService::submit_burst and drain, with no socket.
void probe_service_inproc(const DaemonPlan& plan, std::span<const Csc> pool,
                          double seconds, Result& r) {
  using Service = spkadd::service::WindowedAggService;
  Service::Config cfg;
  cfg.window.bucket_width = plan.bucket_width;
  cfg.window.live_buckets = plan.live_buckets;
  cfg.metrics = nullptr;  // keep the daemon's /metrics scrape its own
  Service svc(cfg);
  const std::size_t tenants =
      plan.submit_connections * plan.tenants_per_connection;
  std::vector<std::uint64_t> next_ts(tenants, 0);
  const std::size_t per_drain = plan.slice_updates * plan.submit_connections;

  std::uint64_t updates = 0;
  std::vector<double> burst_s, drain_s;
  const auto t_start = Clock::now();
  const auto t_end = after(t_start, seconds);
  while (Clock::now() < t_end) {
    for (std::size_t done = 0; done < per_drain;) {
      std::vector<Service::TimedUpdate> burst;
      for (; burst.size() < cfg.burst_size && done < per_drain; ++done) {
        const std::size_t t = updates % tenants;
        burst.push_back({tenant_name(t), next_ts[t]++,
                         pool[updates % pool.size()], {}});
        ++updates;
      }
      const std::size_t n = burst.size();
      const auto t0 = Clock::now();
      std::size_t accepted = 0;
      {
        spans::Scope span("service.submit_burst");
        accepted = svc.submit_burst(burst);
      }
      burst_s.push_back(seconds_since(t0));
      r.check(accepted == n, "in-process burst accepted");
    }
    const auto t0 = Clock::now();
    {
      spans::Scope span("service.drain");
      svc.drain();
    }
    drain_s.push_back(seconds_since(t0));
  }
  const double wall = seconds_since(t_start);
  const auto st = svc.stats();
  r.check(st.applied == updates && st.expired == 0 && st.apply_errors == 0,
          "in-process service applied every update");
  r.set("service.inproc_updates_per_s", static_cast<double>(updates) / wall,
        "1/s");
  r.set("service.submit_burst_us", 1e6 * median(burst_s), "us");
  r.set("service.drain_ms", 1e3 * median(drain_s), "ms");
}

}  // namespace

void probe_daemon_layers(std::span<const Csc> pool, Result& r) {
  DaemonPlan plan;
  plan.bucket_width = 8;
  plan.live_buckets = 8;
  plan.depth = 8;
  plan.slice_updates = 64;
  plan.closed_seconds = 2;
  plan.open_seconds = 2;
  plan.open_rate = 0;  // half this drive's closed-loop rate
  plan.snapshot_rate = 20;
  DaemonRig rig = make_rig(plan);
  const DaemonOutcome out = drive_daemon(plan, rig, pool, r);
  report_daemon_layers(out, pool, r);
  probe_service_inproc(plan, pool, 2.0, r);
}

namespace {

DaemonPlan workload_plan(double seconds) {
  DaemonPlan plan;
  plan.closed_seconds = seconds / 4;
  plan.open_seconds = seconds - plan.closed_seconds;
  return plan;
}

std::vector<Csc> generate(std::uint64_t seed) {
  spkadd::gen::WorkloadSpec spec;
  spec.pattern = spkadd::gen::Pattern::RMAT;
  spec.rows = kRows;
  spec.cols = kCols;
  spec.avg_nnz_per_col = kAvgNnzPerCol;
  spec.k = kPoolUpdates;
  spec.seed = seed;
  auto pool = spkadd::gen::make_workload(spec);
  for (auto& m : pool) quantize(m);
  // R-MAT puts its heavy columns first; a seeded shuffle spreads them so
  // every closed-loop slice sends a similar mix of update sizes.
  spkadd::util::Xoshiro256 rng(seed);
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.bounded(i)]);
  return pool;
}

}  // namespace

Result run_daemon(const RunParams& params) {
  Result r;
  const DaemonPlan plan = workload_plan(params.seconds);
  std::vector<Csc> pool;
  DaemonRig rig;
  const double setup_s = timed_setup(
      kSetupReps,
      [&] {
        rig = DaemonRig();
        pool.clear();
      },
      [&] {
        pool = generate(params.seed);
        rig = make_rig(plan);
      });
  std::size_t nnz = 0, bytes = 0;
  for (const auto& m : pool) {
    nnz += m.nnz();
    bytes += m.storage_bytes();
  }
  std::cerr << "perfbench: daemon-mixed pool " << pool.size() << " updates, "
            << nnz << " nnz, setup " << setup_s << " s\n";
  r.note_inputs(nnz, bytes);
  r.note("open_rate", std::to_string(plan.open_rate));
  r.note("snapshot_rate", std::to_string(plan.snapshot_rate));

  if (!params.trace) {
    const DaemonOutcome out = drive_daemon(plan, rig, pool, r);
    r.note("closed_slices", std::to_string(out.slice_updates_per_s.size()));
    r.note("open_submits", std::to_string(out.submit_s.size()));
    r.note("snapshots", std::to_string(out.snapshot_s.size()));
    r.note("achieved_rate", std::to_string(out.achieved_rate));
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mib(), "MiB");
    r.set("gnnz_per_s", median(out.slice_gnnz_per_s), "Gnnz/s");
    r.set("updates_per_s", median(out.slice_updates_per_s), "1/s");
    r.set("snapshot_p50_ms", 1e3 * median(out.snapshot_s), "ms");
    r.set("snapshot_p90_ms", 1e3 * chunked_quantile(out.snapshot_s, 0.90), "ms");
    r.set("submit_p50_ms", 1e3 * median(out.submit_s), "ms");
    r.set("submit_p90_ms", 1e3 * chunked_quantile(out.submit_s, 0.90), "ms");
    return r;
  }

  // Traced run: the workload untraced on the set-up rig, then traced on a
  // fresh one (half the time each), then the per-layer probes.
  const DaemonPlan half = workload_plan(params.seconds / 2);
  const double untraced =
      median(drive_daemon(half, rig, pool, r).slice_updates_per_s);
  rig = DaemonRig();
  DaemonRig traced_rig = make_rig(half);
  spans::enable(true);
  DaemonOutcome out;
  {
    spans::Scope root("bench.daemon-mixed");
    out = drive_daemon(half, traced_rig, pool, r);
  }
  r.set("trace.unattributed_frac", spans::unattributed_frac(), "1");
  r.set("trace.overhead_frac",
        untraced / median(out.slice_updates_per_s) - 1.0, "1");
  report_daemon_layers(out, pool, r);
  traced_rig = DaemonRig();
  probe_service_inproc(plan, pool, 2.0, r);

  report_gen(nnz, bytes, r);
  const std::size_t window = plan.bucket_width * plan.live_buckets;
  probe_core(std::span<const Csc>(pool).first(window), r);
  probe_accumulator(std::span<const Csc>(pool).first(plan.bucket_width), 0,
                    1000, r);
  spans::enable(false);
  return r;
}

}  // namespace perfbench
