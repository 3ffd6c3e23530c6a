// oneshot-rmat: repeated one-shot core::spkadd calls with default Options
// (Method::Auto, the benchmark's nproc - 1 OpenMP threads) over groups of
// k = 64 integer-valued R-MAT addends. The calls cycle through a pool of groups whose total size
// is at least 4x the detected LLC, so every call streams its inputs from
// memory. Each call's output is checked against the bytes a different
// kernel (the heap merge) produced for that group.
#include <algorithm>
#include <iostream>
#include <thread>

#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "util/cache_info.hpp"
#include "util/thread_control.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// One group: k = 64 addends of 2^18 x 2^6, ~16 nonzeros per column. Small
// groups make calls short (~2 ms), so a 30 s run takes ~15000 calls and
// each percentile is a median over ~15 chunks (see chunked_quantile).
constexpr std::int64_t kRows = 1 << 18;
constexpr std::int64_t kCols = 1 << 6;
constexpr std::int64_t kAvgNnzPerCol = 16;
constexpr int kAddends = 64;
constexpr std::size_t kPoolOverLlc = 4;
constexpr int kSetupReps = 3;

struct Pool {
  std::vector<std::vector<Csc>> groups;
  std::vector<std::vector<const Csc*>> ptrs;
  std::vector<std::size_t> group_nnz;
  std::size_t bytes = 0;
  std::size_t nnz = 0;
};

spkadd::gen::WorkloadSpec group_spec(std::uint64_t seed, std::uint64_t g) {
  spkadd::gen::WorkloadSpec spec;
  spec.pattern = spkadd::gen::Pattern::RMAT;
  spec.rows = kRows;
  spec.cols = kCols;
  spec.avg_nnz_per_col = kAvgNnzPerCol;
  spec.k = kAddends;
  spec.seed = seed * 1000003 + g;
  return spec;
}

/// Generate groups until their total storage reaches kPoolOverLlc x LLC.
/// Groups are independent, so nproc threads generate them side by side
/// (each single-threaded inside; the output does not depend on it).
void generate(std::uint64_t seed, Pool& pool) {
  const std::size_t target =
      kPoolOverLlc * spkadd::util::detect_machine().llc.bytes;
  const auto add = [&](std::vector<Csc> group) {
    std::size_t nnz = 0;
    for (auto& m : group) {
      quantize(m);
      pool.bytes += m.storage_bytes();
      nnz += m.nnz();
    }
    pool.nnz += nnz;
    pool.group_nnz.push_back(nnz);
    pool.groups.push_back(std::move(group));
  };
  add(spkadd::gen::make_workload(group_spec(seed, 0)));
  while (pool.bytes < target) {
    const std::size_t want = std::max<std::size_t>(
        1, (target - pool.bytes + pool.bytes / pool.groups.size() - 1) /
               (pool.bytes / pool.groups.size()));
    const std::size_t first = pool.groups.size();
    std::vector<std::vector<Csc>> made(want);
    const std::size_t threads = std::min<std::size_t>(
        want, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t)
      workers.emplace_back([&, t] {
        spkadd::util::ThreadCountGuard one(1);
        for (std::size_t i = t; i < want; i += threads)
          made[i] = spkadd::gen::make_workload(group_spec(seed, first + i));
      });
    for (auto& w : workers) w.join();
    for (auto& group : made) add(std::move(group));
  }
  for (const auto& group : pool.groups) {
    std::vector<const Csc*> p;
    for (const auto& m : group) p.push_back(&m);
    pool.ptrs.push_back(std::move(p));
  }
}

struct Samples {
  std::vector<double> call_s;
  std::vector<double> gnnz_per_s;
  std::vector<double> addends_per_s;
};

/// Call spkadd on successive groups for `seconds`; each output is compared
/// with its group's reference digest after the timer stops.
Samples measure(const Pool& pool, const std::vector<std::uint64_t>& digests,
                double seconds, Result& r) {
  Samples s;
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < t_end; ++i) {
    const std::size_t g = i % pool.groups.size();
    const spkadd::core::MatrixPtrs<std::int32_t, double> view(pool.ptrs[g]);
    const std::uint64_t op = spans::new_op();
    Csc out;
    const auto t0 = Clock::now();
    {
      spans::Scope span("core.spkadd", op);
      out = spkadd::core::spkadd(view);
    }
    const double dt = seconds_since(t0);
    {
      spans::Scope span("bench.verify", op);
      r.check(digest(out) == digests[g], "oneshot output digest");
    }
    s.call_s.push_back(dt);
    s.gnnz_per_s.push_back(static_cast<double>(pool.group_nnz[g]) / dt / 1e9);
    s.addends_per_s.push_back(kAddends / dt);
  }
  return s;
}

}  // namespace

Result run_oneshot(const RunParams& params) {
  Result r;
  Pool pool;
  const double setup_s = timed_setup(
      kSetupReps, [&] { pool = Pool(); }, [&] { generate(params.seed, pool); });
  std::cerr << "perfbench: oneshot-rmat pool " << pool.groups.size()
            << " groups, " << pool.nnz << " nnz, " << pool.bytes
            << " bytes, setup " << setup_s << " s\n";
  r.note_inputs(pool.nnz, pool.bytes);
  r.note("pool_groups", std::to_string(pool.groups.size()));
  r.note("group_bytes", std::to_string(pool.bytes / pool.groups.size()));

  // Reference bytes for every group from a different kernel, compared in
  // full with the Auto output once; later calls compare digests.
  std::vector<std::uint64_t> digests;
  for (const auto& p : pool.ptrs) {
    const spkadd::core::MatrixPtrs<std::int32_t, double> view(p);
    spkadd::core::Options heap;
    heap.method = spkadd::core::Method::Heap;
    const Csc ref = spkadd::core::spkadd(view, heap);
    r.check(same_bytes(spkadd::core::spkadd(view), ref),
            "oneshot Auto vs heap");
    digests.push_back(digest(ref));
  }

  if (!params.trace) {
    const Samples s = measure(pool, digests, params.seconds, r);
    std::cerr << "perfbench: " << s.call_s.size() << " calls\n";
    r.note("samples", std::to_string(s.call_s.size()));
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mib(), "MiB");
    r.set("gnnz_per_s", median(s.gnnz_per_s), "Gnnz/s");
    r.set("updates_per_s", median(s.addends_per_s), "1/s");
    r.set("snapshot_p50_ms", 1e3 * median(s.call_s), "ms");
    r.set("snapshot_p90_ms", 1e3 * chunked_quantile(s.call_s, 0.90), "ms");
    r.set("submit_p50_ms", 1e3 * median(s.call_s), "ms");
    r.set("submit_p90_ms", 1e3 * chunked_quantile(s.call_s, 0.90), "ms");
    return r;
  }

  // Traced run: the same loop untraced and traced (half the time each),
  // then the per-layer probes on group 0.
  const double untraced =
      median(measure(pool, digests, params.seconds / 2, r).gnnz_per_s);
  spans::enable(true);
  double traced = 0;
  {
    spans::Scope root("bench.oneshot-rmat");
    traced = median(measure(pool, digests, params.seconds / 2, r).gnnz_per_s);
  }
  r.set("trace.unattributed_frac", spans::unattributed_frac(), "1");
  r.set("trace.overhead_frac", untraced / traced - 1.0, "1");

  report_gen(pool.nnz, pool.bytes, r);
  probe_core(pool.groups[0], r);
  probe_accumulator(pool.groups[0], 0, 1000, r);
  probe_daemon_layers(pool.groups[0], r);
  spans::enable(false);
  return r;
}

}  // namespace perfbench
