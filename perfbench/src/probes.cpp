#include "probes.hpp"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "core/symbolic.hpp"
#include "spans.hpp"
#include "util/cache_info.hpp"
#include "util/thread_control.hpp"

namespace perfbench {

using spkadd::core::Method;
using spkadd::core::OpCounters;
using spkadd::core::Options;
using Ptrs = spkadd::core::MatrixPtrs<std::int32_t, double>;

namespace {

constexpr int kCoreReps = 5;

double median_span(const char* name) {
  return median(spans::durations(name));
}

/// Multi-threaded memcpy of the first half of a buffer >= 4x the LLC into
/// its second half; bytes moved per pass = the whole buffer (half read,
/// half written). Median GB/s over several passes.
double copy_bandwidth_gbps() {
  const std::size_t bytes =
      std::max<std::size_t>(4 * spkadd::util::detect_machine().llc.bytes,
                            64u << 20);
  const std::size_t half = bytes / 2;
  std::unique_ptr<char[]> buf(new char[bytes]);
  std::memset(buf.get(), 1, bytes);
  const int threads = spkadd::util::current_max_threads();
  std::vector<double> gbps;
  for (int pass = 0; pass < 6; ++pass) {
    const auto t0 = Clock::now();
    {
      spans::Scope s("core.copy_bandwidth");
#pragma omp parallel for num_threads(threads) schedule(static)
      for (int t = 0; t < threads; ++t) {
        const std::size_t lo = half * static_cast<std::size_t>(t) /
                               static_cast<std::size_t>(threads);
        const std::size_t hi = half * static_cast<std::size_t>(t + 1) /
                               static_cast<std::size_t>(threads);
        std::memcpy(buf.get() + half + lo, buf.get() + lo, hi - lo);
      }
    }
    if (pass > 0)  // the first pass faults pages in
      gbps.push_back(static_cast<double>(2 * half) / seconds_since(t0) /
                     1e9);
  }
  return median(gbps);
}

}  // namespace

void report_gen(std::size_t input_nnz, std::size_t input_bytes, Result& r) {
  const std::size_t llc = spkadd::util::detect_machine().llc.bytes;
  r.set("gen.input_nnz", static_cast<double>(input_nnz), "count");
  r.set("gen.input_bytes", static_cast<double>(input_bytes), "B");
  r.set("gen.llc_bytes", static_cast<double>(llc), "B");
}

void probe_core(std::span<const Csc> addends, Result& r) {
  std::vector<const Csc*> ptrs;
  std::size_t in_nnz = 0;
  for (const auto& m : addends) {
    ptrs.push_back(&m);
    in_nnz += m.nnz();
  }
  const Ptrs view(ptrs);
  const int threads = spkadd::util::current_max_threads();

  const Method choice =
      spkadd::core::auto_select<std::int32_t, double>(addends, Options{});
  r.set("core.auto_choice", static_cast<double>(choice), "enum");
  r.note_text("auto_choice", spkadd::core::method_name(choice));

  for (int i = 0; i < kCoreReps; ++i) {
    spans::Scope s("core.symbolic_nnz_per_column");
    (void)spkadd::core::symbolic_nnz_per_column(view, Options{},
                                                choice == Method::SlidingHash);
  }
  r.set("core.symbolic_s", median_span("core.symbolic_nnz_per_column"),
        "s");

  // Exact counters come from one extra call per method, outside timing.
  const auto counted = [&](Options o) {
    OpCounters c;
    o.counters = &c;
    (void)spkadd::core::spkadd(view, o);
    return c;
  };
  const Csc reference = spkadd::core::spkadd(view, Options{});
  const auto timed = [&](const char* span, Options o) {
    Csc out;
    for (int i = 0; i < kCoreReps; ++i) {
      spans::Scope s(span);
      out = spkadd::core::spkadd(view, o);
    }
    return out;
  };

  (void)timed("core.spkadd.auto", Options{});
  const double auto_s = median_span("core.spkadd.auto");
  r.set("core.spkadd_s", auto_s, "s");
  Options unsorted;
  unsorted.sorted_output = false;
  const Csc u = timed("core.spkadd.auto_unsorted", unsorted);
  r.check(u.nnz() == reference.nnz(), "core unsorted Auto nnz");
  r.set("core.sort_s", auto_s - median_span("core.spkadd.auto_unsorted"),
        "s");

  const struct {
    Method method;
    const char* metric;
    const char* span;
  } forced[] = {
      {Method::Heap, "core.method_s.heap", "core.spkadd.heap"},
      {Method::Spa, "core.method_s.spa", "core.spkadd.spa"},
      {Method::Hash, "core.method_s.hash", "core.spkadd.hash"},
      {Method::SlidingHash, "core.method_s.sliding", "core.spkadd.sliding"},
      {Method::DenseAcc, "core.method_s.dense", "core.spkadd.dense"},
      {Method::Hybrid, "core.method_s.hybrid", "core.spkadd.hybrid"},
  };
  for (const auto& f : forced) {
    Options o;
    o.method = f.method;
    r.check(same_bytes(timed(f.span, o), reference), f.metric);
    r.set(f.metric, median_span(f.span), "s");
  }

  const auto with = [](Method m) {
    Options o;
    o.method = m;
    return o;
  };
  const OpCounters a = counted(Options{});
  r.set("core.hash_probes", static_cast<double>(a.hash_probes), "count");
  r.set("core.table_inits", static_cast<double>(a.table_inits), "count");
  r.set("core.bytes_moved", static_cast<double>(a.bytes_moved), "B");
  r.set("core.spa_touches",
        static_cast<double>(counted(with(Method::Spa)).spa_touches), "count");
  r.set("core.heap_ops",
        static_cast<double>(counted(with(Method::Heap)).heap_ops), "count");
  r.set("core.dense_touches",
        static_cast<double>(counted(with(Method::DenseAcc)).dense_touches),
        "count");
  const OpCounters h = counted(with(Method::Hybrid));
  r.set("core.chunks_heap", static_cast<double>(h.chunks_heap), "count");
  r.set("core.chunks_spa", static_cast<double>(h.chunks_spa), "count");
  r.set("core.chunks_hash", static_cast<double>(h.chunks_hash), "count");
  r.set("core.chunks_sliding", static_cast<double>(h.chunks_sliding),
        "count");
  r.set("core.chunks_dense", static_cast<double>(h.chunks_dense), "count");

  const double nnz = static_cast<double>(in_nnz);
  r.set("core.probes_per_nnz", static_cast<double>(a.hash_probes) / nnz,
        "1");
  r.set("core.compression", nnz / static_cast<double>(reference.nnz()), "1");
  r.set("core.ops_per_byte",
        static_cast<double>(a.work()) /
            static_cast<double>(std::max<std::uint64_t>(1, a.bytes_moved)),
        "1/B");

  const double gbps = copy_bandwidth_gbps();
  r.set("core.stream_gbps", gbps, "GB/s");
  r.set("core.bw_frac",
        static_cast<double>(a.bytes_moved) / auto_s / (gbps * 1e9), "1");

  Options one;
  one.threads = 1;
  r.check(same_bytes(timed("core.spkadd.auto_t1", one), reference),
          "core single-thread Auto");
  const double t1 = median_span("core.spkadd.auto_t1");
  r.set("core.t1_gnnz_per_s", nnz / t1 / 1e9, "Gnnz/s");
  r.set("core.scaling_eff", t1 / auto_s / threads, "1");
}

void probe_accumulator(std::span<const Csc> addends, std::size_t read_every,
                       std::size_t min_flushes, Result& r) {
  using Acc = spkadd::core::Accumulator<std::int32_t, double>;
  const auto rows = addends.front().rows();
  const auto cols = addends.front().cols();
  std::vector<const Csc*> ptrs;
  std::size_t addend_bytes = 0;
  for (const auto& m : addends) {
    ptrs.push_back(&m);
    addend_bytes += m.storage_bytes();
  }
  const Csc reference = spkadd::core::spkadd(Ptrs(ptrs), Options{});

  // One counted stream (untimed) for the bytes re-streamed per byte added.
  {
    OpCounters c;
    Options o;
    o.counters = &c;
    Acc acc(rows, cols, o);
    for (std::size_t i = 0; i < addends.size(); ++i) {
      acc.add(addends[i]);
      if (read_every != 0 && (i + 1) % read_every == 0)
        (void)acc.partial_sum();
    }
    r.check(same_bytes(acc.finalize(), reference), "accumulator (counted)");
    r.set("core.acc.restream_ratio",
          static_cast<double>(c.bytes_moved) /
              static_cast<double>(addend_bytes),
          "1");
  }

  Acc acc(rows, cols);
  std::vector<double> add_s, flush_s, finalize_s;
  std::uint64_t flushes_per_stream = 0;
  std::size_t running_nnz = 0, dense_cols = 0;
  const auto t_start = Clock::now();
  do {
    const std::uint64_t flushes_before = acc.stats().flushes;
    for (std::size_t i = 0; i < addends.size(); ++i) {
      const auto t0 = Clock::now();
      {
        spans::Scope s("core.acc.add");
        acc.add(addends[i]);
      }
      (acc.pending() == 0 ? flush_s : add_s).push_back(seconds_since(t0));
      dense_cols = std::max(dense_cols, acc.dense_resident_cols());
      if (read_every != 0 && (i + 1) % read_every == 0) {
        spans::Scope s("core.acc.partial_sum");
        (void)acc.partial_sum();
      }
    }
    const auto t0 = Clock::now();
    Csc sum;
    {
      spans::Scope s("core.acc.finalize");
      sum = acc.finalize();
    }
    finalize_s.push_back(seconds_since(t0));
    // finalize() folds the last partial batch; count it with the rest.
    flushes_per_stream = acc.stats().flushes - flushes_before;
    running_nnz = sum.nnz();
    r.check(same_bytes(sum, reference), "accumulator stream");
  } while ((flush_s.size() < min_flushes || finalize_s.size() < 3) &&
           seconds_since(t_start) < 20.0);

  r.set("core.acc.add_s", median(add_s), "s");
  r.set("core.acc.flush_p50_ms", 1e3 * median(flush_s), "ms");
  r.set("core.acc.flush_p99_ms", 1e3 * quantile(flush_s, 0.99), "ms");
  r.set("core.acc.flushes", static_cast<double>(flushes_per_stream),
        "count");
  r.set("core.acc.finalize_ms", 1e3 * median(finalize_s), "ms");
  r.set("core.acc.running_nnz", static_cast<double>(running_nnz), "count");
  r.set("core.acc.workspace_bytes",
        static_cast<double>(acc.workspace_bytes()), "B");
  r.set("core.acc.dense_resident_cols", static_cast<double>(dense_cols),
        "count");
  r.note("acc_flush_samples", std::to_string(flush_s.size()));
}

}  // namespace perfbench
