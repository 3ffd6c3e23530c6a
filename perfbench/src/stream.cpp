// stream-er: the paper's §V gradient aggregation. Each round streams
// K = 256 small uniform (ER) integer-valued addends into one long-lived
// core::Accumulator with default Options, batch capacity and DensePolicy,
// reads partial_sum() after every 13 adds and finalizes at the end of the
// round. 13 is coprime with the batch capacity of 8, so reads find 0 to 7
// addends pending. With 2^12 rows and 16 nonzeros per column, the running
// sum's columns cross the promotion threshold in the second half of a
// round, so the reads also demote dense columns. Rounds cycle through
// kRounds distinct addend sets: where in a round the promotion happens
// depends on the data, so one set would pin the read-latency tail to a
// single seed-specific read. Every partial_sum() and finalize() result is
// compared with one-shot spkadd over the same prefix (by digest of its
// bytes; the references would not fit in memory whole).
#include <iostream>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kRows = 1 << 12;
constexpr std::int64_t kCols = 1 << 7;
constexpr std::int64_t kAvgNnzPerCol = 16;
constexpr int kRoundAddends = 256;
constexpr std::size_t kReadEvery = 13;
constexpr std::size_t kRounds = 8;
constexpr int kSetupReps = 3;

using Acc = spkadd::core::Accumulator<std::int32_t, double>;

/// One round's addends and the digests of its one-shot prefix sums: one
/// per partial_sum() read, then the whole round.
struct Round {
  std::vector<Csc> addends;
  std::vector<std::uint64_t> prefix_digests;
  std::size_t nnz = 0;
  std::size_t bytes = 0;
};

std::vector<Csc> generate(std::uint64_t seed) {
  spkadd::gen::WorkloadSpec spec;
  spec.pattern = spkadd::gen::Pattern::ER;
  spec.rows = kRows;
  spec.cols = kCols;
  spec.avg_nnz_per_col = kAvgNnzPerCol;
  spec.k = kRoundAddends;
  spec.seed = seed;
  auto addends = spkadd::gen::make_workload(spec);
  for (auto& m : addends) quantize(m);
  return addends;
}

struct Samples {
  std::vector<double> round_gnnz_per_s;
  std::vector<double> round_adds_per_s;
  std::vector<double> read_s;  ///< partial_sum() latency
  /// Time to add the kReadEvery addends between two reads (one step's
  /// submit): a single add either stages its addend (well under a
  /// microsecond) or folds the batch (milliseconds), so per-add times
  /// have no useful percentile between the two.
  std::vector<double> step_s;
};

/// Stream rounds for `seconds`, cycling through `rounds`. Time spent
/// comparing results is excluded from the round times.
Samples measure(Acc& acc, const std::vector<Round>& rounds, double seconds,
                Result& r) {
  Samples s;
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  for (std::size_t n = 0; Clock::now() < t_end; ++n) {
    const Round& round = rounds[n % rounds.size()];
    const std::vector<Csc>& addends = round.addends;
    const std::uint64_t op = spans::new_op();  // one round, one request
    double round_s = 0, step_s = 0;
    for (std::size_t i = 0; i < addends.size(); ++i) {
      auto t0 = Clock::now();
      {
        spans::Scope span("core.acc.add", op);
        acc.add(addends[i]);
      }
      const double add = seconds_since(t0);
      round_s += add;
      step_s += add;
      if ((i + 1) % kReadEvery != 0 || i + 1 == addends.size()) continue;
      s.step_s.push_back(step_s);
      step_s = 0;
      t0 = Clock::now();
      const Csc* sum = nullptr;
      {
        spans::Scope span("core.acc.partial_sum", op);
        sum = &acc.partial_sum();
      }
      const double read = seconds_since(t0);
      s.read_s.push_back(read);
      round_s += read;
      spans::Scope span("bench.verify", op);
      r.check(digest(*sum) == round.prefix_digests[i / kReadEvery],
              "partial_sum vs one-shot prefix");
    }
    const auto t0 = Clock::now();
    Csc total;
    {
      spans::Scope span("core.acc.finalize", op);
      total = acc.finalize();
    }
    round_s += seconds_since(t0);
    {
      spans::Scope span("bench.verify", op);
      r.check(digest(total) == round.prefix_digests.back(),
              "finalize vs one-shot");
    }
    s.round_gnnz_per_s.push_back(static_cast<double>(round.nnz) / round_s /
                                 1e9);
    s.round_adds_per_s.push_back(static_cast<double>(addends.size()) /
                                 round_s);
  }
  return s;
}

}  // namespace

Result run_stream(const RunParams& params) {
  Result r;
  std::vector<Round> rounds;
  const double setup_s = timed_setup(
      kSetupReps, [&] { rounds.clear(); },
      [&] {
        for (std::size_t d = 0; d < kRounds; ++d)
          rounds.push_back({generate(params.seed * 1000003 + d), {}, 0, 0});
      });
  std::size_t nnz = 0, bytes = 0;
  for (auto& round : rounds) {
    for (const auto& m : round.addends) {
      round.nnz += m.nnz();
      round.bytes += m.storage_bytes();
    }
    nnz += round.nnz;
    bytes += round.bytes;
  }
  std::cerr << "perfbench: stream-er " << rounds.size() << " rounds of "
            << kRoundAddends << " addends, " << nnz << " nnz, setup "
            << setup_s << " s\n";
  r.note_inputs(nnz, bytes);

  // References: one-shot spkadd over every read prefix, then the round.
  for (auto& round : rounds) {
    const std::span<const Csc> addends(round.addends);
    for (std::size_t end = kReadEvery; end < addends.size(); end += kReadEvery)
      round.prefix_digests.push_back(
          digest(spkadd::core::spkadd(addends.first(end))));
    round.prefix_digests.push_back(digest(spkadd::core::spkadd(addends)));
  }

  const std::vector<Csc>& first = rounds[0].addends;
  Acc acc(static_cast<std::int32_t>(first[0].rows()),
          static_cast<std::int32_t>(first[0].cols()));
  if (!params.trace) {
    const Samples s = measure(acc, rounds, params.seconds, r);
    r.note("rounds", std::to_string(s.round_gnnz_per_s.size()));
    r.note("reads", std::to_string(s.read_s.size()));
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mib(), "MiB");
    r.set("gnnz_per_s", median(s.round_gnnz_per_s), "Gnnz/s");
    r.set("updates_per_s", median(s.round_adds_per_s), "1/s");
    r.set("snapshot_p50_ms", 1e3 * median(s.read_s), "ms");
    r.set("snapshot_p90_ms", 1e3 * chunked_quantile(s.read_s, 0.90), "ms");
    r.set("submit_p50_ms", 1e3 * median(s.step_s), "ms");
    r.set("submit_p90_ms", 1e3 * chunked_quantile(s.step_s, 0.90), "ms");
    return r;
  }

  const double untraced =
      median(measure(acc, rounds, params.seconds / 2, r).round_gnnz_per_s);
  spans::enable(true);
  double traced = 0;
  {
    spans::Scope root("bench.stream-er");
    traced =
        median(measure(acc, rounds, params.seconds / 2, r).round_gnnz_per_s);
  }
  r.set("trace.unattributed_frac", spans::unattributed_frac(), "1");
  r.set("trace.overhead_frac", untraced / traced - 1.0, "1");

  report_gen(nnz, bytes, r);
  probe_core(first, r);
  probe_accumulator(first, kReadEvery, 1000, r);
  probe_daemon_layers(first, r);
  spans::enable(false);
  return r;
}

}  // namespace perfbench
