// Dense-accumulation kernel bench: SPA vs Hash vs DenseAcc one-shot
// SpKAdd across a column-density axis (union fill from sparse to
// saturated). The dense kernel's structural win is sorted-by-construction
// emission (bitmap scan, no radix sort), so it should pull ahead of the
// SPA as columns saturate. Bit-identity to Hash is a hard gate on every
// cell.
//
// `--json` emits the SampleLog document scripts/bench_smoke.sh commits as
// BENCH_dense.json; `--enforce-win` turns the "DenseAcc beats SPA on the
// densest preset" verdict into the exit code (advisory otherwise: CI boxes
// are noisy).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "util/cli.hpp"

using namespace spkadd;
using Csc = CscMatrix<std::int32_t, double>;

namespace {

std::string gnnzps(std::size_t nnz, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(nnz) / seconds / 1e9);
  return buf;
}

std::string ratio_cell(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

std::vector<Csc> density_workload(std::int64_t rows, std::int64_t cols,
                                  double density, int k,
                                  std::uint64_t seed) {
  gen::WorkloadSpec spec;
  spec.pattern = gen::Pattern::ER;
  spec.rows = rows;
  spec.cols = cols;
  const auto d = static_cast<std::int64_t>(density * static_cast<double>(rows));
  spec.avg_nnz_per_col = d > 0 ? d : 1;
  spec.k = k;
  spec.seed = seed;
  return gen::make_workload(spec);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_dense", "dense-accumulation kernel sweep");
  const auto* rows = cli.add_int("rows", 1 << 12, "rows per matrix (m)");
  const auto* cols = cli.add_int("cols", 32, "cols per matrix (n)");
  const auto* k = cli.add_int("k", 16, "addends per workload (power of two)");
  const auto* repeats = cli.add_int("repeats", 3, "timing repetitions");
  const auto* threads = cli.add_int("threads", 0, "OpenMP threads (0=omp)");
  const auto* enforce = cli.add_flag(
      "enforce-win",
      "fail (exit 1) unless DenseAcc beats the SPA on the densest preset");
  const auto* json = cli.add_string("json", "", "write JSON samples here");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_header(
      "Dense accumulation (ColumnKernel::DenseAcc) density sweep",
      "the bitmap accumulator emits sorted columns without a radix sort, so "
      "it should overtake the SPA as column fill saturates");
  bench::SampleLog log("bench_dense");

  const std::string shape =
      "rows=" + std::to_string(*rows) + " cols=" + std::to_string(*cols) +
      " k=" + std::to_string(*k);

  core::Options base;
  base.threads = static_cast<int>(*threads);

  const std::vector<double> densities = {0.05, 0.25, 0.5, 1.0};
  const std::vector<core::Method> methods = {
      core::Method::Spa, core::Method::Hash, core::Method::DenseAcc};

  bool all_exact = true;
  bool dense_wins_densest = false;
  util::TablePrinter table(
      {"density", "method", "Gnnz/s", "vs spa"});

  for (const double density : densities) {
    const auto inputs = density_workload(*rows, *cols, density,
                                         static_cast<int>(*k), 6100);
    const std::size_t in_nnz = gen::total_input_nnz(inputs);
    core::Options hash_opts = base;
    hash_opts.method = core::Method::Hash;
    const Csc expected = core::spkadd(inputs, hash_opts);

    double t_spa = 0.0;
    for (const core::Method m : methods) {
      core::Options opts = base;
      opts.method = m;
      Csc out;
      const double t = bench::time_median(
          static_cast<int>(*repeats),
          [&] { out = core::spkadd(inputs, opts); });
      if (!(out == expected)) {
        std::cerr << "MISMATCH: " << core::method_name(m) << " at density "
                  << density << " is not bit-identical to Hash\n";
        all_exact = false;
      }
      if (m == core::Method::Spa) t_spa = t;
      const double vs_spa = t > 0.0 ? t_spa / t : 0.0;
      if (m == core::Method::DenseAcc && density == densities.back())
        dense_wins_densest = t < t_spa;
      char dens[16];
      std::snprintf(dens, sizeof(dens), "%.2f", density);
      table.add_row({dens, core::method_name(m), gnnzps(in_nnz, t),
                     m == core::Method::Spa ? "1.00x" : ratio_cell(vs_spa)});
      log.add("density=" + std::string(dens) + "/" + core::method_name(m),
              shape + " density=" + dens, t, in_nnz);
    }
  }
  table.print(std::cout);

  std::cout << "\nDenseAcc beats SPA on the densest preset: "
            << (dense_wins_densest ? "yes" : "NO") << "\n";
  if (!json->empty() && !log.write(*json)) return 1;
  if (!all_exact) return 1;
  return (*enforce && !dense_wins_densest) ? 1 : 0;
}
