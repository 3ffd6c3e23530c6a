// Shared pieces of the benchmark: run parameters, the result record,
// sample statistics, byte digests and the small parsers the traced run
// needs for the daemon's stats JSON and Prometheus text.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "matrix/csc.hpp"

namespace perfbench {

using Csc = spkadd::CscMatrix<std::int32_t, double>;
using Clock = std::chrono::steady_clock;

/// Command-line parameters of one run.
struct RunParams {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span JSON destination (traced runs)
};

/// What a workload reports: the result line's fields plus the provenance
/// entries it adds (input sizes).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& json_value);
  void note_text(const std::string& key, const std::string& text);
  /// Provenance of the generated inputs: nnz, bytes, and bytes over the
  /// detected LLC.
  void note_inputs(std::size_t nnz, std::size_t bytes);
  /// Count one checked operation; `ok` false counts it failed.
  void check(bool ok, const char* what);
};

double seconds_since(Clock::time_point t0);

/// Median and quantile (nearest rank on the sorted samples). Both take a
/// copy; an empty sample set yields 0.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// The tail quantile of a run, robust to stalled stretches: `samples`
/// (in the order they were taken) are cut into consecutive chunks of at
/// least 1000 samples, so that even a 99th percentile of each has at least
/// ten samples beyond it; the result is the median of the chunks'
/// q-quantiles. Fewer than 2000 samples form one chunk.
double chunked_quantile(const std::vector<double>& samples, double q);

/// Run `make` `reps` times and return the median wall seconds. `reset`
/// runs before each repetition, untimed, to release the previous one's
/// state so peak memory holds one copy.
double timed_setup(int reps, const std::function<void()>& reset,
                   const std::function<void()>& make);

/// Snap values to integers in [-8, 8] so that double addition is exact
/// and every fold order gives the same bytes.
void quantize(Csc& m);

/// Byte equality of two CSC matrices (shape, pointers, indices, values).
bool same_bytes(const Csc& a, const Csc& b);
/// 64-bit digest of the same bytes same_bytes compares.
std::uint64_t digest(const Csc& m);

/// Process peak resident set size, MiB.
double peak_rss_mib();

/// `"key":<number>` from a flat-or-nested JSON text (first occurrence).
double json_number(const std::string& json, const std::string& key);

/// Quantile of a Prometheus histogram family from its cumulative
/// `_bucket{...,le="x"}` lines, restricted to lines containing `label`
/// (e.g. `verb="submit"`). Returns the upper bound of the bucket that
/// holds the quantile, or -1 when the family is empty.
double prom_histogram_quantile(const std::string& text,
                               const std::string& family,
                               const std::string& label, double q);
/// Value of the first sample line `name{...}` or `name ` in `text`.
double prom_value(const std::string& text, const std::string& name);

}  // namespace perfbench
