#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <sstream>

#include "util/cache_info.hpp"
#include "util/json.hpp"

namespace perfbench {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics)
    if (n == name) {
      m = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Result::note(const std::string& key, const std::string& json_value) {
  provenance.push_back({key, json_value});
}

void Result::note_text(const std::string& key, const std::string& text) {
  std::string quoted(1, '"');
  quoted.append(spkadd::util::json_escape(text)).push_back('"');
  provenance.push_back({key, quoted});
}

void Result::note_inputs(std::size_t nnz, std::size_t bytes) {
  const std::size_t llc = spkadd::util::detect_machine().llc.bytes;
  note("input_nnz", std::to_string(nnz));
  note("input_bytes", std::to_string(bytes));
  note("input_over_llc", std::to_string(static_cast<double>(bytes) /
                                        static_cast<double>(llc)));
}

void Result::check(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 10) std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double chunked_quantile(const std::vector<double>& samples, double q) {
  constexpr std::size_t kMinChunk = 1000;
  const std::size_t chunks =
      std::max<std::size_t>(1, samples.size() / kMinChunk);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto lo = samples.begin() + static_cast<std::ptrdiff_t>(
                                          samples.size() * c / chunks);
    const auto hi = samples.begin() + static_cast<std::ptrdiff_t>(
                                          samples.size() * (c + 1) / chunks);
    per_chunk.push_back(quantile(std::vector<double>(lo, hi), q));
  }
  return median(per_chunk);
}

double timed_setup(int reps, const std::function<void()>& reset,
                   const std::function<void()>& make) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    reset();
    const auto t0 = Clock::now();
    make();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

void quantize(Csc& m) {
  for (auto& v : m.mutable_values()) v = std::round(v * 8.0);
}

namespace {

template <class T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

template <class T>
void mix(std::uint64_t& h, std::span<const T> s) {
  // FNV-style multiply-xor over 8-byte words (tail bytes folded last).
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  std::size_t n = s.size_bytes();
  while (n >= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  while (n-- > 0) h = (h ^ *p++) * 0x100000001b3ULL;
  h = (h ^ s.size()) * 0x100000001b3ULL;
}

}  // namespace

bool same_bytes(const Csc& a, const Csc& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_span(a.col_ptr(), b.col_ptr()) &&
         same_span(a.row_idx(), b.row_idx()) &&
         same_span(a.values(), b.values());
}

std::uint64_t digest(const Csc& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^
                    (static_cast<std::uint64_t>(m.rows()) << 32) ^
                    static_cast<std::uint64_t>(m.cols());
  mix(h, m.col_ptr());
  mix(h, m.row_idx());
  mix(h, m.values());
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

namespace {

/// Sample lines of `family` (exact name followed by '{' or ' ').
std::vector<std::string> prom_lines(const std::string& text,
                                    const std::string& name) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, name.size(), name) != 0) continue;
    if (line.size() > name.size() &&
        (line[name.size()] == '{' || line[name.size()] == ' '))
      out.push_back(line);
  }
  return out;
}

double line_value(const std::string& line) {
  const auto sp = line.rfind(' ');
  return std::strtod(line.c_str() + sp + 1, nullptr);
}

}  // namespace

double prom_value(const std::string& text, const std::string& name) {
  const auto lines = prom_lines(text, name);
  return lines.empty() ? -1 : line_value(lines.front());
}

double prom_histogram_quantile(const std::string& text,
                               const std::string& family,
                               const std::string& label, double q) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  for (const auto& line : prom_lines(text, family + "_bucket")) {
    if (!label.empty() && line.find(label) == std::string::npos) continue;
    const auto le = line.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string bound =
        line.substr(le + 4, line.find('"', le + 4) - (le + 4));
    const double ub = bound == "+Inf" ? INFINITY : std::strtod(
                                                       bound.c_str(), nullptr);
    buckets.push_back({ub, line_value(line)});
  }
  if (buckets.empty() || buckets.back().second <= 0) return -1;
  std::sort(buckets.begin(), buckets.end());
  const double want = q * buckets.back().second;
  for (const auto& [ub, cum] : buckets)
    if (cum >= want) return ub;
  return buckets.back().first;
}

}  // namespace perfbench
