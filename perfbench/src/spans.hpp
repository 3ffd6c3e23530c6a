// The benchmark's own span recorder. A span wraps one call from the
// benchmark into a layer of the library (core::spkadd, Accumulator::add,
// Client::submit_async, ...): name, start, end, parent span and op id.
// Spans stay in memory and are written out as JSON at the end of a
// traced run; per-layer numbers come from their self times. Recording is
// off unless the run was started with --trace 1, and then costs one
// mutex acquisition at each span's start and end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans {

struct Record {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;  ///< index into the recorded spans, -1 for a root
  std::uint64_t op;     ///< spans of one operation share this id
};

void enable(bool on);
[[nodiscard]] bool enabled();
/// A fresh operation id for the spans of one request (0 while disabled).
[[nodiscard]] std::uint64_t new_op();

/// RAII span: records [construction, destruction) as a child of the
/// innermost open span on this thread. A span opened on a thread with no
/// open span is a root.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t op = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Every span recorded so far (a copy).
[[nodiscard]] std::vector<Record> recorded();

/// Durations in seconds of every span named `name`.
[[nodiscard]] std::vector<double> durations(const std::string& name);
/// 1 - (time covered by child spans / root span time), over all roots:
/// the share of the benchmark's wall time no span attributes to a layer.
[[nodiscard]] double unattributed_frac();
/// Write every span as a JSON array to `path` (directories created).
bool dump_json(const std::string& path);

}  // namespace perfbench::spans
