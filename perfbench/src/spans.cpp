#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>

namespace perfbench::spans {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_op{1};
std::mutex g_mutex;
std::vector<Record> g_spans;  // guarded by g_mutex
thread_local std::vector<std::int64_t> t_open;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per span: duration minus the summed durations of its direct children.
std::vector<double> self_times(const std::vector<Record>& all) {
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    self[i] = static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
  for (const auto& r : all)
    if (r.parent >= 0)
      self[static_cast<std::size_t>(r.parent)] -=
          static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  return self;
}

}  // namespace

void enable(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t new_op() { return enabled() ? g_next_op.fetch_add(1) : 0; }

Scope::Scope(const char* name, std::uint64_t op) {
  if (!enabled()) return;
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lock(g_mutex);
  index_ = static_cast<std::int64_t>(g_spans.size());
  g_spans.push_back(Record{name, now_ns(), 0, parent, op});
  t_open.push_back(index_);
}

Scope::~Scope() {
  if (index_ < 0) return;
  const std::uint64_t end = now_ns();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans[static_cast<std::size_t>(index_)].end_ns = end;
}

std::vector<Record> recorded() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

std::vector<double> durations(const std::string& name) {
  std::vector<double> out;
  for (const auto& r : recorded())
    if (name == r.name)
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
  return out;
}

double unattributed_frac() {
  const auto all = recorded();
  const auto self = self_times(all);
  double root_total = 0, root_self = 0;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].parent < 0) {
      root_total +=
          static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
      root_self += self[i];
    }
  return root_total > 0 ? root_self / root_total : 0;
}

bool dump_json(const std::string& path) {
  const auto all = recorded();
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& r = all[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << r.name
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":" << r.parent << ",\"op\":" << r.op << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench::spans
