#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <utility>

#include "util/json.hpp"

namespace spkadd::obs {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kWireDecode:
      return "wire_decode";
    case Stage::kBurstEnqueue:
      return "burst_enqueue";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kShardFold:
      return "shard_fold";
    case Stage::kSnapshot:
      return "snapshot";
    default:
      return "other";
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

OpTrace Tracer::begin_op() {
  if (!enabled()) return {};
  OpTrace op;
  op.op_id = next_op_id_.fetch_add(1, std::memory_order_relaxed);
  op.begin_ns = now_ns();
  return op;
}

Tracer::Ring& Tracer::local_ring() {
  // A thread_local cache of weak_ptrs keyed by owner, so one thread
  // serving several Tracer instances (tests) keeps them apart, and a
  // destroyed Tracer's rings die with it instead of dangling in the
  // cache.
  static thread_local std::map<const Tracer*, std::weak_ptr<Ring>> cache;
  auto& slot = cache[this];
  if (auto ring = slot.lock()) return *ring;
  auto ring = std::make_shared<Ring>(config_.ring_capacity);
  slot = ring;
  std::lock_guard<std::mutex> lock(rings_mutex_);
  rings_.push_back(ring);
  return *rings_.back();
}

void Tracer::push_span(Span span) {
  Ring& ring = local_ring();
  std::lock_guard<std::mutex> lock(ring.mutex);
  ring.spans[ring.next] = std::move(span);
  ring.next = (ring.next + 1) % ring.spans.size();
  ++ring.written;
}

void Tracer::record(OpTrace& op, Stage stage, std::uint64_t start_ns,
                    std::string detail) {
  if (!op.active()) return;
  Span span;
  span.op_id = op.op_id;
  span.stage = stage;
  span.start_ns = start_ns;
  span.duration_ns = now_ns() - start_ns;
  span.detail = std::move(detail);
  op.spans.push_back(span);
  push_span(std::move(span));
}

void Tracer::record_span(Stage stage, std::uint64_t start_ns,
                         std::string detail) {
  if (!enabled()) return;
  Span span;
  span.stage = stage;
  span.start_ns = start_ns;
  span.duration_ns = now_ns() - start_ns;
  span.detail = std::move(detail);
  push_span(std::move(span));
}

void Tracer::finish_op(OpTrace& op) {
  if (!op.active()) return;
  const std::uint64_t total = now_ns() - op.begin_ns;
  if (total >= config_.slow_threshold_ns) {
    SlowOp slow;
    slow.op_id = op.op_id;
    slow.total_ns = total;
    slow.spans = std::move(op.spans);
    std::lock_guard<std::mutex> lock(slow_mutex_);
    slow_ops_.push_back(std::move(slow));
    while (slow_ops_.size() > config_.slow_log_capacity)
      slow_ops_.pop_front();
  }
  op = OpTrace{};
}

std::vector<Span> Tracer::recent() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    rings = rings_;
  }
  std::vector<Span> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    const std::size_t cap = ring->spans.size();
    const std::size_t n =
        ring->written < cap ? static_cast<std::size_t>(ring->written) : cap;
    // Oldest-first within the ring: start at `next` once wrapped.
    const std::size_t start = ring->written < cap ? 0 : ring->next;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(ring->spans[(start + i) % cap]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Span& a, const Span& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::vector<SlowOp> Tracer::slow_ops() const {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  return {slow_ops_.begin(), slow_ops_.end()};
}

void Tracer::clear() {
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mutex);
      ring->next = 0;
      ring->written = 0;
    }
  }
  std::lock_guard<std::mutex> lock(slow_mutex_);
  slow_ops_.clear();
}

namespace {

void span_json(std::ostringstream& out, const Span& s) {
  out << "{\"op\":" << s.op_id << ",\"stage\":\"" << stage_name(s.stage)
      << "\",\"start_ns\":" << s.start_ns
      << ",\"duration_ns\":" << s.duration_ns << ",\"detail\":\""
      << util::json_escape(s.detail) << "\"}";
}

}  // namespace

std::string Tracer::dump_json() const {
  std::ostringstream out;
  out << "{\"spans\":[";
  bool first = true;
  for (const Span& s : recent()) {
    if (!first) out << ',';
    first = false;
    span_json(out, s);
  }
  out << "],\"slow_ops\":[";
  first = true;
  for (const SlowOp& op : slow_ops()) {
    if (!first) out << ',';
    first = false;
    out << "{\"op\":" << op.op_id << ",\"total_ns\":" << op.total_ns
        << ",\"spans\":[";
    bool sfirst = true;
    for (const Span& s : op.spans) {
      if (!sfirst) out << ',';
      sfirst = false;
      span_json(out, s);
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace spkadd::obs
