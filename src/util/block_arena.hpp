// Chunked block arena: offset-addressed storage for many variable-sized
// blocks that come and go (the streaming Accumulator's per-column hash
// tables and dense slots).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <map>
#include <memory>
#include <vector>

namespace spkadd::util {

/// A typed arena of fixed-size chunks that hands out blocks by offset: a
/// freed block of the same length is reused first, else a new one is
/// carved at the top. Blocks never straddle a chunk, so growing the arena
/// never moves a block (no reallocation copy, no doubling overshoot), and
/// chunk memory is left uninitialized until a block is written — which is
/// why bytes() reports the carved prefix, not whole chunks.
template <class T>
class BlockArena {
 public:
  /// Make chunks hold blocks of up to `len` elements; only while empty.
  void fit(std::size_t len) {
    const std::size_t chunk = std::bit_ceil(std::max(len, kMinChunk));
    if (chunk <= chunk_) return;
    chunks_.clear();
    high_ = 0;
    chunk_ = chunk;
    shift_ = static_cast<unsigned>(std::countr_zero(chunk));
  }

  /// A block of `len` elements, backed once commit() returns.
  [[nodiscard]] std::size_t take(std::size_t len) {
    FreeList& f = freed_[len];
    if (!f.offs.empty()) {
      const std::size_t off = f.offs.back();
      f.offs.pop_back();
      return off;
    }
    // Room to give every block of this length back without allocating.
    f.offs.reserve(f.carved + 1);
    ++f.carved;
    if ((top_ & (chunk_ - 1)) + len > chunk_)
      top_ = (top_ | (chunk_ - 1)) + 1;
    top_ += len;
    return top_ - len;
  }
  /// Return a block from take(); never allocates, so never throws.
  void give(std::size_t off, std::size_t len) {
    freed_.find(len)->second.offs.push_back(off);
  }

  /// Back every block taken so far with memory.
  void commit() {
    while (chunks_.size() << shift_ < top_)
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(chunk_));
    high_ = std::max(high_, top_);
  }

  [[nodiscard]] T* at(std::size_t off) const {
    return chunks_[off >> shift_].get() + (off & (chunk_ - 1));
  }

  /// Forget every block, keeping the chunks.
  void clear() {
    top_ = 0;
    for (auto& [len, f] : freed_) {
      f.carved = 0;
      f.offs.clear();
    }
  }

  /// Bytes of every block ever carved (kept across clear()) plus the
  /// free lists: the part of the chunks that blocks have been handed out
  /// from.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t b = high_ * sizeof(T);
    for (const auto& f : freed_)
      b += f.second.offs.capacity() * sizeof(std::size_t);
    return b;
  }

 private:
  static constexpr std::size_t kMinChunk = std::size_t{1} << 12;
  std::size_t chunk_ = 0, top_ = 0;
  std::size_t high_ = 0;  ///< largest committed top_
  unsigned shift_ = 0;
  std::vector<std::unique_ptr<T[]>> chunks_;
  struct FreeList {
    std::size_t carved = 0;          ///< blocks of this length carved
    std::vector<std::size_t> offs;   ///< freed ones, capacity >= carved
  };
  std::map<std::size_t, FreeList> freed_;  ///< by block length
};

}  // namespace spkadd::util
