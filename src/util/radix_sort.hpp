// LSD radix sort for the (row, value) pair emission of the hash kernels.
//
// The hash SpKAdd emits each output column in table order and then sorts by
// row index (Alg. 5 line 15). Comparison sorting dominates the numeric phase
// for dense columns; an 8-bit LSD radix sort over the 32/64-bit row keys is
// 4-8x faster and skips passes whose byte is constant (typical for the high
// bytes of row indices). Keys must be non-negative (row indices are).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace spkadd::util {

/// Reusable scratch for radix_sort_pairs (per-thread, grown on demand).
template <class K, class V>
struct RadixScratch {
  std::vector<K> keys;
  std::vector<V> vals;
};

/// Sort the parallel arrays (keys[0..n), vals[0..n)) ascending by key.
/// Stable; keys must be non-negative. Falls back to std::sort below a small
/// threshold where radix setup does not pay.
template <class K, class V>
void radix_sort_pairs(K* keys, V* vals, std::size_t n,
                      RadixScratch<K, V>& scratch) {
  static_assert(std::is_integral_v<K>);
  if (n < 2) return;
  constexpr std::size_t kBytes = sizeof(K);
  constexpr std::size_t kSmall = 96;
  if (n < kSmall) {
    // Insertion sort: cheapest for tiny runs and keeps pairs in lockstep.
    for (std::size_t i = 1; i < n; ++i) {
      const K k = keys[i];
      const V v = vals[i];
      std::size_t j = i;
      while (j > 0 && keys[j - 1] > k) {
        keys[j] = keys[j - 1];
        vals[j] = vals[j - 1];
        --j;
      }
      keys[j] = k;
      vals[j] = v;
    }
    return;
  }

  if (scratch.keys.size() < n) {
    scratch.keys.resize(n);
    scratch.vals.resize(n);
  }

  // One pass computes every byte histogram.
  std::array<std::array<std::uint32_t, 256>, kBytes> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    auto u = static_cast<std::make_unsigned_t<K>>(keys[i]);
    for (std::size_t b = 0; b < kBytes; ++b)
      ++hist[b][(u >> (8 * b)) & 0xff];
  }

  K* src_k = keys;
  V* src_v = vals;
  K* dst_k = scratch.keys.data();
  V* dst_v = scratch.vals.data();
  for (std::size_t b = 0; b < kBytes; ++b) {
    // Skip passes where every key shares this byte.
    const auto first_byte =
        (static_cast<std::make_unsigned_t<K>>(src_k[0]) >> (8 * b)) & 0xff;
    if (hist[b][first_byte] == n) continue;
    std::array<std::uint32_t, 256> offset;
    std::uint32_t run = 0;
    for (int d = 0; d < 256; ++d) {
      offset[static_cast<std::size_t>(d)] = run;
      run += hist[b][static_cast<std::size_t>(d)];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto digit =
          (static_cast<std::make_unsigned_t<K>>(src_k[i]) >> (8 * b)) & 0xff;
      const std::uint32_t pos = offset[digit]++;
      dst_k[pos] = src_k[i];
      dst_v[pos] = src_v[i];
    }
    std::swap(src_k, dst_k);
    std::swap(src_v, dst_v);
  }
  if (src_k != keys) {
    std::memcpy(keys, src_k, n * sizeof(K));
    std::memcpy(vals, src_v, n * sizeof(V));
  }
}

/// Below this many keys radix_sort_keys falls back to std::sort and
/// touches no scratch.
inline constexpr std::size_t kRadixKeysMin = 128;

/// Key-only variant (the SPA kernel sorts its touched-row list and reads
/// values from the dense accumulator afterwards) over caller-provided
/// scratch of n keys, disjoint from `keys`; it never allocates.
template <class K>
void radix_sort_keys(K* keys, std::size_t n, K* scratch) {
  static_assert(std::is_integral_v<K>);
  if (n < 2) return;
  if (n < kRadixKeysMin) {
    std::sort(keys, keys + n);
    return;
  }
  constexpr std::size_t kBytes = sizeof(K);
  std::array<std::array<std::uint32_t, 256>, kBytes> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    auto u = static_cast<std::make_unsigned_t<K>>(keys[i]);
    for (std::size_t b = 0; b < kBytes; ++b)
      ++hist[b][(u >> (8 * b)) & 0xff];
  }
  K* src = keys;
  K* dst = scratch;
  for (std::size_t b = 0; b < kBytes; ++b) {
    const auto first_byte =
        (static_cast<std::make_unsigned_t<K>>(src[0]) >> (8 * b)) & 0xff;
    if (hist[b][first_byte] == n) continue;
    std::array<std::uint32_t, 256> offset;
    std::uint32_t run = 0;
    for (int d = 0; d < 256; ++d) {
      offset[static_cast<std::size_t>(d)] = run;
      run += hist[b][static_cast<std::size_t>(d)];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto digit =
          (static_cast<std::make_unsigned_t<K>>(src[i]) >> (8 * b)) & 0xff;
      dst[offset[digit]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys) std::memcpy(keys, src, n * sizeof(K));
}

/// radix_sort_keys with reusable scratch, grown on demand.
template <class K>
void radix_sort_keys(K* keys, std::size_t n, std::vector<K>& scratch) {
  if (n >= kRadixKeysMin && scratch.size() < n) scratch.resize(n);
  radix_sort_keys(keys, n, scratch.data());
}

}  // namespace spkadd::util
