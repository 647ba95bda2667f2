// Cached decoding coefficients — the paper's storage optimization.
//
// Section III-B: "the decoding matrix A could be partially stored specially
// for regular stragglers. As to decoding functions designed for unregular
// stragglers, the decoding vectors could be solved in realtime." In steady
// state the same few workers straggle (consistent heterogeneity, a flaky
// VM), so the master keeps an LRU map from the received-set bitmask to the
// solved coefficients and only falls back to the O(s³)/least-squares solve
// on a miss.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "core/coding_scheme.hpp"

namespace hgc {

/// LRU cache wrapper around CodingScheme::decoding_coefficients.
class DecodingCache {
 public:
  /// `capacity` bounds the number of distinct receive patterns kept; the
  /// paper's "regular stragglers" working set is tiny (≤ C(m, s) patterns,
  /// usually a handful).
  explicit DecodingCache(const CodingScheme& scheme,
                         std::size_t capacity = 256);

  /// Cached or freshly-solved coefficients. Nullopt results (undecodable
  /// sets) are cached too; a DecodeSession asks only once its gate admits
  /// the received set, so those are rare (faulted or zero-load workers
  /// counted toward a bound, or a numerically degenerate sub-code).
  std::optional<Vector> decode(const std::vector<bool>& received);

  /// The scheme this cache solves for; callers wiring the cache into a
  /// decoder must pair it with the same scheme instance.
  const CodingScheme& scheme() const { return scheme_; }

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  void clear();

 private:
  /// Pack received flags into 64-bit words for hashing/equality.
  static std::vector<std::uint64_t> pack(const std::vector<bool>& received);

  struct KeyHash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const;
  };

  struct Entry {
    std::vector<std::uint64_t> key;
    std::optional<Vector> coefficients;
  };

  const CodingScheme& scheme_;
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<std::vector<std::uint64_t>, std::list<Entry>::iterator,
                     KeyHash>
      index_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace hgc
