/// @file row_cache.h
/// @brief Bounded, sharded LRU cache for on-demand similarity rows.
///
/// The on-demand serving path computes single-source rows through an
/// OnDemandScorer at lookup time; a cold row costs a truncated
/// power-series walk over the whole graph. This cache bounds that cost
/// for repeated queries: rows are keyed by node id and evicted LRU per
/// shard. Sharding (node % num_shards) keeps concurrent TopKBatch
/// lookups from serializing on one lock; each shard owns its own
/// `srpp::Mutex` with SRPP_GUARDED_BY-annotated state.
///
/// Lookups copy the row out under the shard lock, so callers never hold
/// a reference into the cache and eviction can never invalidate a row a
/// reader is still consuming.
#ifndef SIMRANKPP_REWRITE_ROW_CACHE_H_
#define SIMRANKPP_REWRITE_ROW_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/similarity_matrix.h"
#include "util/thread_annotations.h"

namespace simrankpp {

/// \brief Thread-safe LRU cache of ranked similarity rows.
class RowCache {
 public:
  /// \brief Aggregated counters across all shards (point-in-time).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Rows currently resident.
    size_t entries = 0;
  };

  /// \param capacity total rows kept across all shards; the per-shard
  ///        budget is capacity / num_shards, floored at one row.
  /// \param num_shards lock-striping width; clamped to at least one.
  explicit RowCache(size_t capacity, size_t num_shards = 8);

  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;

  /// \brief Copies the cached row for `node` into `*row` and marks it
  /// most recently used. Returns false (and counts a miss) when absent.
  bool Lookup(uint32_t node, std::vector<ScoredNode>* row);

  /// \brief Inserts (or refreshes) the row for `node`, evicting the
  /// least recently used rows of its shard as needed.
  void Insert(uint32_t node, std::vector<ScoredNode> row);

  /// \brief True when `node` is resident. Does not touch LRU order or
  /// the hit/miss counters — admission-control peeks must not distort
  /// the serving statistics.
  bool Contains(uint32_t node) const;

  Stats GetStats() const;

 private:
  struct Entry {
    uint32_t node = 0;
    std::vector<ScoredNode> row;
  };

  struct Shard {
    mutable Mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru SRPP_GUARDED_BY(mu);
    std::unordered_map<uint32_t, std::list<Entry>::iterator> index
        SRPP_GUARDED_BY(mu);
    uint64_t hits SRPP_GUARDED_BY(mu) = 0;
    uint64_t misses SRPP_GUARDED_BY(mu) = 0;
    uint64_t evictions SRPP_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint32_t node) { return shards_[node % shards_.size()]; }
  const Shard& ShardFor(uint32_t node) const {
    return shards_[node % shards_.size()];
  }

  size_t per_shard_capacity_;
  /// Fixed at construction; the vector itself is never resized, so
  /// concurrent ShardFor reads need no lock.
  std::vector<Shard> shards_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_REWRITE_ROW_CACHE_H_
