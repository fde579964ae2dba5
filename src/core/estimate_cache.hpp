/// \file estimate_cache.hpp
/// Content-addressed estimate cache (ROADMAP "scale-out" item, in-process
/// half): a sharded memo map from (RC content, timing context) to the model's
/// PathEstimates.
///
/// Keying is *content addressing*: the 128-bit key is a pure function of the
/// net's parasitics (RcNet::validate()'s content hash — topology plus every
/// element value by raw double bit pattern) and the full timing context
/// (features::content_hash — input slew, driver resistance/strength/function,
/// every SinkLoad). Nothing is keyed by name, so two identical nets share an
/// entry, and any edit — an ECO reroute, a resized driver, a one-ULP slew
/// change — lands on a new key. Invalidation is free: stale entries are
/// simply never addressed again and age out under eviction.
///
/// A hit returns the stored estimates bitwise-identical to recomputation
/// (they *are* the recomputation's bytes), re-tagged EstimateProvenance::
/// kCached. Only model-served results are cached; fallback and failed nets
/// always re-run the ladder.
///
/// Net tier: a second, net-keyed tier holds the context-free half of a model
/// pass (NetEmbedding: WireModel::embed's pooled representation, the raw
/// net-only path-feature columns, the path sink ids), keyed by the net
/// content hash alone. An ECO retime of unchanged parasitics under a new
/// slew or driver misses the full key but hits here, and the estimator then
/// runs only the heads. The split is exact (WireModel::forward *is*
/// predict(embed(sample), sample.h)), so such a result is bitwise identical
/// to a full model pass; it is a fresh heads pass rather than stored bytes,
/// and keeps provenance kModel. Embeddings are model-specific and the key
/// carries no model identity: a cache belongs to one estimator, as the full
/// tier already does by storing that estimator's outputs.
///
/// Concurrency: entries of both tiers hash-partition across cache-line-padded
/// shards, each with its own mutex, so concurrent lookups from a thread pool
/// contend only within a shard. Capacity is byte-bounded per shard and shared
/// by the two tiers; over budget the shard evicts by CLOCK second-chance (a
/// ref bit set on hit buys one sweep of grace) whichever tier the victim
/// belongs to. gnntrans_cache_* metrics and a flight-recorder event on
/// eviction pressure make the cache's behavior observable in production.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/estimator.hpp"

namespace gnntrans::core {

/// The net-only half of one model pass, stored by the net tier: everything
/// the heads need except the timing context.
struct NetEmbedding {
  std::size_t node_count = 0;        ///< the embedded net's node count
  std::vector<rcnet::NodeId> sinks;  ///< path q's sink, in path order
  /// [P x hidden], WireModel::embed's output.
  std::vector<float> pooled;
  /// [P x features::kNetPathColumnCount] raw (unstandardized) Elmore, D2M and
  /// impulse-spread path columns (features::net_path_columns).
  std::vector<float> path_columns;

  [[nodiscard]] std::size_t path_count() const noexcept { return sinks.size(); }

  /// Whether this embedding can serve \p net: the same node count and the
  /// same sinks in the same order (paths follow net.sinks), so every path
  /// row lines up with one of the net's sinks and one entry of a context's
  /// loads. The 64-bit net key alone does not guarantee it.
  [[nodiscard]] bool fits(const rcnet::RcNet& net) const noexcept {
    return node_count == net.node_count() && sinks == net.sinks;
  }
};

/// 128-bit content key: the finalized net-content and context hashes side by
/// side. Distinct inputs collide only if *both* 64-bit halves collide.
struct CacheKey {
  std::uint64_t net = 0;  ///< RcNet::validate() content hash
  std::uint64_t ctx = 0;  ///< features::content_hash(NetContext)

  [[nodiscard]] bool operator==(const CacheKey& other) const noexcept {
    return net == other.net && ctx == other.ctx;
  }
};

struct EstimateCacheConfig {
  /// Total byte budget across all shards (approximate resident size of the
  /// stored estimates plus per-entry bookkeeping).
  std::size_t capacity_bytes = 64ull << 20;  // 64 MiB
  /// Shard count; rounded up to a power of two, at least 1.
  std::size_t shards = 16;
};

/// Cumulative counters plus a point-in-time residency snapshot. hits, misses
/// and insertions count the full (net, context) tier only; net_hits and
/// net_misses count the net tier, which is consulted after a full-key miss.
/// Evictions, bytes and entries cover both tiers (they share one budget).
struct EstimateCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t net_hits = 0;
  std::uint64_t net_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserted_bytes = 0;  ///< cumulative bytes ever inserted
  std::uint64_t resident_bytes = 0;
  std::uint64_t entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class EstimateCache {
 public:
  explicit EstimateCache(EstimateCacheConfig config = {});
  ~EstimateCache();
  EstimateCache(const EstimateCache&) = delete;
  EstimateCache& operator=(const EstimateCache&) = delete;

  /// Combines the two finalized content hashes into a key.
  [[nodiscard]] static CacheKey make_key(std::uint64_t net_content_hash,
                                         std::uint64_t context_hash) noexcept {
    return CacheKey{net_content_hash, context_hash};
  }

  /// On hit, overwrites \p out with the stored estimates (provenance already
  /// kCached) and refreshes the entry's second-chance bit. \p out is
  /// untouched on miss.
  [[nodiscard]] bool lookup(const CacheKey& key,
                            std::vector<PathEstimate>* out);

  /// Stores a copy of \p paths re-tagged kCached, evicting CLOCK victims
  /// first if the shard is over its byte budget. An entry larger than one
  /// whole shard's budget is dropped rather than thrashing the shard empty.
  /// Racing inserts of the same key keep the first copy (identical bytes by
  /// construction — the key is the content).
  void insert(const CacheKey& key, const std::vector<PathEstimate>& paths);

  /// Net tier: the embedding stored for \p net_content_hash, or null on a
  /// miss. An entry that does not fit \p net (NetEmbedding::fits: another
  /// net whose content hash collides) is a miss. A hit refreshes the entry's
  /// second-chance bit; the embedding is immutable and stays valid after an
  /// eviction.
  [[nodiscard]] std::shared_ptr<const NetEmbedding> lookup_net(
      std::uint64_t net_content_hash, const rcnet::RcNet& net);

  /// Net tier: stores \p embedding under \p net_content_hash, with insert()'s
  /// eviction, oversize and first-copy-wins rules and the same byte budget.
  void insert_net(std::uint64_t net_content_hash, NetEmbedding embedding);

  /// Aggregated over all shards. Counters are exact; residency is a
  /// consistent-per-shard snapshot.
  [[nodiscard]] EstimateCacheStats stats() const;

  /// Drops every entry (counters are kept — they are cumulative).
  void clear();

  [[nodiscard]] const EstimateCacheConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_mask_ + 1;
  }
  /// Shard a key routes to (exposed so tests can hammer one shard).
  [[nodiscard]] std::size_t shard_index(const CacheKey& key) const noexcept;

 private:
  struct Shard;

  /// Counters, metrics and gauges after a store of \p bytes that evicted
  /// \p evicted entries (\p evicted_bytes in total).
  void account_insert(std::size_t bytes, std::size_t evicted,
                      std::size_t evicted_bytes);

  EstimateCacheConfig config_;
  std::size_t shard_mask_ = 0;    ///< shard_count - 1 (power of two)
  std::size_t shard_budget_ = 0;  ///< capacity_bytes / shard_count
  std::unique_ptr<Shard[]> shards_;

  // Cumulative counters (relaxed; exact because every op increments once).
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> net_hits_{0};
  std::atomic<std::uint64_t> net_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> inserted_bytes_{0};
};

}  // namespace gnntrans::core
