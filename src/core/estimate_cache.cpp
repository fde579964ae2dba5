#include "core/estimate_cache.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/hash.hpp"
#include "core/telemetry/telemetry.hpp"

namespace gnntrans::core {

namespace {

/// Process-global cache metrics (shared by every cache instance — the
/// dashboards see aggregate hit/miss/eviction traffic). Counters follow the
/// ServingMetrics registration pattern; residency gauges are last-write-wins
/// across instances.
struct CacheMetrics {
  telemetry::Counter hits = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_hits_total",
      "Estimate-cache lookups served from a stored entry");
  telemetry::Counter misses = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_misses_total",
      "Estimate-cache lookups that fell through to the model path");
  telemetry::Counter evictions = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_evictions_total",
      "Entries evicted by CLOCK second-chance under byte pressure");
  telemetry::Counter bytes = telemetry::MetricsRegistry::global().counter(
      "gnntrans_cache_bytes_total",
      "Cumulative bytes inserted into the estimate cache");
  telemetry::Gauge resident_bytes = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_cache_resident_bytes",
      "Bytes currently resident in the estimate cache");
  telemetry::Gauge entries = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_cache_entries", "Entries currently resident");

  static const CacheMetrics& get() {
    static const CacheMetrics metrics;
    return metrics;
  }
};

/// Mixes the two (already individually finalized) key halves into
/// shard/bucket indices so shard routing is uncorrelated with either half
/// alone.
std::uint64_t key_hash(const CacheKey& key) noexcept {
  return splitmix64_finalize(key.net ^ (key.ctx << 32 | key.ctx >> 32));
}

struct KeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept {
    return static_cast<std::size_t>(key_hash(key));
  }
};

/// Approximate resident footprint of one entry: the stored estimates plus
/// map-node/slot bookkeeping. Only has to be consistent, not exact — the
/// byte budget is a pressure valve, not an allocator.
constexpr std::size_t kEntryOverheadBytes = 96;

std::size_t entry_bytes(std::size_t path_count) noexcept {
  return kEntryOverheadBytes + path_count * sizeof(PathEstimate);
}

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

/// One shard: padded to a cache line so neighboring shards' mutexes never
/// false-share. Slots live in a flat vector the CLOCK hand sweeps; the index
/// maps keys to slot positions, and vacated slots recycle through a free
/// list so the hand's orbit stays dense.
struct alignas(64) EstimateCache::Shard {
  struct Slot {
    CacheKey key;
    std::vector<PathEstimate> paths;
    std::size_t bytes = 0;
    std::uint8_t ref = 0;  ///< CLOCK second-chance bit, set on hit
    bool occupied = false;
  };

  std::mutex mutex;
  std::unordered_map<CacheKey, std::size_t, KeyHash> index;
  std::vector<Slot> slots;
  std::vector<std::size_t> free_slots;
  std::size_t clock_hand = 0;
  std::size_t resident_bytes = 0;
};

EstimateCache::EstimateCache(EstimateCacheConfig config) : config_(config) {
  const std::size_t shards =
      round_up_pow2(std::max<std::size_t>(1, config_.shards));
  shard_mask_ = shards - 1;
  shard_budget_ = std::max<std::size_t>(1, config_.capacity_bytes / shards);
  shards_ = std::make_unique<Shard[]>(shards);
}

EstimateCache::~EstimateCache() = default;

std::size_t EstimateCache::shard_index(const CacheKey& key) const noexcept {
  return static_cast<std::size_t>(key_hash(key)) & shard_mask_;
}

bool EstimateCache::lookup(const CacheKey& key,
                           std::vector<PathEstimate>* out) {
  Shard& shard = shards_[shard_index(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Shard::Slot& slot = shard.slots[it->second];
      slot.ref = 1;
      // Copy under the lock: the stored bytes are the hit's return value, so
      // an eviction racing this lookup must not tear them.
      *out = slot.paths;
      hits_.fetch_add(1, std::memory_order_relaxed);
      CacheMetrics::get().hits.inc();
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::get().misses.inc();
  return false;
}

void EstimateCache::insert(const CacheKey& key,
                           const std::vector<PathEstimate>& paths) {
  const std::size_t bytes = entry_bytes(paths.size());
  // An entry bigger than a whole shard's budget would evict the shard empty
  // and still not fit; drop it instead of thrashing.
  if (bytes > shard_budget_) return;

  // Build the stored copy outside the lock, re-tagged kCached so a hit
  // returns it verbatim (values stay the model path's exact bytes).
  std::vector<PathEstimate> stored = paths;
  for (PathEstimate& pe : stored) pe.provenance = EstimateProvenance::kCached;

  std::size_t evicted = 0;
  std::size_t evicted_bytes = 0;
  Shard& shard = shards_[shard_index(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.index.contains(key)) {
      // Two workers computed the same content concurrently; the copies are
      // identical by construction, keep the first.
      shard.slots[shard.index.at(key)].ref = 1;
      return;
    }
    // CLOCK second-chance to budget: a set ref bit buys one sweep of grace,
    // so recently hit entries survive a pressure burst.
    while (shard.resident_bytes + bytes > shard_budget_ &&
           !shard.index.empty()) {
      const std::size_t hand = shard.clock_hand;
      shard.clock_hand = (shard.clock_hand + 1) % shard.slots.size();
      Shard::Slot& victim = shard.slots[hand];
      if (!victim.occupied) continue;
      if (victim.ref != 0) {
        victim.ref = 0;
        continue;
      }
      shard.index.erase(victim.key);
      shard.resident_bytes -= victim.bytes;
      evicted_bytes += victim.bytes;
      ++evicted;
      victim = Shard::Slot{};
      shard.free_slots.push_back(hand);
    }

    std::size_t idx;
    if (!shard.free_slots.empty()) {
      idx = shard.free_slots.back();
      shard.free_slots.pop_back();
    } else {
      idx = shard.slots.size();
      shard.slots.emplace_back();
    }
    Shard::Slot& slot = shard.slots[idx];
    slot.key = key;
    slot.paths = std::move(stored);
    slot.bytes = bytes;
    slot.ref = 0;
    slot.occupied = true;
    shard.index.emplace(key, idx);
    shard.resident_bytes += bytes;
  }

  insertions_.fetch_add(1, std::memory_order_relaxed);
  inserted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  const CacheMetrics& metrics = CacheMetrics::get();
  metrics.bytes.inc(bytes);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    metrics.evictions.inc(evicted);
    // Eviction pressure is the signal that the cache is undersized for the
    // working set; leave a flight-recorder breadcrumb for post-mortems.
    telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
    if (flight.enabled()) {
      telemetry::FlightRecord fr;
      fr.set_net("estimate_cache");
      fr.set_outcome("eviction_pressure");
      fr.total_us = static_cast<float>(evicted);  // victims this insert
      fr.arena_peak_bytes = static_cast<std::uint32_t>(
          std::min<std::size_t>(evicted_bytes, UINT32_MAX));
      flight.record(fr);
    }
  }

  // Residency gauges: cheap per-shard reads, last-write-wins across
  // concurrent inserts (a gauge, not a ledger).
  const EstimateCacheStats snap = stats();
  metrics.resident_bytes.set(static_cast<double>(snap.resident_bytes));
  metrics.entries.set(static_cast<double>(snap.entries));
}

EstimateCacheStats EstimateCache::stats() const {
  EstimateCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.inserted_bytes = inserted_bytes_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.resident_bytes += shard.resident_bytes;
    out.entries += shard.index.size();
  }
  return out;
}

void EstimateCache::clear() {
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();
    shard.slots.clear();
    shard.free_slots.clear();
    shard.clock_hand = 0;
    shard.resident_bytes = 0;
  }
  const CacheMetrics& metrics = CacheMetrics::get();
  metrics.resident_bytes.set(0.0);
  metrics.entries.set(0.0);
}

}  // namespace gnntrans::core
