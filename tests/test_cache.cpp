// Tests for the content-addressed estimate cache: key derivation (hash
// sensitivity to every element value, name exclusion), the sharded CLOCK
// store itself (roundtrip, second-chance, deterministic byte-bounded
// eviction, single-shard thread hammer), and its integration with the
// serving path (bitwise-identical hits across cache on/off and thread
// counts, edit invalidation, fallback-never-cached, misaligned-context
// rejection before the key is even formed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "core/fault_injector.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "netlist/incremental.hpp"
#include "netlist/sta.hpp"
#include "rcnet/generate.hpp"

namespace {

using namespace gnntrans;
using core::CacheKey;
using core::EstimateCache;
using core::EstimateCacheConfig;
using core::EstimateProvenance;
using core::PathEstimate;

// Deterministic synthetic estimates: the value pattern is a pure function of
// \p tag, so hammer threads can verify a hit's bytes without shared state.
std::vector<PathEstimate> make_paths(std::uint64_t tag, std::size_t count) {
  std::vector<PathEstimate> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].sink = static_cast<rcnet::NodeId>(tag * 7 + i);
    out[i].slew = 1e-10 + static_cast<double>(tag) * 1e-12 +
                  static_cast<double>(i) * 1e-13;
    out[i].delay = 5e-12 + static_cast<double>(tag) * 1e-13;
    out[i].provenance = EstimateProvenance::kModel;
  }
  return out;
}

void expect_same_values(const std::vector<PathEstimate>& got,
                        const std::vector<PathEstimate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sink, want[i].sink);
    EXPECT_EQ(got[i].slew, want[i].slew);    // bitwise (no tolerance)
    EXPECT_EQ(got[i].delay, want[i].delay);  // bitwise (no tolerance)
  }
}

// Deterministic synthetic net-tier payload, a pure function of \p tag
// (4 pooled columns per path).
core::NetEmbedding make_embedding(std::uint64_t tag, std::size_t paths) {
  core::NetEmbedding e;
  e.node_count = tag + paths + 1;
  for (std::size_t q = 0; q < paths; ++q)
    e.sinks.push_back(static_cast<rcnet::NodeId>(tag + q));
  for (std::size_t i = 0; i < paths * 4; ++i)
    e.pooled.push_back(static_cast<float>(tag) + 0.25f * static_cast<float>(i));
  for (std::size_t i = 0; i < paths * features::kNetPathColumnCount; ++i)
    e.path_columns.push_back(static_cast<float>(tag) * 0.5f + static_cast<float>(i));
  return e;
}

// A net with the node count and sinks make_embedding(tag, paths) fits: the
// shape lookup_net checks a stored embedding against.
rcnet::RcNet shaped_net(std::uint64_t tag, std::size_t paths) {
  const core::NetEmbedding e = make_embedding(tag, paths);
  rcnet::RcNet net;
  net.ground_cap.assign(e.node_count, 0.0);
  net.sinks = e.sinks;
  return net;
}

bool same_embedding(const core::NetEmbedding& a, const core::NetEmbedding& b) {
  return a.node_count == b.node_count && a.sinks == b.sinks &&
         a.pooled == b.pooled && a.path_columns == b.path_columns;
}

// Bytes one single-path entry charges against the shard budget, measured
// rather than hard-coded so the bookkeeping constant can evolve.
std::uint64_t one_path_entry_bytes() {
  EstimateCache probe(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 1});
  probe.insert(EstimateCache::make_key(1, 1), make_paths(1, 1));
  return probe.stats().inserted_bytes;
}

TEST(CacheUnit, MissInsertHitRoundtripTagsCached) {
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 4});
  const CacheKey key = EstimateCache::make_key(0xfeedULL, 0xbeefULL);
  const auto paths = make_paths(3, 4);

  std::vector<PathEstimate> out;
  EXPECT_FALSE(cache.lookup(key, &out));
  EXPECT_TRUE(out.empty());  // untouched on miss

  cache.insert(key, paths);
  ASSERT_TRUE(cache.lookup(key, &out));
  expect_same_values(out, paths);
  for (const PathEstimate& pe : out)
    EXPECT_EQ(pe.provenance, EstimateProvenance::kCached);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(CacheUnit, OversizedEntryIsDroppedNotThrashed) {
  // Budget is far smaller than the entry: the insert must be refused instead
  // of evicting the shard empty and still failing to fit.
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 256, .shards = 1});
  const CacheKey small = EstimateCache::make_key(1, 1);
  cache.insert(small, make_paths(1, 1));
  ASSERT_EQ(cache.stats().entries, 1u);

  cache.insert(EstimateCache::make_key(2, 2), make_paths(2, 4096));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // small entry undisturbed
  EXPECT_EQ(stats.insertions, 1u);
  std::vector<PathEstimate> out;
  EXPECT_TRUE(cache.lookup(small, &out));
}

TEST(CacheUnit, ClearDropsEntriesKeepsCumulativeCounters) {
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 2});
  const CacheKey key = EstimateCache::make_key(7, 9);
  cache.insert(key, make_paths(1, 2));
  std::vector<PathEstimate> out;
  ASSERT_TRUE(cache.lookup(key, &out));

  cache.clear();
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);        // cumulative counters survive clear()
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_FALSE(cache.lookup(key, &out));
}

TEST(CacheUnit, SecondChanceSparesRecentlyHitEntries) {
  const std::uint64_t entry = one_path_entry_bytes();
  // Room for exactly two entries in the single shard.
  EstimateCache cache(EstimateCacheConfig{
      .capacity_bytes = static_cast<std::size_t>(2 * entry), .shards = 1});
  const CacheKey a = EstimateCache::make_key(1, 1);
  const CacheKey b = EstimateCache::make_key(2, 2);
  const CacheKey c = EstimateCache::make_key(3, 3);
  cache.insert(a, make_paths(1, 1));
  cache.insert(b, make_paths(2, 1));

  // Touch A: its ref bit buys one sweep of grace, so the CLOCK hand passes
  // over it and evicts B even though A is older.
  std::vector<PathEstimate> out;
  ASSERT_TRUE(cache.lookup(a, &out));
  cache.insert(c, make_paths(3, 1));

  EXPECT_TRUE(cache.lookup(a, &out));
  EXPECT_FALSE(cache.lookup(b, &out));
  EXPECT_TRUE(cache.lookup(c, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheUnit, EvictionUnderPressureIsDeterministicAndByteBounded) {
  const std::uint64_t entry = one_path_entry_bytes();
  const EstimateCacheConfig cfg{
      .capacity_bytes = static_cast<std::size_t>(6 * entry), .shards = 1};
  constexpr std::uint64_t kInserts = 20;

  const auto run = [&](EstimateCache& cache) {
    for (std::uint64_t i = 0; i < kInserts; ++i)
      cache.insert(EstimateCache::make_key(i, i ^ 0x5aULL), make_paths(i, 1));
  };
  EstimateCache first(cfg), second(cfg);
  run(first);
  run(second);

  // Same insert sequence, same CLOCK decisions: identical stats and an
  // identical survivor set (with no lookups the sweep degenerates to FIFO,
  // so exactly the newest six entries remain).
  const auto s1 = first.stats();
  const auto s2 = second.stats();
  EXPECT_EQ(s1.entries, 6u);
  EXPECT_EQ(s1.evictions, kInserts - 6);
  EXPECT_EQ(s1.entries, s2.entries);
  EXPECT_EQ(s1.evictions, s2.evictions);
  EXPECT_EQ(s1.resident_bytes, s2.resident_bytes);
  EXPECT_LE(s1.resident_bytes, cfg.capacity_bytes);

  std::vector<PathEstimate> out;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    const CacheKey key = EstimateCache::make_key(i, i ^ 0x5aULL);
    const bool hit1 = first.lookup(key, &out);
    if (hit1) expect_same_values(out, make_paths(i, 1));
    EXPECT_EQ(hit1, i >= kInserts - 6) << "key " << i;
    EXPECT_EQ(second.lookup(key, &out), hit1) << "key " << i;
  }
}

TEST(CacheUnit, NetTierRoundtripKeepsFullKeyCountersApart) {
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 4});
  const rcnet::RcNet net = shaped_net(5, 3);
  EXPECT_EQ(cache.lookup_net(0xabcULL, net), nullptr);
  cache.insert_net(0xabcULL, make_embedding(5, 3));
  const auto hit = cache.lookup_net(0xabcULL, net);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(same_embedding(*hit, make_embedding(5, 3)));
  EXPECT_EQ(hit->path_count(), 3u);

  // A full key with the same net hash is a different entry of the other tier.
  std::vector<PathEstimate> out;
  EXPECT_FALSE(cache.lookup(EstimateCache::make_key(0xabcULL, 0), &out));

  // A racing second insert keeps the first copy.
  cache.insert_net(0xabcULL, make_embedding(6, 3));
  EXPECT_TRUE(
      same_embedding(*cache.lookup_net(0xabcULL, net), make_embedding(5, 3)));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.net_hits, 2u);
  EXPECT_EQ(stats.net_misses, 1u);
  EXPECT_EQ(stats.hits, 0u);        // full-key counters keep their meaning
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 0u);  // full-key insertions only
  EXPECT_EQ(stats.entries, 1u);     // residency covers both tiers
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.resident_bytes, stats.inserted_bytes);

  cache.clear();
  EXPECT_EQ(cache.lookup_net(0xabcULL, net), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CacheUnit, NetTierEntryThatDoesNotFitTheNetIsAMiss) {
  // The net key is one 64-bit hash, so another net can land on a stored
  // embedding. One whose node count or sink list differs must miss.
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 4});
  cache.insert_net(0xabcULL, make_embedding(5, 3));

  EXPECT_EQ(cache.lookup_net(0xabcULL, shaped_net(5, 2)), nullptr);  // fewer
  EXPECT_EQ(cache.lookup_net(0xabcULL, shaped_net(5, 4)), nullptr);  // more
  rcnet::RcNet bigger = shaped_net(5, 3);
  bigger.ground_cap.push_back(0.0);
  EXPECT_EQ(cache.lookup_net(0xabcULL, bigger), nullptr);
  rcnet::RcNet reordered = shaped_net(5, 3);
  std::swap(reordered.sinks[0], reordered.sinks[1]);
  EXPECT_EQ(cache.lookup_net(0xabcULL, reordered), nullptr);

  // The stored entry is untouched and still serves the net it fits.
  EXPECT_NE(cache.lookup_net(0xabcULL, shaped_net(5, 3)), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.net_misses, 4u);
  EXPECT_EQ(stats.net_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CacheUnit, NetTierSharesTheByteBudgetAndClock) {
  const std::uint64_t entry = one_path_entry_bytes();
  EstimateCache probe(EstimateCacheConfig{.capacity_bytes = 1 << 20,
                                          .shards = 1});
  probe.insert_net(1, make_embedding(1, 1));
  const std::uint64_t net_entry = probe.stats().inserted_bytes;
  // One shard with room for one entry of each tier, or for two embeddings.
  EstimateCache cache(EstimateCacheConfig{
      .capacity_bytes = static_cast<std::size_t>(net_entry + std::max(entry, net_entry)),
      .shards = 1});
  const std::uint64_t budget = cache.config().capacity_bytes;
  const CacheKey full = EstimateCache::make_key(1, 1);
  cache.insert(full, make_paths(1, 1));
  cache.insert_net(2, make_embedding(2, 1));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch the embedding: the hand spares it and evicts the full entry to fit
  // a second embedding. A held embedding stays valid whatever the hand
  // evicts afterwards.
  const auto held = cache.lookup_net(2, shaped_net(2, 1));
  ASSERT_NE(held, nullptr);
  cache.insert_net(3, make_embedding(3, 1));
  std::vector<PathEstimate> out;
  EXPECT_FALSE(cache.lookup(full, &out));
  EXPECT_NE(cache.lookup_net(2, shaped_net(2, 1)), nullptr);
  EXPECT_NE(cache.lookup_net(3, shaped_net(3, 1)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().resident_bytes, budget);

  cache.insert(EstimateCache::make_key(4, 4), make_paths(4, 1));
  cache.insert(EstimateCache::make_key(5, 5), make_paths(5, 1));
  EXPECT_TRUE(same_embedding(*held, make_embedding(2, 1)));
  EXPECT_LE(cache.stats().resident_bytes, budget);
}

TEST(CacheConcurrency, SingleShardHammerKeepsExactCounters) {
  // Force contention: pick keys that all route to shard 0 of a multi-shard
  // cache (shard_index is exposed exactly for this), then hammer them from
  // several threads. TSan (cache label in the tsan preset) proves the
  // per-shard mutex covers every slot/index/residency access.
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 4 << 20,
                                          .shards = 4});
  ASSERT_EQ(cache.shard_count(), 4u);
  std::vector<CacheKey> keys;
  for (std::uint64_t seed = 1; keys.size() < 16; ++seed) {
    const CacheKey key = EstimateCache::make_key(seed, seed * 2654435761ULL);
    if (cache.shard_index(key) == 0) keys.push_back(key);
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 2000;
  std::vector<std::thread> workers;
  std::atomic<std::size_t> value_mismatches{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      std::vector<PathEstimate> out;
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        const std::size_t k = rng() % keys.size();
        const auto want = make_paths(k, 1 + k % 3);
        if (cache.lookup(keys[k], &out)) {
          if (out.size() != want.size()) {
            ++value_mismatches;
            continue;
          }
          for (std::size_t i = 0; i < out.size(); ++i)
            if (out[i].slew != want[i].slew || out[i].delay != want[i].delay ||
                out[i].provenance != EstimateProvenance::kCached)
              ++value_mismatches;
        } else {
          cache.insert(keys[k], want);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(value_mismatches.load(), 0u);
  const auto stats = cache.stats();
  // Every op performed exactly one lookup; the counters must account for all
  // of them with no drops or double counts.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, keys.size());
  // Racing inserts of one key keep a single copy.
  std::vector<PathEstimate> out;
  for (std::size_t k = 0; k < keys.size(); ++k)
    if (cache.lookup(keys[k], &out))
      expect_same_values(out, make_paths(k, 1 + k % 3));
}

TEST(CacheConcurrency, MixedTierHammerKeepsExactCounters) {
  // Both tiers on one shard, under a budget small enough to evict: lookups
  // and inserts of either tier race the shared CLOCK hand and residency.
  EstimateCache cache(EstimateCacheConfig{.capacity_bytes = 4 * 2048,
                                          .shards = 4});
  std::vector<std::uint64_t> nets;
  for (std::uint64_t seed = 1; nets.size() < 12; ++seed)
    if (cache.shard_index(CacheKey{seed, 0}) == 0) nets.push_back(seed);
  std::vector<rcnet::RcNet> shapes;
  for (std::size_t k = 0; k < nets.size(); ++k)
    shapes.push_back(shaped_net(k, 1 + k % 3));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 1500;
  std::vector<std::thread> workers;
  std::atomic<std::size_t> mismatches{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(2000 + t);
      std::vector<PathEstimate> out;
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        const std::size_t k = rng() % nets.size();
        if (op % 2 == 0) {
          const auto hit = cache.lookup_net(nets[k], shapes[k]);
          if (!hit)
            cache.insert_net(nets[k], make_embedding(k, 1 + k % 3));
          else if (!same_embedding(*hit, make_embedding(k, 1 + k % 3)))
            ++mismatches;
        } else {
          const CacheKey key{nets[k], 0};
          if (!cache.lookup(key, &out))
            cache.insert(key, make_paths(k, 1 + k % 3));
          else if (out.size() != 1 + k % 3)
            ++mismatches;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.net_hits + stats.net_misses, kThreads * kOpsPerThread / 2);
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread / 2);
  EXPECT_LE(stats.resident_bytes, cache.config().capacity_bytes);
}

// --- key derivation -------------------------------------------------------

rcnet::RcNet tiny_net() {
  rcnet::RcNet net;
  net.name = "tiny";
  net.source = 0;
  net.sinks = {2, 3};
  net.ground_cap = {1e-15, 2e-15, 3e-15, 4e-15};
  net.resistors = {{0, 1, 100.0}, {1, 2, 150.0}, {1, 3, 200.0}};
  net.couplings = {{2, 5e-16, 42}};
  return net;
}

std::uint64_t net_hash(const rcnet::RcNet& net) {
  std::uint64_t hash = 0;
  EXPECT_TRUE(net.validate(&hash).empty());
  return hash;
}

TEST(ContentHash, NetHashIgnoresNameAndTracksEveryElement) {
  const rcnet::RcNet base = tiny_net();
  const std::uint64_t h0 = net_hash(base);

  rcnet::RcNet renamed = base;
  renamed.name = "an_entirely_different_name";
  EXPECT_EQ(net_hash(renamed), h0) << "name must be excluded (content address)";

  // A one-ULP resistance edit must change the key: hits are bitwise
  // identical, so the hash has to distinguish inputs at full precision.
  rcnet::RcNet r = base;
  r.resistors[1].ohms = std::nextafter(r.resistors[1].ohms, 1e9);
  EXPECT_NE(net_hash(r), h0);

  rcnet::RcNet c = base;
  c.ground_cap[2] = std::nextafter(c.ground_cap[2], 1.0);
  EXPECT_NE(net_hash(c), h0);

  rcnet::RcNet k = base;
  k.couplings[0].farads = std::nextafter(k.couplings[0].farads, 1.0);
  EXPECT_NE(net_hash(k), h0);

  rcnet::RcNet seed = base;
  seed.couplings[0].aggressor_seed = 43;
  EXPECT_NE(net_hash(seed), h0);

  // Topology: same element values, different wiring.
  rcnet::RcNet topo = base;
  topo.resistors[1] = {0, 2, 150.0};
  EXPECT_NE(net_hash(topo), h0);
}

TEST(ContentHash, ContextHashTracksEveryField) {
  features::NetContext base;
  base.input_slew = 4e-11;
  base.driver_resistance = 180.0;
  base.driver_strength = 2;
  base.driver_function = 1;
  base.loads = {{1, 0, 1e-15}, {2, 1, 2e-15}};
  const std::uint64_t h0 = features::content_hash(base);

  features::NetContext slew = base;
  slew.input_slew = std::nextafter(slew.input_slew, 1.0);
  EXPECT_NE(features::content_hash(slew), h0);

  features::NetContext res = base;
  res.driver_resistance = std::nextafter(res.driver_resistance, 1e9);
  EXPECT_NE(features::content_hash(res), h0);

  features::NetContext drv = base;
  drv.driver_strength = 3;
  EXPECT_NE(features::content_hash(drv), h0);

  features::NetContext fn = base;
  fn.driver_function = 2;
  EXPECT_NE(features::content_hash(fn), h0);

  features::NetContext cap = base;
  cap.loads[1].input_cap = std::nextafter(cap.loads[1].input_cap, 1.0);
  EXPECT_NE(features::content_hash(cap), h0);

  features::NetContext cell = base;
  cell.loads[0].drive_strength = 4;
  EXPECT_NE(features::content_hash(cell), h0);

  features::NetContext fewer = base;
  fewer.loads.pop_back();
  EXPECT_NE(features::content_hash(fewer), h0);
}

// --- serving integration --------------------------------------------------

class CacheServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = std::make_unique<cell::CellLibrary>(
        cell::CellLibrary::make_default());

    features::WireDatasetConfig dcfg;
    dcfg.net_count = 16;
    dcfg.seed = 2027;
    dcfg.sim_config.steps = 200;
    const auto records = features::generate_wire_records(dcfg, *library_);

    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 8;
    opt.model.gnn_layers = 2;
    opt.model.transformer_layers = 1;
    opt.model.heads = 2;
    opt.model.mlp_hidden = 16;
    opt.model.seed = 11;
    opt.train.epochs = 2;
    estimator_ = std::make_unique<core::WireTimingEstimator>(
        core::WireTimingEstimator::train(records, opt));

    std::mt19937_64 rng(123);
    rcnet::NetGenConfig ncfg;
    while (nets_.size() < 12) {
      rcnet::RcNet net =
          rcnet::generate_net(ncfg, rng, "cache" + std::to_string(nets_.size()));
      if (!net.validate().empty()) continue;
      nets_.push_back(std::move(net));
    }
    for (const rcnet::RcNet& net : nets_)
      contexts_.push_back(features::random_context(*library_, net, rng));
  }

  static void TearDownTestSuite() {
    estimator_.reset();
    library_.reset();
    nets_.clear();
    contexts_.clear();
  }

  static std::vector<core::NetBatchItem> items() {
    std::vector<core::NetBatchItem> out(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i)
      out[i] = {&nets_[i], &contexts_[i]};
    return out;
  }

  static void expect_identity(const core::InferenceStats& stats) {
    EXPECT_EQ(stats.model_nets + stats.fallback_nets + stats.failed_nets +
                  stats.cached_nets,
              stats.nets);
  }

  static std::unique_ptr<cell::CellLibrary> library_;
  static std::unique_ptr<core::WireTimingEstimator> estimator_;
  static std::vector<rcnet::RcNet> nets_;
  static std::vector<features::NetContext> contexts_;
};

std::unique_ptr<cell::CellLibrary> CacheServingTest::library_;
std::unique_ptr<core::WireTimingEstimator> CacheServingTest::estimator_;
std::vector<rcnet::RcNet> CacheServingTest::nets_;
std::vector<features::NetContext> CacheServingTest::contexts_;

TEST_F(CacheServingTest, HitsAreBitwiseIdenticalAcrossCacheAndThreadCounts) {
  const auto batch = items();
  // Reference: cache off, serial. The cache must never perturb these bytes.
  const auto reference = estimator_->estimate_batch(batch, {.threads = 1});

  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;

  // Cold pass: every net misses, runs the model, and is inserted.
  core::InferenceStats cold;
  const auto first = estimator_->estimate_batch(batch, opts, &cold);
  ASSERT_EQ(first.size(), reference.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_values(first[i], reference[i]);
    EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kModel);
  }
  expect_identity(cold);
  EXPECT_EQ(cold.cached_nets, 0u);
  EXPECT_EQ(cache.stats().misses, nets_.size());
  EXPECT_EQ(cache.stats().insertions, cold.model_nets);

  // Warm passes at several thread counts: all hits, values bitwise equal to
  // the uncached reference, provenance kCached on every path.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opts.threads = threads;
    core::InferenceStats warm;
    const auto hit = estimator_->estimate_batch(batch, opts, &warm);
    ASSERT_EQ(hit.size(), reference.size());
    for (std::size_t i = 0; i < hit.size(); ++i) {
      expect_same_values(hit[i], reference[i]);
      EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kCached);
      EXPECT_EQ(outcomes[i].error, core::ErrorCode::kOk);
      for (const PathEstimate& pe : hit[i])
        EXPECT_EQ(pe.provenance, EstimateProvenance::kCached);
    }
    expect_identity(warm);
    EXPECT_EQ(warm.cached_nets, nets_.size());
    EXPECT_EQ(warm.model_nets, 0u);
    // kCached is a success, not a degradation.
    EXPECT_DOUBLE_EQ(warm.degraded_fraction(), 0.0);
  }
  EXPECT_EQ(cache.stats().hits, 2 * nets_.size());
}

TEST_F(CacheServingTest, ElementEditInvalidatesOnlyTheEditedNet) {
  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;

  auto batch = items();
  (void)estimator_->estimate_batch(batch, opts);  // warm every entry

  // An ECO-style parasitic edit on one net: content addressing invalidates
  // it with no explicit invalidation call — the edited bytes hash to a new
  // key, the stale entry is simply never addressed again.
  rcnet::RcNet edited = nets_[5];
  edited.resistors[0].ohms =
      std::nextafter(edited.resistors[0].ohms, 1e9);
  batch[5].net = &edited;

  const auto before = cache.stats();
  core::InferenceStats stats;
  (void)estimator_->estimate_batch(batch, opts, &stats);
  const auto after = cache.stats();

  EXPECT_EQ(after.hits - before.hits, nets_.size() - 1);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(outcomes[5].provenance, EstimateProvenance::kModel);
  EXPECT_EQ(stats.cached_nets, nets_.size() - 1);
  EXPECT_EQ(stats.model_nets, 1u);
  expect_identity(stats);
}

TEST_F(CacheServingTest, FallbackResultsAreNeverCached) {
  // Every forward pass faults: the ladder degrades to the analytic baseline.
  // Degraded results must not be cached — a transient fault must re-run the
  // ladder next time, not be replayed forever from the cache.
  core::FaultInjector::Config fcfg;
  fcfg.probability = 1.0;
  fcfg.seed = 17;
  fcfg.site_mask = core::site_bit(core::FaultSite::kForward);
  core::FaultInjector::global().configure(fcfg);

  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;
  const auto batch = items();

  core::InferenceStats degraded;
  (void)estimator_->estimate_batch(batch, opts, &degraded);
  EXPECT_EQ(degraded.fallback_nets, nets_.size());
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  expect_identity(degraded);

  // Fault cleared: the same keys now miss (nothing stale was stored), run
  // the model, and populate the cache.
  core::FaultInjector::global().disarm();
  core::InferenceStats healthy;
  (void)estimator_->estimate_batch(batch, opts, &healthy);
  EXPECT_EQ(healthy.model_nets, nets_.size());
  EXPECT_EQ(cache.stats().insertions, nets_.size());
  expect_identity(healthy);
}

TEST_F(CacheServingTest, MisalignedLoadsRejectedBeforeKeyFormation) {
  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;

  // A context whose loads vector disagrees with the sink list is a caller
  // bug: typed kInvalidArgument, no fallback (the analytic pass would need
  // the same per-sink loads), and — the cache-specific hazard — no key is
  // ever formed, so the bogus pairing can neither hit nor poison an entry.
  features::NetContext short_ctx = contexts_[0];
  ASSERT_FALSE(short_ctx.loads.empty());
  short_ctx.loads.pop_back();
  const std::vector<core::NetBatchItem> bad = {{&nets_[0], &short_ctx}};

  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(bad, opts, &stats);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(outcomes[0].provenance, EstimateProvenance::kFailed);
  EXPECT_EQ(outcomes[0].error, core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(stats.failed_nets, 1u);
  EXPECT_EQ(stats.fallback_nets, 0u);
  expect_identity(stats);
  const auto cstats = cache.stats();
  EXPECT_EQ(cstats.hits + cstats.misses, 0u);  // no lookup: no key existed
  EXPECT_EQ(cstats.insertions, 0u);
}

TEST_F(CacheServingTest, WireSourceEcoEditRetimesOnlyChangedContent) {
  netlist::DesignGenConfig cfg;
  cfg.seed = 21;
  cfg.levels = 3;
  cfg.cells_per_level = 4;
  cfg.startpoints = 2;
  netlist::Design design =
      netlist::generate_design(cfg, *library_, "cache_sta");

  core::EstimatorWireSource plain(*estimator_, design, *library_, 1);
  const netlist::StaResult r_plain = netlist::run_sta(design, *library_, plain);

  core::EstimatorWireSource cached(*estimator_, design, *library_, 1);
  cached.enable_cache({});
  ASSERT_NE(cached.cache(), nullptr);
  const netlist::StaResult r_cold = netlist::run_sta(design, *library_, cached);
  const auto cold = cached.cache()->stats();
  EXPECT_EQ(cold.hits, 0u);
  const netlist::StaResult r_warm = netlist::run_sta(design, *library_, cached);
  const auto warm = cached.cache()->stats();
  EXPECT_EQ(warm.hits - cold.hits, design.nets.size());

  // Cached STA is bitwise identical to the uncached source, cold and warm.
  ASSERT_EQ(r_plain.arrival.size(), r_cold.arrival.size());
  for (std::size_t v = 0; v < r_plain.arrival.size(); ++v) {
    EXPECT_EQ(r_plain.arrival[v], r_cold.arrival[v]) << "instance " << v;
    EXPECT_EQ(r_plain.arrival[v], r_warm.arrival[v]) << "instance " << v;
    EXPECT_EQ(r_plain.slew[v], r_warm.slew[v]) << "instance " << v;
  }
  EXPECT_EQ(cached.stats().cached_nets, design.nets.size());

  // ECO edit: perturb one net's parasitics in place. The next full run hits
  // on everything except the edited net — content addressing is the
  // invalidation.
  ASSERT_FALSE(design.nets.empty());
  ASSERT_FALSE(design.nets[0].rc.resistors.empty());
  design.nets[0].rc.resistors[0].ohms =
      std::nextafter(design.nets[0].rc.resistors[0].ohms, 1e9);
  (void)netlist::run_sta(design, *library_, cached);
  const auto eco = cached.cache()->stats();
  EXPECT_EQ(eco.hits - warm.hits, design.nets.size() - 1);
  EXPECT_EQ(eco.misses - warm.misses, 1u);
}

// The net tier: the same nets under new contexts miss the full key, hit the
// stored embedding and run only the heads. The answers are bitwise equal to
// a cache-off model pass at any thread count, and stay model results.
TEST_F(CacheServingTest, NetTierHitsAreBitwiseEqualToCacheOffAcrossThreads) {
  std::mt19937_64 rng(321);
  std::vector<features::NetContext> retimed_contexts;
  for (const rcnet::RcNet& net : nets_)
    retimed_contexts.push_back(features::random_context(*library_, net, rng));
  std::vector<core::NetBatchItem> retimed(nets_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i)
    retimed[i] = {&nets_[i], &retimed_contexts[i]};
  const auto reference = estimator_->estimate_batch(retimed, {.threads = 1});

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EstimateCache cache;
    core::BatchOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    std::vector<core::NetOutcome> outcomes;
    opts.outcomes = &outcomes;
    (void)estimator_->estimate_batch(items(), opts);  // fills both tiers

    core::InferenceStats stats;
    const auto got = estimator_->estimate_batch(retimed, opts, &stats);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_values(got[i], reference[i]);
      EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kModel);
      EXPECT_TRUE(outcomes[i].embedding_hit);
      for (const PathEstimate& pe : got[i])
        EXPECT_EQ(pe.provenance, EstimateProvenance::kModel);
    }
    expect_identity(stats);
    EXPECT_EQ(stats.model_nets, nets_.size());
    EXPECT_EQ(stats.embedding_hits, nets_.size());
    EXPECT_EQ(stats.cached_nets, 0u);
    EXPECT_NE(stats.summary().find("embedding hits"), std::string::npos);

    const auto c = cache.stats();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 2 * nets_.size());
    EXPECT_EQ(c.net_misses, nets_.size());
    EXPECT_EQ(c.net_hits, nets_.size());
    EXPECT_EQ(c.insertions, 2 * nets_.size());  // both passes' full keys
    EXPECT_EQ(c.entries, 3 * nets_.size());     // plus one embedding per net
  }
  const std::string prom = telemetry::MetricsRegistry::global().prometheus_text();
  EXPECT_NE(prom.find("gnntrans_cache_net_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_net_misses_total"), std::string::npos);
}

// A net-tier entry stored under a net's content hash but built for another
// net (a hash collision, here planted directly) must not be used: the request
// takes the full model path and answers exactly as with the cache off.
TEST_F(CacheServingTest, NetTierCollisionTakesTheFullModelPath) {
  std::size_t i = 0;
  while (nets_[i].sinks.size() < 2) ++i;  // room for a shorter sink list
  const rcnet::RcNet& net = nets_[i];
  const core::NetBatchItem item{&net, &contexts_[i]};
  const auto reference = estimator_->estimate_batch({&item, 1}, {.threads = 1});
  std::uint64_t hash = 0;
  ASSERT_TRUE(net.validate(&hash).empty());

  const auto planted = [&](std::size_t paths, std::size_t nodes) {
    core::NetEmbedding e = make_embedding(0, paths);
    e.node_count = nodes;
    return e;
  };
  // More paths than the net has sinks (a stored row with no load), fewer
  // paths, and the right sink count over a different node count.
  const std::size_t sinks = net.sinks.size();
  const std::size_t nodes = net.node_count();
  for (const core::NetEmbedding& stored :
       {planted(sinks + 2, nodes + 2), planted(sinks - 1, nodes),
        planted(sinks, nodes + 1)}) {
    EstimateCache cache;
    cache.insert_net(hash, stored);
    core::BatchOptions opts;
    opts.cache = &cache;
    std::vector<core::NetOutcome> outcomes;
    opts.outcomes = &outcomes;
    core::InferenceStats stats;
    const auto got = estimator_->estimate_batch({&item, 1}, opts, &stats);
    ASSERT_EQ(got.size(), 1u);
    expect_same_values(got[0], reference[0]);
    EXPECT_EQ(outcomes[0].provenance, EstimateProvenance::kModel);
    EXPECT_FALSE(outcomes[0].embedding_hit);
    EXPECT_EQ(stats.model_nets, 1u);
    EXPECT_EQ(stats.embedding_hits, 0u);
    EXPECT_EQ(cache.stats().net_hits, 0u);
    EXPECT_EQ(cache.stats().net_misses, 1u);
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_timing(const netlist::StaResult& a, const netlist::StaResult& b) {
  return same_bits(a.arrival, b.arrival) && same_bits(a.slew, b.slew) &&
         same_bits(a.required, b.required) && same_bits(a.slack, b.slack) &&
         a.arrival_settled == b.arrival_settled &&
         same_bits(a.endpoint_arrival, b.endpoint_arrival) &&
         same_bits(a.endpoint_slack, b.endpoint_slack) &&
         a.unsettled_sinks == b.unsettled_sinks;
}

// The ECO fuzzer (test_eco) through a learned source with the cache on:
// IncrementalSta retimes go through EstimatorWireSource::time_net, so both
// tiers serve the edits. Every edit must stay bitwise equal to a fresh
// cache-off full run_sta over the mutated design.
TEST_F(CacheServingTest, EcoFuzzThroughTheCachedEstimatorStaysBitwiseEqual) {
  const rcnet::NetGenConfig net_cfg;
  std::uint64_t net_hits = 0;
  std::size_t embedding_hits = 0;
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    netlist::DesignGenConfig cfg;
    cfg.startpoints = static_cast<std::uint32_t>(3 + seq % 3);
    cfg.levels = static_cast<std::uint32_t>(3 + seq % 2);
    cfg.cells_per_level = static_cast<std::uint32_t>(5 + seq % 3);
    cfg.seed = seq;
    const netlist::Design design =
        netlist::generate_design(cfg, *library_, "ecofuzz");
    core::EstimatorWireSource source(*estimator_, design, *library_,
                                     1 + seq % 2);
    source.enable_cache({});
    netlist::IncrementalSta inc(design, *library_, source);
    source.rebind(inc.design());
    std::mt19937_64 rng(seq * 0x9e3779b97f4a7c15ULL);
    for (int edit = 0; edit < 4; ++edit) {
      const netlist::EcoEdit applied =
          netlist::apply_random_edit(inc, *library_, rng, net_cfg);
      // The CLI eco flow's fix-up: a spliced buffer net is new to the
      // source, so rebind and re-time both touched nets under their contexts.
      if (applied.kind == netlist::EcoEdit::Kind::kInsertBuffer) {
        source.rebind(inc.design());
        const std::uint32_t touched[2] = {
            applied.net,
            static_cast<std::uint32_t>(inc.design().nets.size() - 1)};
        for (const std::uint32_t net_idx : touched)
          (void)inc.reroute_net(net_idx, inc.design().nets[net_idx].rc);
      }
      core::EstimatorWireSource fresh(*estimator_, inc.design(), *library_, 1);
      const netlist::StaResult full =
          netlist::run_sta(inc.design(), *library_, fresh, inc.config());
      ASSERT_TRUE(same_timing(inc.result(), full))
          << "seq " << seq << " edit " << edit << " (" << applied.describe()
          << ")";
    }
    net_hits += source.cache()->stats().net_hits;
    embedding_hits += source.stats().embedding_hits;
  }
  EXPECT_GT(net_hits, 0u) << "no edit re-timed unchanged parasitics";
  EXPECT_EQ(embedding_hits, net_hits);  // every net-tier hit served a model pass
}

TEST_F(CacheServingTest, CacheMetricsAreExported) {
  EstimateCache cache;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const auto batch = items();

  auto& registry = telemetry::MetricsRegistry::global();
  const telemetry::Counter hits = registry.counter("gnntrans_cache_hits_total");
  const telemetry::Counter misses =
      registry.counter("gnntrans_cache_misses_total");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  (void)estimator_->estimate_batch(batch, opts);
  (void)estimator_->estimate_batch(batch, opts);
  EXPECT_GE(misses.value() - misses_before, nets_.size());
  EXPECT_GE(hits.value() - hits_before, nets_.size());

  const std::string prom = registry.prometheus_text();
  EXPECT_NE(prom.find("gnntrans_cache_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_misses_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_evictions_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_resident_bytes"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_cache_entries"), std::string::npos);
}

}  // namespace
