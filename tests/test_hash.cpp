// Golden hash vectors: the repo's hash-derived decisions, pinned to
// constants. Cache keys, fault decisions, shadow picks and trace ids must not
// shift when the hash implementation is refactored — a shifted key silently
// invalidates determinism proofs (fault-soak counts, sampled-net sets,
// trace-id correlation), so any change here is a behaviour change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/estimate_cache.hpp"
#include "core/fault_injector.hpp"
#include "core/telemetry/quality.hpp"
#include "core/telemetry/trace.hpp"
#include "features/features.hpp"
#include "rcnet/rcnet.hpp"

namespace {

using namespace gnntrans;

/// A fixed 5-node net with a branch, a coupling cap and non-round values.
rcnet::RcNet golden_net() {
  rcnet::RcNet net;
  net.name = "golden";
  net.source = 0;
  net.sinks = {3, 4};
  net.ground_cap = {1.5e-15, 2.25e-15, 0.75e-15, 3.125e-15, 1.0e-15};
  net.resistors = {{0, 1, 12.5}, {1, 2, 33.0}, {2, 3, 7.75}, {1, 4, 101.0}};
  net.couplings = {{2, 0.4e-15, 0xC0FFEEull}};
  return net;
}

features::NetContext golden_context() {
  features::NetContext ctx;
  ctx.input_slew = 3.5e-11;
  ctx.driver_resistance = 180.25;
  ctx.driver_strength = 4;
  ctx.driver_function = 2;
  ctx.loads = {{2, 1, 1.25e-15}, {8, 3, 0.5e-15}};
  return ctx;
}

TEST(GoldenHash, NetContentHash) {
  std::uint64_t hash = 0;
  EXPECT_TRUE(golden_net().validate(&hash).empty());
  EXPECT_EQ(hash, 0xE3D8725936F46B0Full);

  // An invalid (empty) net still hashes through the early-return path.
  std::uint64_t empty_hash = 0;
  EXPECT_FALSE(rcnet::RcNet{}.validate(&empty_hash).empty());
  EXPECT_EQ(empty_hash, 0xF97F737466CF9CB4ull);
}

TEST(GoldenHash, ContextContentHash) {
  EXPECT_EQ(features::content_hash(golden_context()), 0x5C887729F39FFC40ull);
  EXPECT_EQ(features::content_hash(features::NetContext{}),
            0xC51382A981048323ull);
}

TEST(GoldenHash, EstimateCacheKey) {
  std::uint64_t net_hash = 0;
  (void)golden_net().validate(&net_hash);
  const core::CacheKey key = core::EstimateCache::make_key(
      net_hash, features::content_hash(golden_context()));
  EXPECT_EQ(key.net, 0xE3D8725936F46B0Full);
  EXPECT_EQ(key.ctx, 0x5C887729F39FFC40ull);
}

/// Bit i set iff \p pick(i) is true, over 64 consecutive indices.
template <typename Pick>
std::uint64_t decision_mask(Pick pick) {
  std::uint64_t mask = 0;
  for (std::uint64_t i = 0; i < 64; ++i)
    if (pick(i)) mask |= std::uint64_t{1} << i;
  return mask;
}

TEST(GoldenHash, FaultInjectorDecisions) {
  core::FaultInjector injector;
  core::FaultInjector::Config cfg;
  cfg.seed = 20260807;
  cfg.probability = 0.3;
  injector.configure(cfg);
  const auto mask_for = [&](core::FaultSite site, const char* prefix) {
    return decision_mask([&](std::uint64_t i) {
      return injector.would_fail(site, prefix + std::to_string(i) + "/0");
    });
  };
  EXPECT_EQ(mask_for(core::FaultSite::kNetRead, "req/"),
            0x52008F99024184E0ull);
  EXPECT_EQ(mask_for(core::FaultSite::kNetWrite, "req/"),
            0x10669812010AC6D2ull);
  EXPECT_EQ(mask_for(core::FaultSite::kValidate, "net"),
            0x68C881C64003488Cull);
}

TEST(GoldenHash, QualityShadowPicks) {
  telemetry::QualityMonitor monitor;
  telemetry::QualityConfig cfg;
  cfg.shadow_rate = 0.3;
  cfg.shadow_seed = 7;
  monitor.configure(cfg);
  EXPECT_EQ(decision_mask([&](std::uint64_t i) {
              return monitor.should_shadow("net" + std::to_string(i));
            }),
            0x6044300F0004261Full);
}

TEST(GoldenHash, TraceHeadSampling) {
  telemetry::TraceRecorder recorder;
  telemetry::TraceConfig cfg;
  cfg.head_sample_rate = 0.25;
  cfg.head_seed = 12345;
  recorder.configure(cfg);
  recorder.enable();
  EXPECT_EQ(recorder.head_sample(0).trace_id, 0x22118258A9D111A0ull);
  EXPECT_EQ(recorder.head_sample(1).trace_id, 0xFBA75C760A577C70ull);
  EXPECT_EQ(recorder.head_sample(0xDEADBEEFull).trace_id,
            0x37D824D1EA22275Eull);
  EXPECT_EQ(decision_mask([&](std::uint64_t i) {
              return recorder.head_sample(i).sampled;
            }),
            0x1050002980CA0020ull);

  cfg.head_seed = telemetry::TraceConfig{}.head_seed;  // the default seed
  recorder.configure(cfg);
  EXPECT_EQ(recorder.head_sample(42).trace_id, 0x28EFE333B266F103ull);
}

}  // namespace
