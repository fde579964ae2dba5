// Tests for metrics-driven pool autoscaling: ThreadPool::resize semantics,
// the PoolAutoscaler hysteresis law on synthetic batch stats, and the
// bitwise-determinism invariant across arbitrary resize schedules — both on
// raw estimate_batch and through EstimatorWireSource inside full-design STA.
//
// Controller tests pin max_threads explicitly: the default (hardware
// threads) would make expectations host-dependent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "cell/library.hpp"
#include "core/autoscaler.hpp"
#include "core/estimator.hpp"
#include "core/thread_pool.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "netlist/sta.hpp"
#include "rcnet/generate.hpp"

namespace {

using namespace gnntrans;

// ---------------------------------------------------------------------------
// ThreadPool::resize

TEST(ThreadPoolResize, GrowShrinkKeepsIdsDense) {
  core::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);

  for (const std::size_t target : {4u, 2u, 8u, 3u}) {
    pool.resize(target);
    EXPECT_EQ(pool.size(), target);

    std::atomic<std::size_t> covered{0};
    std::atomic<std::size_t> max_worker{0};
    pool.parallel_for(64, [&](std::size_t, std::size_t worker) {
      covered.fetch_add(1, std::memory_order_relaxed);
      std::size_t seen = max_worker.load(std::memory_order_relaxed);
      while (worker > seen &&
             !max_worker.compare_exchange_weak(seen, worker)) {
      }
    });
    EXPECT_EQ(covered.load(), 64u);
    EXPECT_LT(max_worker.load(), target);
  }
}

TEST(ThreadPoolResize, ShrinkToInlineStillRuns) {
  core::ThreadPool pool(4);
  pool.resize(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t sum = 0;  // inline execution: no races possible
  pool.parallel_for(10, [&](std::size_t i, std::size_t) { sum += i; });
  EXPECT_EQ(sum, 45u);
  // And back up: a pool shrunk to inline must be able to regrow.
  pool.resize(3);
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(10, [&](std::size_t, std::size_t) { ++covered; });
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ThreadPoolResize, ResizeToSameSizeIsANoop) {
  core::ThreadPool pool(2);
  pool.resize(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(8, [&](std::size_t, std::size_t) { ++covered; });
  EXPECT_EQ(covered.load(), 8u);
}

TEST(ThreadPoolResize, ExceptionsStillPropagateAfterResize) {
  core::ThreadPool pool(1);
  pool.resize(4);
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&](std::size_t i, std::size_t) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives the failed job.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(16, [&](std::size_t, std::size_t) { ++covered; });
  EXPECT_EQ(covered.load(), 16u);
}

TEST(ThreadPoolResize, StressResizeBetweenJobs) {
  core::ThreadPool pool(2);
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    pool.resize(1 + static_cast<std::size_t>(rng() % 6));
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(round % 17,
                      [&](std::size_t i, std::size_t) { sum += i + 1; });
    const std::size_t n = round % 17;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

// ---------------------------------------------------------------------------
// PoolAutoscaler controller law

/// Synthetic batch stats: \p nets nets of \p per_net_seconds each, run on
/// \p threads workers at \p utilization busy fraction.
core::InferenceStats make_stats(std::size_t nets, double per_net_seconds,
                                std::size_t threads, double utilization) {
  core::InferenceStats stats;
  stats.nets = nets;
  stats.threads = threads;
  for (std::size_t i = 0; i < nets; ++i) stats.latency.observe(per_net_seconds);
  // latency.sum() / (wall * threads) == utilization
  stats.wall_seconds = stats.latency.sum() /
                       (utilization * static_cast<double>(threads));
  return stats;
}

core::AutoscalerConfig test_config() {
  core::AutoscalerConfig cfg;
  cfg.min_threads = 1;
  cfg.max_threads = 16;  // host-independent
  return cfg;
}

TEST(PoolAutoscaler, ColdControllerHolds) {
  core::PoolAutoscaler scaler(test_config());
  const core::AutoscaleDecision d = scaler.decide(256, 2);
  EXPECT_EQ(d.direction, core::ScaleDirection::kHold);
  EXPECT_EQ(d.target, 2u);
  EXPECT_STREQ(d.reason, "cold");
  EXPECT_EQ(scaler.resize_count(), 0u);
}

TEST(PoolAutoscaler, GrowsIntoDemonstratedHeadroomOnly) {
  core::PoolAutoscaler scaler(test_config());
  // Saturated single worker, 1 ms per net: demand for 64 nets over the 2 ms
  // budget is 32 workers, but capacity caps the first step at
  // ceil(1.0 * 1 * 2.0) = 2 — multiplicative-increase probing.
  scaler.observe(make_stats(64, 1e-3, 1, 1.0));
  const core::AutoscaleDecision d = scaler.decide(64, 1);
  EXPECT_EQ(d.direction, core::ScaleDirection::kGrow);
  EXPECT_EQ(d.target, 2u);
  EXPECT_EQ(d.ideal, 2u);
  EXPECT_EQ(scaler.resize_count(), 1u);
}

TEST(PoolAutoscaler, CooldownBlocksConsecutiveResizes) {
  core::PoolAutoscaler scaler(test_config());  // cooldown_batches = 2
  scaler.observe(make_stats(64, 1e-3, 1, 1.0));
  ASSERT_TRUE(scaler.decide(64, 1).resized());
  scaler.observe(make_stats(64, 1e-3, 2, 1.0));
  const core::AutoscaleDecision d1 = scaler.decide(64, 2);
  EXPECT_EQ(d1.direction, core::ScaleDirection::kHold);
  EXPECT_STREQ(d1.reason, "cooldown");
  const core::AutoscaleDecision d2 = scaler.decide(64, 2);
  EXPECT_STREQ(d2.reason, "cooldown");
  // Cooldown spent: the pool may move again.
  EXPECT_TRUE(scaler.decide(64, 2).resized());
}

TEST(PoolAutoscaler, IdlePoolNeverGrows) {
  core::AutoscalerConfig cfg = test_config();
  // A permissive capacity bound isolates the utilization gate: without it,
  // grow_headroom = 2 would already cap ideal at current for an idle pool.
  cfg.grow_headroom = 10.0;
  core::PoolAutoscaler scaler(cfg);
  // 30% utilization: the workers were mostly idle, so more of them cannot
  // help no matter how large the offered load is.
  scaler.observe(make_stats(64, 1e-3, 4, 0.3));
  const core::AutoscaleDecision d = scaler.decide(512, 4);
  EXPECT_EQ(d.direction, core::ScaleDirection::kHold);
  EXPECT_STREQ(d.reason, "idle-pool");
}

TEST(PoolAutoscaler, CapacityBoundCapsGrowthOfAnIdlePool) {
  // The default headroom (2.0) reaches the same conclusion through the
  // capacity bound: ideal never exceeds what the busy workers could cover.
  core::PoolAutoscaler scaler(test_config());
  scaler.observe(make_stats(64, 1e-3, 4, 0.3));
  const core::AutoscaleDecision d = scaler.decide(512, 4);
  EXPECT_EQ(d.direction, core::ScaleDirection::kHold);
  EXPECT_EQ(d.ideal, 4u);
  EXPECT_STREQ(d.reason, "steady");
}

TEST(PoolAutoscaler, ShrinkDeadbandHoldsSmallMoves) {
  core::PoolAutoscaler scaler(test_config());
  // Demand 3 on a 4-worker pool: 3 > 4 * 0.6 = 2.4, inside the deadband.
  scaler.observe(make_stats(6, 1e-3, 4, 1.0));
  const core::AutoscaleDecision d = scaler.decide(6, 4);
  EXPECT_EQ(d.direction, core::ScaleDirection::kHold);
  EXPECT_EQ(d.ideal, 3u);
  EXPECT_STREQ(d.reason, "deadband");
}

TEST(PoolAutoscaler, ShrinksToDemandOnSmallOffered) {
  core::PoolAutoscaler scaler(test_config());
  // 0.5 ms per net: demand for 2 nets over the 2 ms budget is ceil(0.5) = 1,
  // with margin against the histogram's floating-point sum accumulation.
  scaler.observe(make_stats(64, 5e-4, 8, 1.0));
  // 2 offered nets put an 8-worker pool above the never-more-workers-than-
  // nets bound, so the first decision clamps straight to the boundary.
  const core::AutoscaleDecision first = scaler.decide(2, 8);
  EXPECT_EQ(first.direction, core::ScaleDirection::kShrink);
  EXPECT_EQ(first.target, 2u);
  EXPECT_EQ(scaler.resize_count(), 1u);

  // Once inside bounds and past the cooldown, hysteresis shrinks to demand.
  scaler.observe(make_stats(2, 5e-4, 2, 1.0));
  EXPECT_STREQ(scaler.decide(2, 2).reason, "cooldown");
  EXPECT_STREQ(scaler.decide(2, 2).reason, "cooldown");
  const core::AutoscaleDecision settled = scaler.decide(2, 2);
  EXPECT_EQ(settled.direction, core::ScaleDirection::kShrink);
  EXPECT_EQ(settled.target, 1u);
  EXPECT_EQ(scaler.resize_count(), 2u);
}

TEST(PoolAutoscaler, HardBoundsBeatHysteresis) {
  core::AutoscalerConfig cfg = test_config();
  cfg.min_threads = 2;
  cfg.max_threads = 4;
  core::PoolAutoscaler scaler(cfg);
  // Even a cold controller moves a pool that sits outside [min, max].
  const core::AutoscaleDecision high = scaler.decide(64, 8);
  EXPECT_EQ(high.direction, core::ScaleDirection::kShrink);
  EXPECT_EQ(high.target, 4u);
  core::PoolAutoscaler scaler2(cfg);
  const core::AutoscaleDecision low = scaler2.decide(64, 1);
  EXPECT_EQ(low.direction, core::ScaleDirection::kGrow);
  EXPECT_EQ(low.target, 2u);
}

TEST(PoolAutoscaler, EwmaTracksServiceTime) {
  core::AutoscalerConfig cfg = test_config();
  cfg.ewma_alpha = 0.5;
  core::PoolAutoscaler scaler(cfg);
  EXPECT_DOUBLE_EQ(scaler.service_time_ewma(), 0.0);
  scaler.observe(make_stats(10, 1e-3, 1, 1.0));
  // First observation seeds the EWMA directly. The histogram buckets the
  // exact latencies, but sum() is exact, so the mean is exact too.
  EXPECT_NEAR(scaler.service_time_ewma(), 1e-3, 1e-12);
  scaler.observe(make_stats(10, 3e-3, 1, 1.0));
  EXPECT_NEAR(scaler.service_time_ewma(), 2e-3, 1e-12);
  EXPECT_NEAR(scaler.last_utilization(), 1.0, 1e-9);
}

TEST(PoolAutoscaler, EmptyBatchIsIgnored) {
  core::PoolAutoscaler scaler(test_config());
  scaler.observe(core::InferenceStats{});
  const core::AutoscaleDecision d = scaler.decide(64, 1);
  EXPECT_STREQ(d.reason, "cold");  // still cold: nothing was observed
}

// ---------------------------------------------------------------------------
// Bitwise determinism across resize schedules

class AutoscaleServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = std::make_unique<cell::CellLibrary>(
        cell::CellLibrary::make_default());

    features::WireDatasetConfig dcfg;
    dcfg.net_count = 12;
    dcfg.seed = 2026;
    dcfg.sim_config.steps = 200;
    const auto records = features::generate_wire_records(dcfg, *library_);

    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 8;
    opt.model.gnn_layers = 2;
    opt.model.transformer_layers = 1;
    opt.model.heads = 2;
    opt.model.mlp_hidden = 16;
    opt.model.seed = 7;
    opt.train.epochs = 2;
    estimator_ = std::make_unique<core::WireTimingEstimator>(
        core::WireTimingEstimator::train(records, opt));

    std::mt19937_64 rng(41);
    rcnet::NetGenConfig ncfg;
    while (nets_.size() < 16) {
      rcnet::RcNet net =
          rcnet::generate_net(ncfg, rng, "as" + std::to_string(nets_.size()));
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

  static std::unique_ptr<cell::CellLibrary> library_;
  static std::unique_ptr<core::WireTimingEstimator> estimator_;
  static std::vector<rcnet::RcNet> nets_;
  static std::vector<features::NetContext> contexts_;
};

std::unique_ptr<cell::CellLibrary> AutoscaleServingTest::library_;
std::unique_ptr<core::WireTimingEstimator> AutoscaleServingTest::estimator_;
std::vector<rcnet::RcNet> AutoscaleServingTest::nets_;
std::vector<features::NetContext> AutoscaleServingTest::contexts_;

TEST_F(AutoscaleServingTest, BitwiseDeterminismAcrossResizeSchedule) {
  const auto batch = items();
  const auto reference = estimator_->estimate_batch(batch, {.threads = 1});

  // The acceptance schedule: resize the live pool 1 -> 4 -> 2 -> 8 between
  // batches, per-worker workspaces trimmed in lockstep. Every batch must
  // reproduce the single-thread outputs bit for bit.
  core::ThreadPool pool(1);
  std::vector<nn::Workspace> workspaces;
  for (const std::size_t threads : {1u, 4u, 2u, 8u}) {
    pool.resize(threads);
    if (workspaces.size() > threads) workspaces.resize(threads);
    core::BatchOptions options;
    options.threads = threads;
    options.pool = threads > 1 ? &pool : nullptr;
    options.workspaces = &workspaces;
    const auto out = estimator_->estimate_batch(batch, options);

    ASSERT_EQ(out.size(), reference.size()) << "T=" << threads;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].size(), reference[i].size()) << "net " << i;
      for (std::size_t q = 0; q < out[i].size(); ++q) {
        EXPECT_EQ(out[i][q].sink, reference[i][q].sink);
        EXPECT_EQ(out[i][q].slew, reference[i][q].slew)
            << "net " << i << " T=" << threads;
        EXPECT_EQ(out[i][q].delay, reference[i][q].delay)
            << "net " << i << " T=" << threads;
        EXPECT_EQ(out[i][q].provenance, reference[i][q].provenance);
      }
    }
  }
}

TEST_F(AutoscaleServingTest, AutoscaledStaMatchesSingleThread) {
  netlist::DesignGenConfig cfg;
  cfg.seed = 5;
  cfg.levels = 4;
  cfg.cells_per_level = 6;
  cfg.startpoints = 4;
  const netlist::Design design =
      netlist::generate_design(cfg, *library_, "autoscale_sta");

  core::EstimatorWireSource serial(*estimator_, design, *library_, 1);
  const netlist::StaResult r1 = netlist::run_sta(design, *library_, serial);

  core::EstimatorWireSource scaled(*estimator_, design, *library_, 1);
  core::AutoscalerConfig acfg = test_config();
  // An aggressive controller (resize on every batch if it wants to) is the
  // worst case for the determinism invariant.
  acfg.cooldown_batches = 0;
  acfg.grow_deadband = 1.0;
  acfg.shrink_deadband = 1.0;
  acfg.min_grow_utilization = 0.0;
  acfg.target_batch_seconds = 1e-6;  // tiny budget: always demand more
  scaled.enable_autoscale(acfg);
  const netlist::StaResult r2 = netlist::run_sta(design, *library_, scaled);

  ASSERT_EQ(r1.arrival.size(), r2.arrival.size());
  for (std::size_t v = 0; v < r1.arrival.size(); ++v) {
    EXPECT_EQ(r1.arrival[v], r2.arrival[v]) << "instance " << v;
    EXPECT_EQ(r1.slew[v], r2.slew[v]) << "instance " << v;
  }
  ASSERT_EQ(r1.endpoint_arrival.size(), r2.endpoint_arrival.size());
  for (std::size_t e = 0; e < r1.endpoint_arrival.size(); ++e)
    EXPECT_EQ(r1.endpoint_arrival[e], r2.endpoint_arrival[e]);
  EXPECT_EQ(serial.stats().nets, scaled.stats().nets);
  ASSERT_NE(scaled.autoscaler(), nullptr);
}

TEST_F(AutoscaleServingTest, SingleNetRetimesLeaveThePoolAlone) {
  // IncrementalSta retimes one net at a time through time_net. Those calls
  // must not drive the controller: a one-net "batch" would shrink the pool
  // to min_threads and feed one-net utilization into the next run_sta.
  netlist::DesignGenConfig cfg;
  cfg.seed = 7;
  cfg.levels = 3;
  cfg.cells_per_level = 5;
  cfg.startpoints = 3;
  const netlist::Design design =
      netlist::generate_design(cfg, *library_, "retime_pool");

  core::EstimatorWireSource source(*estimator_, design, *library_, 4);
  source.enable_autoscale(test_config());
  for (const netlist::DesignNet& net : design.nets)
    (void)source.time_net(net.rc, 20e-12, 500.0);

  EXPECT_EQ(source.threads(), 4u);
  ASSERT_NE(source.autoscaler(), nullptr);
  EXPECT_EQ(source.autoscaler()->resize_count(), 0u);
  EXPECT_EQ(source.autoscaler()->service_time_ewma(), 0.0);
  EXPECT_EQ(source.stats().nets, design.nets.size());
}

TEST_F(AutoscaleServingTest, WorkspacesTrimmedOnShrink) {
  netlist::DesignGenConfig cfg;
  cfg.seed = 6;
  cfg.levels = 3;
  cfg.cells_per_level = 8;
  cfg.startpoints = 4;
  const netlist::Design design =
      netlist::generate_design(cfg, *library_, "trim_ws");

  core::EstimatorWireSource source(*estimator_, design, *library_, 4);
  (void)netlist::run_sta(design, *library_, source);
  EXPECT_EQ(source.threads(), 4u);
  EXPECT_EQ(source.workspace_count(), 4u);

  // Shrinking the pool trims the per-worker workspaces in lockstep; stale
  // entries would pin their peak arena memory for the process lifetime.
  source.set_threads(2);
  EXPECT_EQ(source.threads(), 2u);
  EXPECT_EQ(source.workspace_count(), 2u);
  (void)netlist::run_sta(design, *library_, source);
  EXPECT_EQ(source.workspace_count(), 2u);
}

}  // namespace
