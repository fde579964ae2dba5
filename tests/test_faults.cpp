// Fault-tolerance tests: the Status/Expected taxonomy, the deterministic
// FaultInjector, NaN/Inf layer guards, and — the headline — the degradation
// ladder in estimate_batch under seeded fault injection: every net returns a
// result, degraded nets carry baseline_fallback provenance, the fallback
// counters exactly match the injected-trigger count, and non-injected nets
// stay bitwise thread-count invariant.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "cell/library.hpp"
#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "core/fault_injector.hpp"
#include "core/status.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "netlist/incremental.hpp"
#include "nn/guard.hpp"
#include "rcnet/generate.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace gnntrans;
using core::ErrorCode;
using core::EstimateProvenance;
using core::FaultInjector;
using core::FaultSite;

// ---------------------------------------------------------------------------
// Status / Expected

TEST(Status, DefaultIsOk) {
  const core::Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  const core::Status s(ErrorCode::kInvalidNet, "sink 3 unreachable");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidNet);
  EXPECT_EQ(s.to_string(), "invalid_net: sink 3 unreachable");
}

TEST(Status, EveryCodeHasAName) {
  for (std::size_t c = 0; c < core::kErrorCodeCount; ++c)
    EXPECT_STRNE(core::to_string(static_cast<ErrorCode>(c)), "unknown");
}

TEST(Expected, HoldsValueOrStatus) {
  const core::Expected<int> good(42);
  ASSERT_TRUE(good);
  EXPECT_EQ(*good, 42);
  EXPECT_TRUE(good.status().ok());

  const core::Expected<int> bad(
      core::Status(ErrorCode::kDeadlineExceeded, "late"));
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.status().code(), ErrorCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// FaultInjector

/// Disarms the global injector on scope exit so tests cannot leak an armed
/// injector into later suites.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::global().disarm(); }
};

TEST(FaultInjector, DisarmedNeverFires) {
  FaultInjector inj;
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.should_fail(FaultSite::kForward, "n1"));
  EXPECT_EQ(inj.injected_total(), 0u);
}

TEST(FaultInjector, DecisionsArePureInSeedSiteKey) {
  FaultInjector inj;
  FaultInjector::Config cfg;
  cfg.seed = 7;
  cfg.probability = 0.5;
  inj.configure(cfg);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "net" + std::to_string(i);
    const bool first = inj.would_fail(FaultSite::kValidate, key);
    for (int rep = 0; rep < 3; ++rep)
      EXPECT_EQ(inj.would_fail(FaultSite::kValidate, key), first) << key;
  }
}

TEST(FaultInjector, SitesAreIndependentHashes) {
  FaultInjector inj;
  FaultInjector::Config cfg;
  cfg.seed = 11;
  cfg.probability = 0.5;
  inj.configure(cfg);
  // With p=0.5 over 200 keys, two sites agreeing everywhere would mean the
  // site index is ignored by the hash.
  int disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "net" + std::to_string(i);
    disagreements += inj.would_fail(FaultSite::kValidate, key) !=
                     inj.would_fail(FaultSite::kForward, key);
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjector, TriggerRateTracksProbability) {
  FaultInjector inj;
  FaultInjector::Config cfg;
  cfg.seed = 3;
  cfg.probability = 0.1;
  inj.configure(cfg);
  int fired = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i)
    fired += inj.would_fail(FaultSite::kForward, "n" + std::to_string(i));
  // 10% +- generous slack; the hash is fixed so this can never flake.
  EXPECT_GT(fired, kKeys / 20);
  EXPECT_LT(fired, kKeys / 4);
}

TEST(FaultInjector, ShouldFailCountsWouldFailDoesNot) {
  FaultInjector inj;
  FaultInjector::Config cfg;
  cfg.seed = 5;
  cfg.probability = 1.0;
  inj.configure(cfg);
  EXPECT_TRUE(inj.would_fail(FaultSite::kDeadline, "n"));
  EXPECT_EQ(inj.injected_total(), 0u);
  EXPECT_TRUE(inj.should_fail(FaultSite::kDeadline, "n"));
  EXPECT_EQ(inj.injected_total(), 1u);
  EXPECT_EQ(inj.injected_at(FaultSite::kDeadline), 1u);
  EXPECT_EQ(inj.injected_at(FaultSite::kForward), 0u);
  inj.reset_counts();
  EXPECT_EQ(inj.injected_total(), 0u);
}

TEST(FaultInjector, SiteMaskGatesSites) {
  FaultInjector inj;
  FaultInjector::Config cfg;
  cfg.seed = 5;
  cfg.probability = 1.0;
  cfg.site_mask = 1u << static_cast<int>(FaultSite::kForward);
  inj.configure(cfg);
  EXPECT_TRUE(inj.should_fail(FaultSite::kForward, "n"));
  EXPECT_FALSE(inj.should_fail(FaultSite::kValidate, "n"));
  EXPECT_FALSE(inj.should_fail(FaultSite::kDeadline, "n"));
}

TEST(FaultInjector, ProbabilityEndpoints) {
  FaultInjector inj;
  FaultInjector::Config cfg;
  cfg.probability = 0.0;
  inj.configure(cfg);
  for (int i = 0; i < 50; ++i)
    EXPECT_FALSE(inj.would_fail(FaultSite::kForward, "k" + std::to_string(i)));
  cfg.probability = 1.0;
  inj.configure(cfg);
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(inj.would_fail(FaultSite::kForward, "k" + std::to_string(i)));
}

// ---------------------------------------------------------------------------
// NaN/Inf layer guards

TEST(FiniteGuard, CleanTensorPasses) {
  tensor::Tensor t(2, 3);
  EXPECT_NO_THROW(nn::guard_finite(t, "test_stage"));
}

TEST(FiniteGuard, NanThrowsWithStageAndCoordinates) {
  tensor::Tensor t(2, 3);
  t.values()[4] = std::numeric_limits<float>::quiet_NaN();  // [1,1]
  try {
    nn::guard_finite(t, "gnn_forward");
    FAIL() << "expected NonFiniteActivationError";
  } catch (const nn::NonFiniteActivationError& e) {
    EXPECT_EQ(e.stage(), "gnn_forward");
    EXPECT_NE(std::string(e.what()).find("[1,1]"), std::string::npos)
        << e.what();
  }
}

TEST(FiniteGuard, InfThrows) {
  tensor::Tensor t(1, 2);
  t.values()[0] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(nn::guard_finite(t, "attention"), nn::NonFiniteActivationError);
}

TEST(FiniteGuard, ScopeDisablesAndRestores) {
  tensor::Tensor t(1, 1);
  t.values()[0] = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(nn::finite_guard_enabled());
  {
    nn::FiniteGuardScope off(false);
    EXPECT_FALSE(nn::finite_guard_enabled());
    EXPECT_NO_THROW(nn::guard_finite(t, "x"));
  }
  EXPECT_TRUE(nn::finite_guard_enabled());
  EXPECT_THROW(nn::guard_finite(t, "x"), nn::NonFiniteActivationError);
}

// ---------------------------------------------------------------------------
// Degradation ladder in estimate_batch

class FaultServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = std::make_unique<cell::CellLibrary>(
        cell::CellLibrary::make_default());

    features::WireDatasetConfig dcfg;
    dcfg.net_count = 24;
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
    opt.train.epochs = 4;
    estimator_ = std::make_unique<core::WireTimingEstimator>(
        core::WireTimingEstimator::train(records, opt));

    std::mt19937_64 rng(99);
    rcnet::NetGenConfig ncfg;
    ncfg.non_tree_fraction = 0.3;
    while (nets_.size() < 40) {
      rcnet::RcNet net = rcnet::generate_net(
          ncfg, rng, "fault" + std::to_string(nets_.size()));
      if (!net.validate().empty()) continue;
      nets_.push_back(std::move(net));
    }
    for (const rcnet::RcNet& net : nets_)
      contexts_.push_back(features::random_context(*library_, net, rng));
  }

  static void TearDownTestSuite() {
    FaultInjector::global().disarm();
    estimator_.reset();
    library_.reset();
    nets_.clear();
    contexts_.clear();
  }

  void TearDown() override { FaultInjector::global().disarm(); }

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

std::unique_ptr<cell::CellLibrary> FaultServingTest::library_;
std::unique_ptr<core::WireTimingEstimator> FaultServingTest::estimator_;
std::vector<rcnet::RcNet> FaultServingTest::nets_;
std::vector<features::NetContext> FaultServingTest::contexts_;

// The acceptance test: seeded 10% per-net failure probability across all
// sites. estimate_batch must return a full-length estimate for 100% of the
// nets, every injected-failure net must carry baseline_fallback provenance,
// and the fallback counters must exactly match the injected-trigger count.
TEST_F(FaultServingTest, InjectedFaultsDegradeGracefullyWithExactCounters) {
  InjectorGuard guard;
  FaultInjector::Config cfg;
  cfg.seed = 20260806;
  cfg.probability = 0.1;
  FaultInjector::global().configure(cfg);

  // Snapshot the process-global telemetry counter before the batch.
  telemetry::Counter fallback_metric =
      telemetry::MetricsRegistry::global().counter(
          "gnntrans_serving_fallback_total",
          "Nets degraded to the analytic baseline");
  const std::uint64_t metric_before = fallback_metric.value();

  const auto batch = items();
  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions options;
  options.threads = 1;
  options.outcomes = &outcomes;
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(batch, options, &stats);

  // 100% of nets produce a full per-sink result vector.
  ASSERT_EQ(results.size(), nets_.size());
  ASSERT_EQ(outcomes.size(), nets_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    ASSERT_EQ(results[i].size(), nets_[i].sinks.size()) << "net " << i;
    for (const core::PathEstimate& pe : results[i]) {
      EXPECT_TRUE(std::isfinite(pe.delay));
      EXPECT_TRUE(std::isfinite(pe.slew));
      EXPECT_EQ(pe.provenance, outcomes[i].provenance);
    }
  }

  // Every structurally valid net that was injected a failure fell back to the
  // analytic baseline — none failed outright.
  const std::uint64_t injected = FaultInjector::global().injected_total();
  ASSERT_GT(injected, 0u) << "seed produced no triggers; pick another seed";
  EXPECT_EQ(stats.failed_nets, 0u);
  EXPECT_EQ(stats.fallback_nets, injected);
  EXPECT_EQ(stats.model_nets + stats.fallback_nets, nets_.size());

  // Telemetry counter delta exactly matches the injected count.
  EXPECT_EQ(fallback_metric.value() - metric_before, injected);

  // Per-reason counters partition the degraded set.
  std::size_t by_reason = 0;
  for (std::size_t c = 0; c < core::kErrorCodeCount; ++c)
    by_reason += stats.degraded_by_reason[c];
  EXPECT_EQ(by_reason, stats.fallback_nets + stats.failed_nets);
  EXPECT_EQ(stats.degraded_by_reason[static_cast<std::size_t>(ErrorCode::kOk)],
            0u);

  // Outcomes agree with the stats tallies.
  std::size_t degraded_outcomes = 0;
  for (const core::NetOutcome& o : outcomes) {
    if (o.provenance == EstimateProvenance::kBaselineFallback) {
      ++degraded_outcomes;
      EXPECT_NE(o.error, ErrorCode::kOk);
      EXPECT_FALSE(o.message.empty());
    } else {
      EXPECT_EQ(o.provenance, EstimateProvenance::kModel);
      EXPECT_EQ(o.error, ErrorCode::kOk);
    }
  }
  EXPECT_EQ(degraded_outcomes, stats.fallback_nets);
}

// Same injection, different thread counts: the degraded set is identical and
// non-injected nets stay bitwise identical (fault decisions are a pure hash,
// not a race).
TEST_F(FaultServingTest, InjectionIsThreadCountDeterministic) {
  InjectorGuard guard;
  FaultInjector::Config cfg;
  cfg.seed = 20260806;
  cfg.probability = 0.1;

  const auto batch = items();
  auto run = [&](std::size_t threads, std::vector<core::NetOutcome>* outcomes,
                 core::InferenceStats* stats) {
    FaultInjector::global().configure(cfg);  // resets trigger counters
    core::BatchOptions options;
    options.threads = threads;
    options.outcomes = outcomes;
    return estimator_->estimate_batch(batch, options, stats);
  };

  std::vector<core::NetOutcome> serial_outcomes, threaded_outcomes;
  core::InferenceStats serial_stats, threaded_stats;
  const auto serial = run(1, &serial_outcomes, &serial_stats);
  const std::uint64_t serial_injected =
      FaultInjector::global().injected_total();
  const auto threaded = run(4, &threaded_outcomes, &threaded_stats);
  const std::uint64_t threaded_injected =
      FaultInjector::global().injected_total();

  EXPECT_EQ(serial_injected, threaded_injected);
  EXPECT_EQ(serial_stats.fallback_nets, threaded_stats.fallback_nets);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial_outcomes[i].provenance, threaded_outcomes[i].provenance)
        << "net " << i;
    EXPECT_EQ(serial_outcomes[i].error, threaded_outcomes[i].error)
        << "net " << i;
    ASSERT_EQ(serial[i].size(), threaded[i].size());
    for (std::size_t q = 0; q < serial[i].size(); ++q) {
      // Bitwise equality for every net — the model path is a fixed arithmetic
      // sequence and the analytic fallback is deterministic too.
      EXPECT_EQ(serial[i][q].slew, threaded[i][q].slew) << "net " << i;
      EXPECT_EQ(serial[i][q].delay, threaded[i][q].delay) << "net " << i;
    }
  }
}

// Each fault site maps to its ErrorCode in the outcome.
TEST_F(FaultServingTest, SitesMapToErrorCodes) {
  InjectorGuard guard;
  const struct {
    FaultSite site;
    ErrorCode expect;
  } cases[] = {
      {FaultSite::kValidate, ErrorCode::kInvalidNet},
      {FaultSite::kFeaturize, ErrorCode::kPathExtractionFailed},
      {FaultSite::kForward, ErrorCode::kInternal},
      {FaultSite::kNonFinite, ErrorCode::kNonFiniteActivation},
      {FaultSite::kDeadline, ErrorCode::kDeadlineExceeded},
  };
  const auto batch = items();
  for (const auto& c : cases) {
    FaultInjector::Config cfg;
    cfg.probability = 1.0;  // every net fails at the one enabled site
    cfg.site_mask = 1u << static_cast<int>(c.site);
    FaultInjector::global().configure(cfg);

    std::vector<core::NetOutcome> outcomes;
    core::BatchOptions options;
    options.threads = 1;
    options.outcomes = &outcomes;
    const auto results = estimator_->estimate_batch(batch, options);
    ASSERT_EQ(results.size(), nets_.size());
    for (const core::NetOutcome& o : outcomes) {
      EXPECT_EQ(o.error, c.expect) << to_string(c.site);
      EXPECT_EQ(o.provenance, EstimateProvenance::kBaselineFallback);
    }
  }
}

TEST_F(FaultServingTest, FallbackNonePolicyFailsInsteadOfDegrading) {
  InjectorGuard guard;
  FaultInjector::Config cfg;
  cfg.probability = 1.0;
  cfg.site_mask = 1u << static_cast<int>(FaultSite::kForward);
  FaultInjector::global().configure(cfg);

  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions options;
  options.threads = 1;
  options.fallback = core::FallbackPolicy::kNone;
  options.outcomes = &outcomes;
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(items(), options, &stats);

  EXPECT_EQ(stats.failed_nets, nets_.size());
  EXPECT_EQ(stats.fallback_nets, 0u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kFailed);
    ASSERT_EQ(results[i].size(), nets_[i].sinks.size());
    for (const core::PathEstimate& pe : results[i]) {
      EXPECT_EQ(pe.provenance, EstimateProvenance::kFailed);
      EXPECT_EQ(pe.delay, 0.0);
      EXPECT_EQ(pe.slew, 0.0);
    }
  }
}

TEST_F(FaultServingTest, StructurallyInvalidNetFailsButBatchSurvives) {
  // One broken net among valid ones: it cannot take the analytic baseline
  // (the moment engine needs a valid net), so it fails with zeroed outputs
  // while every other net is served by the model.
  rcnet::RcNet broken = nets_.front();
  broken.name = "broken";
  broken.resistors.clear();  // disconnect everything
  const features::NetContext& ctx = contexts_.front();

  auto batch = items();
  batch.push_back({&broken, &ctx});

  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions options;
  options.threads = 1;
  options.outcomes = &outcomes;
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(batch, options, &stats);

  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(stats.failed_nets, 1u);
  EXPECT_EQ(stats.model_nets, nets_.size());
  EXPECT_EQ(outcomes.back().provenance, EstimateProvenance::kFailed);
  EXPECT_EQ(outcomes.back().error, ErrorCode::kInvalidNet);
  EXPECT_EQ(results.back().size(), broken.sinks.size());
}

TEST_F(FaultServingTest, TinyDeadlineDegradesLateNets) {
  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions options;
  options.threads = 1;
  options.deadline_seconds = 1e-12;  // expires before any net starts
  options.outcomes = &outcomes;
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(items(), options, &stats);

  ASSERT_EQ(results.size(), nets_.size());
  EXPECT_EQ(stats.fallback_nets, nets_.size());
  EXPECT_EQ(stats.degraded_by_reason[static_cast<std::size_t>(
                ErrorCode::kDeadlineExceeded)],
            nets_.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(outcomes[i].error, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kBaselineFallback);
    ASSERT_EQ(results[i].size(), nets_[i].sinks.size());
    for (const core::PathEstimate& pe : results[i]) {
      EXPECT_GT(pe.slew, 0.0);  // analytic numbers, not zeroed failures
      EXPECT_TRUE(std::isfinite(pe.delay));
    }
  }
}

TEST_F(FaultServingTest, SlowQueryBudgetFlagsEveryNet) {
  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions options;
  options.threads = 1;
  options.slow_net_warn_seconds = 1e-12;  // everything is "slow"
  options.outcomes = &outcomes;
  core::InferenceStats stats;
  (void)estimator_->estimate_batch(items(), options, &stats);

  EXPECT_EQ(stats.slow_nets, nets_.size());
  for (const core::NetOutcome& o : outcomes) EXPECT_TRUE(o.slow);
  // The summary line mentions the slow tally.
  EXPECT_NE(stats.summary().find("slow"), std::string::npos);
}

TEST_F(FaultServingTest, NoInjectionMeansAllModelNets) {
  core::BatchOptions options;
  options.threads = 1;
  std::vector<core::NetOutcome> outcomes;
  options.outcomes = &outcomes;
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(items(), options, &stats);

  EXPECT_EQ(stats.model_nets, nets_.size());
  EXPECT_EQ(stats.fallback_nets, 0u);
  EXPECT_EQ(stats.failed_nets, 0u);
  EXPECT_EQ(stats.degraded_fraction(), 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(outcomes[i].provenance, EstimateProvenance::kModel);
    for (const core::PathEstimate& pe : results[i])
      EXPECT_EQ(pe.provenance, EstimateProvenance::kModel);
  }
}

// IncrementalSta re-times through EstimatorWireSource::time_net, which runs
// the batched ladder: a forward fault on a re-timed net degrades it to the
// analytic fallback, counted in stats(), exactly as a full run_sta over the
// same source does, so incremental == full holds on the fault path too. The
// fault is armed after the initial analysis, so the re-time is a net-tier
// hit and the fault lands on the heads-only pass.
TEST_F(FaultServingTest, EcoRetimeUnderForwardFaultDegradesLikeFullSta) {
  netlist::DesignGenConfig cfg;
  cfg.startpoints = 3;
  cfg.levels = 3;
  cfg.cells_per_level = 5;
  cfg.seed = 5;
  const netlist::Design design =
      netlist::generate_design(cfg, *library_, "fault_eco");

  // A net whose driver can swap to another drive strength of its function:
  // the swap re-times that net under a new driver context.
  std::size_t target = design.nets.size();
  std::uint32_t new_cell = 0;
  for (std::size_t n = 0; n < design.nets.size() && target == design.nets.size();
       ++n) {
    const cell::Cell& old_cell =
        library_->at(design.instances[design.nets[n].driver].cell_index);
    for (std::size_t c = 0; c < library_->size(); ++c) {
      if (library_->at(c).function == old_cell.function &&
          library_->at(c).drive_strength != old_cell.drive_strength) {
        target = n;
        new_cell = static_cast<std::uint32_t>(c);
        break;
      }
    }
  }
  ASSERT_LT(target, design.nets.size());
  const std::string target_name = design.nets[target].rc.name;

  // Arm kForward on the target net only: the seed whose pure decision
  // selects it and no other net of the design.
  FaultInjector::Config fcfg;
  fcfg.probability = 0.05;
  fcfg.site_mask = core::site_bit(FaultSite::kForward);
  bool found = false;
  for (fcfg.seed = 1; fcfg.seed < 100000 && !found; ++fcfg.seed) {
    FaultInjector probe;
    probe.configure(fcfg);
    found = probe.would_fail(FaultSite::kForward, target_name);
    for (const netlist::DesignNet& net : design.nets)
      if (found && net.rc.name != target_name)
        found = !probe.would_fail(FaultSite::kForward, net.rc.name);
  }
  ASSERT_TRUE(found);
  --fcfg.seed;

  core::EstimatorWireSource source(*estimator_, design, *library_, 1);
  source.enable_cache({});
  netlist::IncrementalSta inc(design, *library_, source);
  source.rebind(inc.design());
  ASSERT_EQ(source.stats().fallback_nets, 0u);

  FaultInjector::global().configure(fcfg);
  const core::InferenceStats before = source.stats();
  (void)inc.swap_cell(design.nets[target].driver, new_cell);
  const core::InferenceStats after = source.stats();
  EXPECT_EQ(after.fallback_nets - before.fallback_nets, 1u);
  EXPECT_EQ(after.degraded_by_reason[static_cast<std::size_t>(ErrorCode::kInternal)] -
                before.degraded_by_reason[static_cast<std::size_t>(ErrorCode::kInternal)],
            1u);
  EXPECT_EQ(FaultInjector::global().injected_at(FaultSite::kForward), 1u);
  EXPECT_GT(source.cache()->stats().net_hits, 0u);

  const netlist::StaResult full =
      netlist::run_sta(inc.design(), *library_, source, inc.config());
  const auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same(inc.result().arrival, full.arrival));
  EXPECT_TRUE(same(inc.result().slew, full.slew));
  EXPECT_TRUE(same(inc.result().required, full.required));
  EXPECT_TRUE(same(inc.result().slack, full.slack));
  EXPECT_EQ(inc.result().arrival_settled, full.arrival_settled);
  EXPECT_EQ(source.stats().fallback_nets - after.fallback_nets, 1u);
}

TEST_F(FaultServingTest, SingleNetEstimateStillThrows) {
  // The one-net entry point keeps exception semantics: invalid input is the
  // caller's bug, not a degradation case.
  rcnet::RcNet broken = nets_.front();
  broken.resistors.clear();
  EXPECT_THROW((void)estimator_->estimate(broken, contexts_.front()),
               std::invalid_argument);
}

}  // namespace
