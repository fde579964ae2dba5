// Micro-benchmarks (google-benchmark) for the substrate throughput numbers
// behind the paper's runtime story: golden transient sim vs analytical
// metrics vs feature extraction vs model inference.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "features/dataset.hpp"
#include "rcnet/generate.hpp"
#include "sim/moments.hpp"
#include "sim/transient.hpp"
#include "sim/wire_analysis.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

using namespace gnntrans;

namespace {

rcnet::RcNet make_net(std::size_t nodes, std::uint64_t seed = 9) {
  std::mt19937_64 rng(seed);
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = static_cast<std::uint32_t>(nodes);
  cfg.max_nodes = static_cast<std::uint32_t>(nodes);
  return rcnet::generate_net(cfg, rng, "bench");
}

void BM_GoldenTransient(benchmark::State& state) {
  const rcnet::RcNet net = make_net(state.range(0));
  sim::TransientConfig cfg;
  cfg.steps = 800;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate(net, cfg, 4e-11));
  state.SetLabel(std::to_string(net.node_count()) + " nodes");
}
BENCHMARK(BM_GoldenTransient)->Arg(16)->Arg(40)->Arg(80)->Arg(160);

void BM_MomentsMna(benchmark::State& state) {
  const rcnet::RcNet net = make_net(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::compute_moments(net));
}
BENCHMARK(BM_MomentsMna)->Arg(16)->Arg(40)->Arg(80)->Arg(160);

/// compute_moments on a tree (loops == 0) or a net with loop resistors.
void moments_bench(benchmark::State& state, double non_tree_fraction) {
  std::mt19937_64 rng(10);
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = cfg.max_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.non_tree_fraction = non_tree_fraction;
  const rcnet::RcNet net = rcnet::generate_net(cfg, rng, "m");
  for (auto _ : state) benchmark::DoNotOptimize(sim::compute_moments(net));
  state.SetLabel(std::to_string(net.resistors.size() + 1 - net.node_count()) +
                 " loops");
}
void BM_MomentsTree(benchmark::State& state) { moments_bench(state, 0.0); }
void BM_MomentsLoop(benchmark::State& state) { moments_bench(state, 1.0); }
BENCHMARK(BM_MomentsTree)->Arg(16)->Arg(40)->Arg(80)->Arg(160)->Arg(300);
BENCHMARK(BM_MomentsLoop)->Arg(16)->Arg(40)->Arg(80)->Arg(160)->Arg(300);

/// Elmore delay of a tree net: compute_moments' m1 is the tree path tracing.
void BM_ElmoreTree(benchmark::State& state) {
  std::mt19937_64 rng(10);
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = cfg.max_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.non_tree_fraction = 0.0;
  const rcnet::RcNet net = rcnet::generate_net(cfg, rng, "t");
  for (auto _ : state) benchmark::DoNotOptimize(sim::compute_moments(net).m1);
}
BENCHMARK(BM_ElmoreTree)->Arg(40)->Arg(160);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto lib = cell::CellLibrary::make_default();
  const rcnet::RcNet net = make_net(state.range(0));
  std::mt19937_64 rng(11);
  const features::NetContext ctx = features::random_context(lib, net, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(features::extract_features(net, ctx));
}
BENCHMARK(BM_FeatureExtraction)->Arg(40)->Arg(160);

/// The fused attention kernel alone, one head as GNNTrans runs it (dk = dv =
/// 4, global), under NoGradGuard: the inference path.
void BM_Attention(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<float> dist(-1.5f, 1.5f);
  auto random = [&] {
    tensor::Tensor t(n, 4);
    for (float& v : t.values()) v = dist(rng);
    return t;
  };
  const tensor::Tensor q = random(), k = random(), v = random();
  tensor::NoGradGuard guard;
  for (auto _ : state) benchmark::DoNotOptimize(tensor::attention(q, k, v, 0.5f, {}));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Attention)->Arg(16)->Arg(40)->Arg(160)->Arg(300);

/// Softmax-range inputs, [-87, 0], for the exp benchmarks.
std::vector<float> exp_inputs() {
  std::vector<float> x(4096);
  std::mt19937_64 rng(16);
  std::uniform_real_distribution<float> dist(-87.0f, 0.0f);
  for (float& v : x) v = dist(rng);
  return x;
}

void BM_ExpF32(benchmark::State& state) {
  const std::vector<float> x = exp_inputs();
  std::vector<float> y(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); i += tensor::kLanes)
      tensor::store4(y.data() + i, tensor::exp_f32(tensor::load4(x.data() + i)));
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_ExpF32);

void BM_ExpLibm(benchmark::State& state) {
  const std::vector<float> x = exp_inputs();
  std::vector<float> y(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::exp(x[i]);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_ExpLibm);

/// Shared trained estimator for the inference benchmarks (built once).
const core::WireTimingEstimator& trained_estimator() {
  static const core::WireTimingEstimator estimator = [] {
    const auto lib = cell::CellLibrary::make_default();
    features::WireDatasetConfig cfg;
    cfg.net_count = 60;
    cfg.sim_config.steps = 300;
    cfg.seed = 12;
    const auto records = features::generate_wire_records(cfg, lib);
    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 16;
    opt.model.gnn_layers = 4;
    opt.model.transformer_layers = 2;
    opt.train.epochs = 5;
    return core::WireTimingEstimator::train(records, opt);
  }();
  return estimator;
}

void BM_GnnTransInference(benchmark::State& state) {
  const auto& est = trained_estimator();
  const auto lib = cell::CellLibrary::make_default();
  const rcnet::RcNet net = make_net(state.range(0), 21);
  std::mt19937_64 rng(13);
  const features::NetContext ctx = features::random_context(lib, net, rng);
  for (auto _ : state) benchmark::DoNotOptimize(est.estimate(net, ctx));
  state.SetLabel(std::to_string(net.sinks.size()) + " paths");
}
BENCHMARK(BM_GnnTransInference)->Arg(16)->Arg(40)->Arg(80)->Arg(160);

/// The estimate cache's net-tier hit, as an ECO retime meets it: the net's
/// embedding is stored and every iteration brings a new input slew, so the
/// full key misses and only the heads run (plus validate+hash, the H rows
/// and the full-key insert). The counterpart of BM_GnnTransInference's full
/// model pass on the same nets.
void BM_GnnTransHeadsFromEmbedding(benchmark::State& state) {
  const auto& est = trained_estimator();
  const auto lib = cell::CellLibrary::make_default();
  const rcnet::RcNet net = make_net(state.range(0), 21);
  std::mt19937_64 rng(13);
  features::NetContext ctx = features::random_context(lib, net, rng);
  core::EstimateCache cache;
  std::vector<nn::Workspace> workspaces(1);
  core::BatchOptions options;
  options.cache = &cache;
  options.workspaces = &workspaces;
  const core::NetBatchItem item{&net, &ctx};
  core::InferenceStats stats;
  (void)est.estimate_batch({&item, 1}, options);  // stores the embedding
  std::size_t embedding_hits = 0;
  for (auto _ : state) {
    ctx.input_slew = std::nextafter(ctx.input_slew, 1.0);
    benchmark::DoNotOptimize(est.estimate_batch({&item, 1}, options, &stats));
    embedding_hits += stats.embedding_hits;
  }
  state.counters["embedding_hit_rate"] =
      static_cast<double>(embedding_hits) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.SetLabel(std::to_string(net.sinks.size()) + " paths");
}
BENCHMARK(BM_GnnTransHeadsFromEmbedding)->Arg(16)->Arg(40)->Arg(160);

void BM_TrainStep(benchmark::State& state) {
  // One forward+backward+step over a single net sample.
  const auto lib = cell::CellLibrary::make_default();
  features::WireDatasetConfig cfg;
  cfg.net_count = 4;
  cfg.sim_config.steps = 300;
  cfg.seed = 14;
  const auto records = features::generate_wire_records(cfg, lib);
  features::Standardizer std_;
  std_.fit(records);
  const auto samples = features::make_samples(records, std_);
  nn::ModelConfig mc;
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  mc.hidden_dim = 16;
  mc.gnn_layers = 4;
  mc.transformer_layers = 2;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  core::TrainConfig tc;
  tc.epochs = 1;
  for (auto _ : state) benchmark::DoNotOptimize(core::train_model(*model, samples, tc));
}
BENCHMARK(BM_TrainStep);

}  // namespace

BENCHMARK_MAIN();
