// Tests for the model zoo: shapes, determinism, ablation wiring, save/load.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

#include "nn/layers.hpp"
#include "nn/models.hpp"

namespace {

using namespace gnntrans;
using namespace gnntrans::nn;

/// Builds a synthetic 5-node / 2-path sample with all operators populated.
GraphSample toy_sample(std::uint64_t seed = 1, std::size_t dx = 12,
                       std::size_t dh = 8) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  const std::size_t n = 5, p = 2;

  GraphSample s;
  s.net_name = "toy";
  s.node_count = n;
  s.path_count = p;
  std::vector<float> x(n * dx), h(p * dh);
  for (float& v : x) v = dist(rng);
  for (float& v : h) v = dist(rng);
  s.x = tensor::Tensor::from_data(std::move(x), n, dx);
  s.h = tensor::Tensor::from_data(std::move(h), p, dh);

  // Chain topology 0-1-2-3-4.
  s.weighted_adj = tensor::GraphMatrix(n, n);
  s.mean_adj = tensor::GraphMatrix(n, n);
  s.gcnii_adj = tensor::GraphMatrix(n, n);
  s.attn_mask.assign(n * n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    s.attn_mask[v * n + v] = 1;
    s.gcnii_adj.add(v, v, 0.5f);
    if (v + 1 < n) {
      s.weighted_adj.add(v, v + 1, 0.5f);
      s.weighted_adj.add(v + 1, v, 0.5f);
      s.mean_adj.add(v, v + 1, 0.5f);
      s.mean_adj.add(v + 1, v, 0.5f);
      s.gcnii_adj.add(v, v + 1, 0.25f);
      s.gcnii_adj.add(v + 1, v, 0.25f);
      s.attn_mask[v * n + v + 1] = 1;
      s.attn_mask[(v + 1) * n + v] = 1;
    }
  }
  s.path_pool = tensor::GraphMatrix(p, n);
  s.path_pool.add(0, 0, 0.5f);
  s.path_pool.add(0, 1, 0.5f);
  s.path_pool.add(1, 2, 1.0f / 3);
  s.path_pool.add(1, 3, 1.0f / 3);
  s.path_pool.add(1, 4, 1.0f / 3);

  s.slew_label = tensor::Tensor::from_data({0.1f, -0.2f}, p, 1);
  s.delay_label = tensor::Tensor::from_data({0.3f, 0.4f}, p, 1);
  s.slew_seconds = {1e-11, 2e-11};
  s.delay_seconds = {3e-11, 4e-11};
  return s;
}

ModelConfig small_config() {
  ModelConfig c;
  c.node_feature_dim = 12;
  c.path_feature_dim = 8;
  c.hidden_dim = 8;
  c.gnn_layers = 2;
  c.transformer_layers = 1;
  c.heads = 2;
  c.mlp_hidden = 8;
  c.seed = 42;
  return c;
}

const ModelKind kAllKinds[] = {ModelKind::kGnnTrans, ModelKind::kGraphSage,
                               ModelKind::kGcnii, ModelKind::kGat,
                               ModelKind::kGraphTransformer};

class EveryModel : public ::testing::TestWithParam<ModelKind> {};

TEST_P(EveryModel, ForwardProducesPerPathOutputs) {
  const auto model = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction pred = model->forward(s);
  EXPECT_EQ(pred.slew.rows(), s.path_count);
  EXPECT_EQ(pred.slew.cols(), 1u);
  EXPECT_EQ(pred.delay.rows(), s.path_count);
  for (std::size_t q = 0; q < s.path_count; ++q) {
    EXPECT_TRUE(std::isfinite(pred.slew(q, 0)));
    EXPECT_TRUE(std::isfinite(pred.delay(q, 0)));
  }
}

TEST_P(EveryModel, DeterministicForSameSeed) {
  const auto a = make_model(GetParam(), small_config());
  const auto b = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction pa = a->forward(s);
  const WirePrediction pb = b->forward(s);
  for (std::size_t q = 0; q < s.path_count; ++q) {
    EXPECT_FLOAT_EQ(pa.slew(q, 0), pb.slew(q, 0));
    EXPECT_FLOAT_EQ(pa.delay(q, 0), pb.delay(q, 0));
  }
}

TEST_P(EveryModel, DifferentSeedsGiveDifferentWeights) {
  ModelConfig c2 = small_config();
  c2.seed = 1234;
  const auto a = make_model(GetParam(), small_config());
  const auto b = make_model(GetParam(), c2);
  const GraphSample s = toy_sample();
  EXPECT_NE(a->forward(s).delay(0, 0), b->forward(s).delay(0, 0));
}

TEST_P(EveryModel, ParametersAreNonEmptyAndTrainable) {
  const auto model = make_model(GetParam(), small_config());
  const auto params = model->parameters();
  EXPECT_FALSE(params.empty());
  for (const auto& p : params) EXPECT_TRUE(p.requires_grad());
  EXPECT_GT(model->parameter_count(), 100u);
}

TEST_P(EveryModel, GradientsReachAllParameters) {
  const auto model = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction pred = model->forward(s);
  tensor::Tensor loss = tensor::add(tensor::mse_loss(pred.slew, s.slew_label),
                                    tensor::mse_loss(pred.delay, s.delay_label));
  loss.backward();
  std::size_t touched = 0;
  for (const auto& p : model->parameters())
    if (!p.grad().empty()) ++touched;
  // Every parameter must be on the tape (grad allocated by backward).
  EXPECT_EQ(touched, model->parameters().size());
}

TEST_P(EveryModel, SaveLoadRoundTripPreservesForward) {
  const auto model = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction before = model->forward(s);

  std::stringstream buf;
  save_model(buf, *model);
  const auto loaded = load_model(buf);
  EXPECT_EQ(loaded->kind(), GetParam());
  const WirePrediction after = loaded->forward(s);
  for (std::size_t q = 0; q < s.path_count; ++q) {
    EXPECT_FLOAT_EQ(before.slew(q, 0), after.slew(q, 0));
    EXPECT_FLOAT_EQ(before.delay(q, 0), after.delay(q, 0));
  }
}

/// The defaults plus each GNNTrans ablation switch flipped alone (the
/// baselines ignore the switches, which the split must not care about).
std::vector<ModelConfig> ablation_configs() {
  std::vector<ModelConfig> out(5, small_config());
  out[1].use_edge_weights = false;
  out[2].global_attention = false;
  out[3].use_path_features = false;
  out[4].cascade_delay_head = false;
  return out;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(float)) == 0;
}

bool same_prediction(const WirePrediction& a, const WirePrediction& b) {
  return same_bits(a.slew, b.slew) && same_bits(a.delay, b.delay);
}

// The net-embedding cache rests on this: forward() is predict(embed(s), s.h)
// bit for bit, for every kind and ablation, on the heap and in an arena, and
// also when the embedding arrives as a detached copy (the cached form). H is
// the only context input: a model that does not read it predicts the same
// bits under any other H.
TEST_P(EveryModel, SplitAtTheHeadsIsBitwiseForward) {
  const GraphSample s = toy_sample();
  const tensor::Tensor other_h = toy_sample(7).h;
  for (const ModelConfig& config : ablation_configs()) {
    const auto model = make_model(GetParam(), config);
    const bool reads_h =
        GetParam() == ModelKind::kGnnTrans && config.use_path_features;
    const WirePrediction reference = model->forward(s);
    for (const bool use_workspace : {false, true}) {
      Workspace ws;
      Workspace* w = use_workspace ? &ws : nullptr;
      const tensor::Tensor pooled = model->embed(s, w);
      ASSERT_EQ(pooled.rows(), s.path_count);
      ASSERT_EQ(pooled.cols(), config.hidden_dim);
      const std::vector<float> copy(pooled.values().begin(),
                                    pooled.values().end());
      const tensor::Tensor detached =
          tensor::Tensor::from_data(copy, pooled.rows(), pooled.cols());
      const std::string where = std::string(use_workspace ? "arena" : "heap") +
                                ", edge_weights=" +
                                std::to_string(config.use_edge_weights) +
                                " global=" + std::to_string(config.global_attention) +
                                " path_features=" +
                                std::to_string(config.use_path_features) +
                                " cascade=" + std::to_string(config.cascade_delay_head);
      EXPECT_TRUE(same_prediction(model->forward(s, w), reference)) << where;
      EXPECT_TRUE(same_prediction(model->predict(pooled, s.h, w), reference))
          << where;
      EXPECT_TRUE(same_prediction(model->predict(detached, s.h, w), reference))
          << where;
      EXPECT_EQ(same_prediction(model->predict(detached, other_h, w), reference),
                !reads_h)
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, EveryModel, ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) { return to_string(info.param); });

TEST(ModelFactory, NamesAreCanonical) {
  EXPECT_EQ(to_string(ModelKind::kGnnTrans), "GNNTrans");
  EXPECT_EQ(to_string(ModelKind::kGcnii), "GCNII");
}

TEST(ModelFactory, RejectsMissingDims) {
  ModelConfig c;  // node_feature_dim == 0
  EXPECT_THROW(make_model(ModelKind::kGraphSage, c), std::invalid_argument);
  ModelConfig c2 = small_config();
  c2.path_feature_dim = 0;
  EXPECT_THROW(make_model(ModelKind::kGnnTrans, c2), std::invalid_argument);
}

TEST(GnnTransAblations, PathFeatureFlagChangesInputDim) {
  ModelConfig with = small_config();
  ModelConfig without = small_config();
  without.use_path_features = false;
  const auto a = make_model(ModelKind::kGnnTrans, with);
  const auto b = make_model(ModelKind::kGnnTrans, without);
  // Dropping the concat shrinks the head input, hence the parameter count.
  EXPECT_GT(a->parameter_count(), b->parameter_count());
  // Both still run.
  const GraphSample s = toy_sample();
  (void)b->forward(s);
}

TEST(GnnTransAblations, EdgeWeightFlagSwitchesAggregator) {
  GraphSample s = toy_sample();
  // Make the two aggregation matrices radically different so the switch shows.
  s.weighted_adj = tensor::GraphMatrix(s.node_count, s.node_count);
  s.weighted_adj.add(0, 4, 1.0f);  // long-range fake edge
  ModelConfig weighted = small_config();
  ModelConfig mean = small_config();
  mean.use_edge_weights = false;
  const auto a = make_model(ModelKind::kGnnTrans, weighted);
  const auto b = make_model(ModelKind::kGnnTrans, mean);
  // Identical seeds: any output difference comes from the aggregator choice.
  EXPECT_NE(a->forward(s).delay(0, 0), b->forward(s).delay(0, 0));
}

TEST(GnnTransAblations, GlobalVsMaskedAttentionDiffer) {
  ModelConfig global = small_config();
  ModelConfig masked = small_config();
  masked.global_attention = false;
  const auto a = make_model(ModelKind::kGnnTrans, global);
  const auto b = make_model(ModelKind::kGnnTrans, masked);
  const GraphSample s = toy_sample();
  EXPECT_NE(a->forward(s).delay(0, 0), b->forward(s).delay(0, 0));
}

TEST(GnnTransAblations, CascadeFlagChangesDelayHeadInput) {
  ModelConfig cascade = small_config();
  ModelConfig independent = small_config();
  independent.cascade_delay_head = false;
  const auto a = make_model(ModelKind::kGnnTrans, cascade);
  const auto b = make_model(ModelKind::kGnnTrans, independent);
  EXPECT_GT(a->parameter_count(), b->parameter_count());
}

TEST(SelfAttention, RejectsIndivisibleHeads) {
  std::mt19937_64 rng(1);
  EXPECT_THROW(SelfAttentionLayer(7, 2, rng), std::invalid_argument);
}

TEST(Layers, MlpRejectsTooFewDims) {
  std::mt19937_64 rng(1);
  EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
}

TEST(Layers, LayerCountsScaleParameterCount) {
  ModelConfig shallow = small_config();
  ModelConfig deep = small_config();
  deep.gnn_layers = 6;
  deep.transformer_layers = 3;
  const auto a = make_model(ModelKind::kGnnTrans, shallow);
  const auto b = make_model(ModelKind::kGnnTrans, deep);
  EXPECT_GT(b->parameter_count(), a->parameter_count());
}

}  // namespace
