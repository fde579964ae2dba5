// Tests for Table I feature extraction, standardization, sample assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

#include "features/dataset.hpp"
#include "features/features.hpp"
#include "netlist/generate.hpp"
#include "nn/models.hpp"
#include "rcnet/generate.hpp"

namespace {

using namespace gnntrans;
using namespace gnntrans::features;

/// 3-node chain 0 -10Ω- 1 -20Ω- 2 with caps 1,2,3 fF, sink {2}.
rcnet::RcNet chain3() {
  rcnet::RcNet net;
  net.name = "c3";
  net.source = 0;
  net.sinks = {2};
  net.ground_cap = {1e-15, 2e-15, 3e-15};
  net.resistors = {{0, 1, 10.0}, {1, 2, 20.0}};
  return net;
}

NetContext fixed_context(const rcnet::RcNet& net) {
  NetContext ctx;
  ctx.input_slew = 40e-12;
  ctx.driver_resistance = 200.0;
  ctx.driver_strength = 2;
  ctx.driver_function = 1;
  ctx.loads.assign(net.sinks.size(), SinkLoad{4, 6, 2e-15});
  return ctx;
}

TEST(Features, NodeFeatureValuesHandChecked) {
  const rcnet::RcNet net = chain3();
  const RawFeatures rf = extract_features(net, fixed_context(net));
  ASSERT_EQ(rf.x.size(), 3 * kNodeFeatureCount);

  // Node 1: one input neighbor (node 0), one output neighbor (node 2).
  const float* n1 = rf.x.data() + 1 * kNodeFeatureCount;
  EXPECT_FLOAT_EQ(n1[kCapValue], 2.0f);          // 2 fF
  EXPECT_FLOAT_EQ(n1[kNumInputNodes], 1.0f);
  EXPECT_FLOAT_EQ(n1[kNumOutputNodes], 1.0f);
  EXPECT_FLOAT_EQ(n1[kTotInputCap], 1.0f);       // node 0's 1 fF
  EXPECT_FLOAT_EQ(n1[kTotOutputCap], 3.0f);      // node 2's 3 fF
  EXPECT_FLOAT_EQ(n1[kNumConnectedRes], 2.0f);
  EXPECT_FLOAT_EQ(n1[kTotInputRes], 0.010f);     // 10 ohm in kOhm
  EXPECT_FLOAT_EQ(n1[kTotOutputRes], 0.020f);
  // Downstream cap at node 1 = caps of {1, 2} = 5 fF.
  EXPECT_FLOAT_EQ(n1[kDownstreamCap], 5.0f);
  // Stage delay into node 1 = Elmore(1) - Elmore(0) = 10 * (2+3)fF = 50 fs.
  EXPECT_NEAR(n1[kStageDelay], 0.05f, 1e-5f);
}

TEST(Features, NodeFeatureCountMatchesTableOne) {
  // Table I lists exactly ten node rows; driver context must NOT leak into
  // node features (it is path-only information in the paper). Path features
  // are Table I's eight plus the two-moment impulse-spread slew metric.
  EXPECT_EQ(kNodeFeatureCount, 10u);
  EXPECT_EQ(kPathFeatureCount, 9u);
}

TEST(Features, PathFeatureValuesHandChecked) {
  const rcnet::RcNet net = chain3();
  const RawFeatures rf = extract_features(net, fixed_context(net));
  ASSERT_EQ(rf.h.size(), kPathFeatureCount);
  const float* h = rf.h.data();
  EXPECT_FLOAT_EQ(h[kInputSlew], 40.0f);
  EXPECT_FLOAT_EQ(h[kDriveStrength], 2.0f);
  EXPECT_FLOAT_EQ(h[kDriveFunction], 1.0f);
  EXPECT_FLOAT_EQ(h[kLoadStrength], 4.0f);
  EXPECT_FLOAT_EQ(h[kLoadFunction], 6.0f);
  EXPECT_FLOAT_EQ(h[kLoadCeff], 2.0f);
  // Elmore at sink: 10*(2+3)fF + 20*3fF = 50 + 60 = 110 fs = 0.11 ps.
  EXPECT_NEAR(h[kElmoreDelay], 0.11f, 1e-5f);
  EXPECT_GT(h[kD2mDelay], 0.0f);
  EXPECT_LE(h[kD2mDelay], h[kElmoreDelay] * 1.001f);
}

TEST(Features, MisalignedLoadsThrow) {
  const rcnet::RcNet net = chain3();
  NetContext ctx = fixed_context(net);
  ctx.loads.clear();
  EXPECT_THROW(extract_features(net, ctx), std::invalid_argument);
}

// The net-embedding cache keeps only the net-only H columns per net and
// rebuilds the rest per context: the rebuild must be bitwise the H that
// extract_features writes for that net under that context.
TEST(Features, PathFeaturesRebuildExtractedHBitwise) {
  const auto lib = cell::CellLibrary::make_default();
  std::mt19937_64 rng(5);
  rcnet::NetGenConfig cfg;
  cfg.non_tree_fraction = 0.5;
  int checked = 0;
  for (int i = 0; i < 8; ++i) {
    const rcnet::RcNet net = rcnet::generate_net(cfg, rng, "h" + std::to_string(i));
    if (!net.validate().empty()) continue;
    const NetContext first = random_context(lib, net, rng);
    const NetContext second = random_context(lib, net, rng);
    const std::vector<float> columns =
        net_path_columns(extract_features(net, first).h);
    ASSERT_EQ(columns.size(), net.sinks.size() * kNetPathColumnCount);
    for (const NetContext* ctx : {&first, &second}) {
      const std::vector<float> want = extract_features(net, *ctx).h;
      const std::vector<float> got = path_features(*ctx, columns);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
          << net.name;
    }
    ++checked;
  }
  EXPECT_GT(checked, 4);
}

TEST(Features, RandomContextCoversLoads) {
  const auto lib = cell::CellLibrary::make_default();
  std::mt19937_64 rng(3);
  rcnet::NetGenConfig cfg;
  const rcnet::RcNet net = rcnet::generate_net(cfg, rng, "n");
  const NetContext ctx = random_context(lib, net, rng);
  EXPECT_EQ(ctx.loads.size(), net.sinks.size());
  EXPECT_GT(ctx.input_slew, 0.0);
  EXPECT_GT(ctx.driver_resistance, 0.0);
}

// ---- Records and standardizer ----

std::vector<WireRecord> small_records(std::size_t count = 30,
                                      std::uint64_t seed = 5) {
  const auto lib = cell::CellLibrary::make_default();
  WireDatasetConfig cfg;
  cfg.net_count = count;
  cfg.seed = seed;
  cfg.sim_config.steps = 300;
  return generate_wire_records(cfg, lib);
}

TEST(Dataset, GeneratesRequestedRecordCount) {
  const auto records = small_records();
  EXPECT_EQ(records.size(), 30u);
  for (const WireRecord& r : records) {
    EXPECT_EQ(r.slew_labels.size(), r.net.sinks.size());
    EXPECT_EQ(r.delay_labels.size(), r.net.sinks.size());
    for (double d : r.delay_labels) EXPECT_GT(d, 0.0);
    for (double s : r.slew_labels) EXPECT_GT(s, 0.0);
  }
}

TEST(Dataset, StandardizerNormalizesLabelSpace) {
  const auto records = small_records();
  Standardizer std_;
  std_.fit(records);
  // Round trip.
  EXPECT_NEAR(std_.unstandardize_slew(std_.standardize_slew(3e-11)), 3e-11, 1e-20);
  EXPECT_NEAR(std_.unstandardize_delay(std_.standardize_delay(7e-12)), 7e-12, 1e-20);

  // Standardized labels over the fit set have ~zero mean, ~unit variance.
  double sum = 0.0, sq = 0.0;
  std::size_t n = 0;
  for (const WireRecord& r : records)
    for (double d : r.delay_labels) {
      const double z = std_.standardize_delay(d);
      sum += z;
      sq += z * z;
      ++n;
    }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 1e-6);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(Dataset, MakeSampleBuildsConsistentOperators) {
  const auto records = small_records(10, 7);
  Standardizer std_;
  std_.fit(records);
  for (const WireRecord& rec : records) {
    const nn::GraphSample s = std_.make_sample(rec);
    EXPECT_EQ(s.node_count, rec.net.node_count());
    EXPECT_EQ(s.path_count, rec.net.sinks.size());
    EXPECT_EQ(s.x.rows(), s.node_count);
    EXPECT_EQ(s.x.cols(), kNodeFeatureCount);
    EXPECT_EQ(s.h.rows(), s.path_count);
    EXPECT_EQ(s.attn_mask.size(), s.node_count * s.node_count);
    EXPECT_EQ(s.non_tree, !rec.net.is_tree());

    // Pooling rows sum to 1 (mean over path nodes).
    std::vector<double> row_sum(s.path_count, 0.0);
    for (std::size_t k = 0; k < s.path_pool.nnz(); ++k)
      row_sum[s.path_pool.row_index[k]] += s.path_pool.values[k];
    for (double v : row_sum) EXPECT_NEAR(v, 1.0, 1e-5);

    // Weighted adjacency rows sum to 1 after normalization.
    std::vector<double> adj_sum(s.node_count, 0.0);
    for (std::size_t k = 0; k < s.weighted_adj.nnz(); ++k)
      adj_sum[s.weighted_adj.row_index[k]] += s.weighted_adj.values[k];
    for (double v : adj_sum) EXPECT_NEAR(v, 1.0, 1e-4);

    // Attention mask has self loops.
    for (std::size_t v = 0; v < s.node_count; ++v)
      EXPECT_EQ(s.attn_mask[v * s.node_count + v], 1);
  }
}

TEST(Dataset, MakeSampleWithoutFitThrows) {
  const auto records = small_records(2, 9);
  const Standardizer unfitted;
  EXPECT_THROW(unfitted.make_sample(records.front()), std::logic_error);
}

TEST(Dataset, StandardizerSaveLoadRoundTrip) {
  const auto records = small_records(12, 11);
  Standardizer a;
  a.fit(records);
  std::stringstream buf;
  a.save(buf);
  Standardizer b;
  b.load(buf);
  EXPECT_DOUBLE_EQ(a.standardize_slew(5e-11), b.standardize_slew(5e-11));
  EXPECT_DOUBLE_EQ(a.standardize_delay(5e-12), b.standardize_delay(5e-12));
  // Feature standardization matches too.
  const nn::GraphSample sa = a.make_sample(records.front());
  const nn::GraphSample sb = b.make_sample(records.front());
  for (std::size_t i = 0; i < sa.x.size(); ++i)
    EXPECT_FLOAT_EQ(sa.x.values()[i], sb.x.values()[i]);
}

TEST(Dataset, RecordsFromDesignCoverEveryNet) {
  const auto lib = cell::CellLibrary::make_default();
  netlist::DesignGenConfig cfg;
  cfg.startpoints = 4;
  cfg.levels = 3;
  cfg.cells_per_level = 6;
  cfg.seed = 13;
  const netlist::Design design = netlist::generate_design(cfg, lib, "d");
  sim::TransientConfig tc;
  tc.steps = 300;
  sim::GoldenTimer timer(tc);
  const auto records = records_from_design(design, lib, timer);
  EXPECT_EQ(records.size(), design.net_count());
  for (const WireRecord& r : records)
    EXPECT_EQ(r.context.loads.size(), r.net.sinks.size());
}

TEST(Dataset, DeterministicGeneration) {
  const auto a = small_records(8, 21);
  const auto b = small_records(8, 21);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].delay_labels.size(), b[i].delay_labels.size());
    for (std::size_t q = 0; q < a[i].delay_labels.size(); ++q)
      EXPECT_DOUBLE_EQ(a[i].delay_labels[q], b[i].delay_labels[q]);
  }
}

// ---- Demand-driven graph operators ----

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(), a.size() * sizeof(float)) == 0;
}

TEST(Operators, DemandBuiltSamplesGiveBitwiseEqualOutputs) {
  const auto records = small_records(10, 23);
  Standardizer full;
  full.fit(records);
  ASSERT_EQ(full.operators(), nn::kAllOperators);
  std::size_t non_tree = 0;
  for (const WireRecord& rec : records) non_tree += rec.non_tree ? 1 : 0;
  ASSERT_GT(non_tree, 0u);

  for (const nn::ModelKind kind :
       {nn::ModelKind::kGnnTrans, nn::ModelKind::kGraphSage, nn::ModelKind::kGcnii,
        nn::ModelKind::kGat, nn::ModelKind::kGraphTransformer}) {
    for (unsigned flags = 0; flags < 16; ++flags) {
      nn::ModelConfig mc;
      mc.node_feature_dim = kNodeFeatureCount;
      mc.path_feature_dim = kPathFeatureCount;
      mc.hidden_dim = 8;
      mc.gnn_layers = 2;
      mc.transformer_layers = 1;
      mc.heads = 2;
      mc.mlp_hidden = 8;
      mc.use_edge_weights = (flags & 1u) != 0;
      mc.global_attention = (flags & 2u) != 0;
      mc.use_path_features = (flags & 4u) != 0;
      mc.cascade_delay_head = (flags & 8u) != 0;
      const auto model = nn::make_model(kind, mc);
      Standardizer demand = full;
      demand.set_operators(model->operators());
      for (const WireRecord& rec : records) {
        const nn::GraphSample a = full.make_sample(rec);
        const nn::GraphSample b = demand.make_sample(rec);
        // Operators the model does not declare are not built.
        EXPECT_EQ(b.attn_mask.empty(), (model->operators() & nn::kAttnMask) == 0);
        EXPECT_EQ(b.mean_adj.rows == 0, (model->operators() & nn::kMeanAdj) == 0);
        const nn::WirePrediction pa = model->forward(a);
        const nn::WirePrediction pb = model->forward(b);
        EXPECT_TRUE(same_bits(pa.slew, pb.slew) && same_bits(pa.delay, pb.delay))
            << model->name() << " flags " << flags << " net " << rec.net.name;
      }
    }
  }
}

TEST(Operators, DefaultGnnTransSkipsUnreadOperators) {
  nn::ModelConfig mc;
  mc.node_feature_dim = kNodeFeatureCount;
  mc.path_feature_dim = kPathFeatureCount;
  EXPECT_EQ(nn::make_model(nn::ModelKind::kGnnTrans, mc)->operators(),
            nn::kWeightedAdj | nn::kPathPool);
}

TEST(Operators, ModelRejectsSampleMissingItsOperators) {
  const auto records = small_records(2, 25);
  Standardizer std_;
  std_.fit(records);
  nn::ModelConfig mc;
  mc.node_feature_dim = kNodeFeatureCount;
  mc.path_feature_dim = kPathFeatureCount;
  mc.hidden_dim = 4;
  const auto gnntrans = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  std_.set_operators(gnntrans->operators());
  const nn::GraphSample sample = std_.make_sample(records.front());
  // A neighbor-masked model must not read the missing mask as "global".
  mc.global_attention = false;
  const auto masked = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  EXPECT_THROW((void)masked->forward(sample), std::invalid_argument);
  EXPECT_THROW((void)nn::make_model(nn::ModelKind::kGraphSage, mc)->forward(sample),
               std::invalid_argument);
  EXPECT_NO_THROW((void)gnntrans->forward(sample));
}

}  // namespace
