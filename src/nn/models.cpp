#include "nn/models.hpp"

#include <stdexcept>

#include "core/telemetry/trace.hpp"
#include "nn/guard.hpp"
#include "tensor/serialize.hpp"

namespace gnntrans::nn {

using tensor::Tensor;

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGnnTrans: return "GNNTrans";
    case ModelKind::kGraphSage: return "GraphSage";
    case ModelKind::kGcnii: return "GCNII";
    case ModelKind::kGat: return "GAT";
    case ModelKind::kGraphTransformer: return "GraphTransformer";
  }
  return "unknown";
}

std::size_t WireModel::parameter_count() const {
  std::size_t total = 0;
  for (const Tensor& p : parameters()) total += p.size();
  return total;
}

OperatorSet WireModel::operators() const {
  switch (kind()) {
    case ModelKind::kGnnTrans:
      return (config_.use_edge_weights ? kWeightedAdj : kMeanAdj) |
             (config_.global_attention ? 0u : kAttnMask) | kPathPool;
    case ModelKind::kGraphSage: return kMeanAdj | kPathPool;
    case ModelKind::kGcnii: return kGcniiAdj | kPathPool;
    case ModelKind::kGat:
    case ModelKind::kGraphTransformer: return kAttnMask | kPathPool;
  }
  return kAllOperators;
}

WirePrediction WireModel::forward(const GraphSample& sample,
                                  Workspace* workspace) const {
  return predict(embed(sample, workspace), sample.h, workspace);
}

tensor::Tensor WireModel::embed(const GraphSample& sample,
                                Workspace* workspace) const {
  const OperatorSet need = operators();
  const std::size_t n = sample.node_count;
  auto square = [n](const tensor::GraphMatrix& m) { return m.rows == n && m.cols == n; };
  const char* missing = nullptr;
  if ((need & kWeightedAdj) && !square(sample.weighted_adj)) missing = "weighted_adj";
  if ((need & kMeanAdj) && !square(sample.mean_adj)) missing = "mean_adj";
  if ((need & kGcniiAdj) && !square(sample.gcnii_adj)) missing = "gcnii_adj";
  if ((need & kAttnMask) && sample.attn_mask.size() != n * n) missing = "attn_mask";
  if ((need & kPathPool) && (sample.path_pool.rows != sample.path_count ||
                             sample.path_pool.cols != n))
    missing = "path_pool";
  if (missing)
    throw std::invalid_argument(name() + ": sample '" + sample.net_name +
                                "' was built without " + missing);

  if (!workspace) return run_embed(sample);
  const tensor::ScratchArena::Scope scope(workspace->arena);
  return run_embed(sample);
}

WirePrediction WireModel::predict(const tensor::Tensor& pooled,
                                  const tensor::Tensor& h,
                                  Workspace* workspace) const {
  WirePrediction pred;
  if (!workspace) {
    pred = run_predict(pooled, h);
  } else {
    const tensor::ScratchArena::Scope scope(workspace->arena);
    pred = run_predict(pooled, h);
  }
  // Final boundary guard for every architecture: predictions are [P,1], so
  // this scan is negligible next to the forward pass it protects.
  guard_finite(pred.slew, "slew_head");
  guard_finite(pred.delay, "delay_head");
  return pred;
}

namespace {

/// Shared slew/delay MLP heads (paper Eq. 5-6).
class PredictionHeads {
 public:
  PredictionHeads() = default;
  PredictionHeads(std::size_t repr_dim, std::size_t mlp_hidden, bool cascade,
                  std::mt19937_64& rng)
      : cascade_(cascade),
        slew_head_({repr_dim, mlp_hidden, mlp_hidden, 1}, rng),
        delay_head_({repr_dim + (cascade ? 1u : 0u), mlp_hidden, mlp_hidden, 1},
                    rng) {}

  [[nodiscard]] WirePrediction predict(const Tensor& repr) const {
    WirePrediction pred;
    pred.slew = slew_head_.forward(repr);  // Eq. (5)
    const Tensor delay_in =
        cascade_ ? tensor::concat_cols({repr, pred.slew}) : repr;
    pred.delay = delay_head_.forward(delay_in);  // Eq. (6)
    return pred;
  }

  void collect_parameters(std::vector<Tensor>& out) const {
    slew_head_.collect_parameters(out);
    delay_head_.collect_parameters(out);
  }
  void save(std::ostream& out) const {
    slew_head_.save(out);
    delay_head_.save(out);
  }
  void load(std::istream& in) {
    slew_head_.load(in);
    delay_head_.load(in);
  }

 private:
  bool cascade_ = true;
  Mlp slew_head_;
  Mlp delay_head_;
};

/// The paper's architecture (Fig. 4): L1 weighted-Sage GNN layers, L2 global
/// self-attention layers, path pooling with raw path features, MLP heads.
class GnnTransModel final : public WireModel {
 public:
  explicit GnnTransModel(const ModelConfig& config) : WireModel(config) {
    std::mt19937_64 rng(config.seed);
    gnn_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l)
      gnn_.emplace_back(l == 0 ? config.node_feature_dim : config.hidden_dim,
                        config.hidden_dim, rng);
    attention_.reserve(config.transformer_layers);
    for (std::size_t l = 0; l < config.transformer_layers; ++l)
      attention_.emplace_back(config.hidden_dim, config.heads, rng);
    const std::size_t repr_dim =
        config.hidden_dim +
        (config.use_path_features ? config.path_feature_dim : 0u);
    heads_ = PredictionHeads(repr_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] Tensor run_embed(const GraphSample& sample) const override {
    const tensor::GraphMatrix& agg =
        config_.use_edge_weights ? sample.weighted_adj : sample.mean_adj;
    Tensor x = sample.x;
    guard_finite(x, "input");
    {
      const telemetry::TraceSpan span("gnn_forward", "model");
      for (const SageConv& layer : gnn_) x = layer.forward(x, agg);  // Eq. (1)
      guard_finite(x, "gnn_forward");
    }
    static const std::vector<std::uint8_t> kNoMask;
    {
      const telemetry::TraceSpan span("attention", "model");
      for (const SelfAttentionLayer& layer : attention_)
        x = layer.forward(x,
                          config_.global_attention ? kNoMask : sample.attn_mask);
      guard_finite(x, "attention");
    }
    return tensor::spmm(sample.path_pool, x);  // Eq. (4) mean part
  }

  [[nodiscard]] WirePrediction run_predict(const Tensor& pooled,
                                           const Tensor& h) const override {
    const telemetry::TraceSpan span("heads", "model");
    if (!config_.use_path_features) return heads_.predict(pooled);
    return heads_.predict(tensor::concat_cols({pooled, h}));  // Eq. (4) concat
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    for (const SageConv& l : gnn_) l.collect_parameters(out);
    for (const SelfAttentionLayer& l : attention_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGnnTrans; }

  void save_parameters(std::ostream& out) const override {
    for (const SageConv& l : gnn_) l.save(out);
    for (const SelfAttentionLayer& l : attention_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    for (SageConv& l : gnn_) l.load(in);
    for (SelfAttentionLayer& l : attention_) l.load(in);
    heads_.load(in);
  }

 private:
  std::vector<SageConv> gnn_;
  std::vector<SelfAttentionLayer> attention_;
  PredictionHeads heads_;
};

/// The four baselines mean-pool node representations into the heads and
/// never read the path features H (the paper's experimental setup).
class BaselineModel : public WireModel {
 protected:
  using WireModel::WireModel;

  [[nodiscard]] WirePrediction run_predict(const Tensor& pooled,
                                           const Tensor& /*h*/) const final {
    return heads_.predict(pooled);
  }

  PredictionHeads heads_;
};

/// GraphSage baseline: mean aggregation, depth L, mean pooling (no H).
class GraphSageModel final : public BaselineModel {
 public:
  explicit GraphSageModel(const ModelConfig& config) : BaselineModel(config) {
    std::mt19937_64 rng(config.seed);
    layers_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l)
      layers_.emplace_back(l == 0 ? config.node_feature_dim : config.hidden_dim,
                           config.hidden_dim, rng);
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] Tensor run_embed(const GraphSample& sample) const override {
    Tensor x = sample.x;
    for (const SageConv& layer : layers_) x = layer.forward(x, sample.mean_adj);
    return tensor::spmm(sample.path_pool, x);
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    for (const SageConv& l : layers_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGraphSage; }

  void save_parameters(std::ostream& out) const override {
    for (const SageConv& l : layers_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    for (SageConv& l : layers_) l.load(in);
    heads_.load(in);
  }

 private:
  std::vector<SageConv> layers_;
};

/// GCNII baseline: residual + identity mapping to fight over-smoothing.
class GcniiModel final : public BaselineModel {
 public:
  explicit GcniiModel(const ModelConfig& config) : BaselineModel(config) {
    std::mt19937_64 rng(config.seed);
    input_ = Linear(config.node_feature_dim, config.hidden_dim, rng);
    layers_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l) {
      // beta_l = lambda / l with lambda = 0.5 (paper [17]'s recommended decay).
      const float beta = 0.5f / static_cast<float>(l + 1);
      layers_.emplace_back(config.hidden_dim, /*alpha=*/0.1f, beta, rng);
    }
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] Tensor run_embed(const GraphSample& sample) const override {
    const Tensor x0 = tensor::relu(input_.forward(sample.x));
    Tensor x = x0;
    for (const GcniiLayer& layer : layers_)
      x = layer.forward(x, x0, sample.gcnii_adj);
    return tensor::spmm(sample.path_pool, x);
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    input_.collect_parameters(out);
    for (const GcniiLayer& l : layers_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGcnii; }

  void save_parameters(std::ostream& out) const override {
    input_.save(out);
    for (const GcniiLayer& l : layers_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    input_.load(in);
    for (GcniiLayer& l : layers_) l.load(in);
    heads_.load(in);
  }

 private:
  Linear input_;
  std::vector<GcniiLayer> layers_;
};

/// GAT baseline: multi-head additive attention over neighbors.
class GatModel final : public BaselineModel {
 public:
  explicit GatModel(const ModelConfig& config) : BaselineModel(config) {
    std::mt19937_64 rng(config.seed);
    layers_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l)
      layers_.emplace_back(l == 0 ? config.node_feature_dim : config.hidden_dim,
                           config.hidden_dim, config.heads, rng);
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] Tensor run_embed(const GraphSample& sample) const override {
    Tensor x = sample.x;
    for (const GatLayer& layer : layers_) x = layer.forward(x, sample.attn_mask);
    return tensor::spmm(sample.path_pool, x);
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    for (const GatLayer& l : layers_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGat; }

  void save_parameters(std::ostream& out) const override {
    for (const GatLayer& l : layers_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    for (GatLayer& l : layers_) l.load(in);
    heads_.load(in);
  }

 private:
  std::vector<GatLayer> layers_;
};

/// Graph transformer baseline [19]: neighbor-masked attention + feed-forward.
class GraphTransformerModel final : public BaselineModel {
 public:
  explicit GraphTransformerModel(const ModelConfig& config) : BaselineModel(config) {
    std::mt19937_64 rng(config.seed);
    input_ = Linear(config.node_feature_dim, config.hidden_dim, rng);
    attention_.reserve(config.gnn_layers);
    ffn_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l) {
      attention_.emplace_back(config.hidden_dim, config.heads, rng);
      ffn_.emplace_back(config.hidden_dim, config.hidden_dim * 2, rng);
    }
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] Tensor run_embed(const GraphSample& sample) const override {
    Tensor x = tensor::relu(input_.forward(sample.x));
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      x = attention_[l].forward(x, sample.attn_mask);
      x = ffn_[l].forward(x);
    }
    return tensor::spmm(sample.path_pool, x);
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    input_.collect_parameters(out);
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      attention_[l].collect_parameters(out);
      ffn_[l].collect_parameters(out);
    }
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override {
    return ModelKind::kGraphTransformer;
  }

  void save_parameters(std::ostream& out) const override {
    input_.save(out);
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      attention_[l].save(out);
      ffn_[l].save(out);
    }
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    input_.load(in);
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      attention_[l].load(in);
      ffn_[l].load(in);
    }
    heads_.load(in);
  }

 private:
  Linear input_;
  std::vector<SelfAttentionLayer> attention_;
  std::vector<FeedForward> ffn_;
};

constexpr char kModelMagic[] = "GNNTRANS_MODEL";
constexpr std::uint32_t kModelVersion = 1;

}  // namespace

std::unique_ptr<WireModel> make_model(ModelKind kind, const ModelConfig& config) {
  if (config.node_feature_dim == 0)
    throw std::invalid_argument("make_model: node_feature_dim required");
  switch (kind) {
    case ModelKind::kGnnTrans:
      if (config.use_path_features && config.path_feature_dim == 0)
        throw std::invalid_argument("make_model: GNNTrans needs path_feature_dim");
      return std::make_unique<GnnTransModel>(config);
    case ModelKind::kGraphSage: return std::make_unique<GraphSageModel>(config);
    case ModelKind::kGcnii: return std::make_unique<GcniiModel>(config);
    case ModelKind::kGat: return std::make_unique<GatModel>(config);
    case ModelKind::kGraphTransformer:
      return std::make_unique<GraphTransformerModel>(config);
  }
  throw std::invalid_argument("make_model: unknown kind");
}

void save_model(std::ostream& out, const WireModel& model) {
  tensor::write_header(out, kModelMagic, kModelVersion);
  tensor::write_u32(out, static_cast<std::uint32_t>(model.kind()));
  const ModelConfig& c = model.config();
  for (std::size_t v : {c.node_feature_dim, c.path_feature_dim, c.hidden_dim,
                        c.gnn_layers, c.transformer_layers, c.heads, c.mlp_hidden})
    tensor::write_u32(out, static_cast<std::uint32_t>(v));
  tensor::write_u32(out, static_cast<std::uint32_t>(c.seed));
  std::uint32_t flags = 0;
  if (c.use_edge_weights) flags |= 1u;
  if (c.global_attention) flags |= 2u;
  if (c.use_path_features) flags |= 4u;
  if (c.cascade_delay_head) flags |= 8u;
  tensor::write_u32(out, flags);
  model.save_parameters(out);
}

std::unique_ptr<WireModel> load_model(std::istream& in) {
  tensor::check_header(in, kModelMagic, kModelVersion);
  const auto kind = static_cast<ModelKind>(tensor::read_u32(in));
  ModelConfig c;
  c.node_feature_dim = tensor::read_u32(in);
  c.path_feature_dim = tensor::read_u32(in);
  c.hidden_dim = tensor::read_u32(in);
  c.gnn_layers = tensor::read_u32(in);
  c.transformer_layers = tensor::read_u32(in);
  c.heads = tensor::read_u32(in);
  c.mlp_hidden = tensor::read_u32(in);
  c.seed = tensor::read_u32(in);
  const std::uint32_t flags = tensor::read_u32(in);
  c.use_edge_weights = (flags & 1u) != 0;
  c.global_attention = (flags & 2u) != 0;
  c.use_path_features = (flags & 4u) != 0;
  c.cascade_delay_head = (flags & 8u) != 0;

  std::unique_ptr<WireModel> model = make_model(kind, c);
  model->load_parameters(in);
  return model;
}

}  // namespace gnntrans::nn
