/// \file models.hpp
/// The wire timing model zoo: GNNTrans (the paper's contribution) plus the
/// four graph-learning baselines it is compared against in Tables III-V.
///
/// All models share the same contract: consume a GraphSample, emit
/// standardized per-path slew and delay ([P,1] each). GNNTrans additionally
/// consumes the path feature matrix H in its pooling module (Eq. 4); the
/// baselines mean-pool node representations only, exactly as the paper's
/// experimental setup describes. Every model splits at the heads: embed()
/// depends on the net alone, predict() adds H, the only context input.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/graph_sample.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace gnntrans::nn {

/// Which architecture a model instance implements.
enum class ModelKind : std::uint32_t {
  kGnnTrans = 0,
  kGraphSage = 1,
  kGcnii = 2,
  kGat = 3,
  kGraphTransformer = 4,
};

/// Returns the canonical display name ("GNNTrans", "GraphSage", ...).
[[nodiscard]] std::string to_string(ModelKind kind);

/// Hyperparameters shared by the zoo. For GNNTrans, gnn_layers is the paper's
/// L1 and transformer_layers is L2; baselines use gnn_layers as their total
/// depth L (the paper fixes L = 20 for all baselines).
struct ModelConfig {
  std::size_t node_feature_dim = 0;   ///< dx (required)
  std::size_t path_feature_dim = 0;   ///< dh (required for GNNTrans)
  std::size_t hidden_dim = 16;
  std::size_t gnn_layers = 4;
  std::size_t transformer_layers = 2;
  std::size_t heads = 4;
  std::size_t mlp_hidden = 32;
  std::uint64_t seed = 1;

  // Ablation switches (GNNTrans only; defaults reproduce the paper).
  bool use_edge_weights = true;    ///< Eq. (1) resistance weights vs mean agg
  bool global_attention = true;    ///< Eq. (2-3) global vs neighbor-masked
  bool use_path_features = true;   ///< Eq. (4) concat h_q vs mean-pool only
  bool cascade_delay_head = true;  ///< Eq. (6) delay head sees predicted slew
};

/// Abstract wire timing model.
class WireModel {
 public:
  virtual ~WireModel() = default;

  /// Predicts standardized slew/delay for every path of \p sample. When
  /// \p workspace is non-null, intermediate activations are drawn from its
  /// scratch arena and recycled across calls instead of hitting the heap —
  /// numerics are identical either way. The workspace must not be shared by
  /// concurrent callers; use one per thread.
  ///
  /// Exactly predict(embed(sample), sample.h): the one forward code path.
  [[nodiscard]] WirePrediction forward(const GraphSample& sample,
                                       Workspace* workspace = nullptr) const;

  /// The net half of the forward pass: the pooled [P, hidden] path
  /// representation. It reads only the node features and graph operators,
  /// never the path features H (the timing context), so it can be reused
  /// across every context the same net is timed under.
  [[nodiscard]] tensor::Tensor embed(const GraphSample& sample,
                                     Workspace* workspace = nullptr) const;

  /// The context half: the heads over \p pooled (an embed() output), with
  /// the standardized path features \p h concatenated first where the
  /// architecture reads them (GNNTrans with use_path_features; the baselines
  /// ignore \p h). Both outputs pass the same finite guard as forward().
  [[nodiscard]] WirePrediction predict(const tensor::Tensor& pooled,
                                       const tensor::Tensor& h,
                                       Workspace* workspace = nullptr) const;

  /// All trainable parameters (stable order).
  [[nodiscard]] virtual std::vector<tensor::Tensor> parameters() const = 0;

  [[nodiscard]] virtual ModelKind kind() const = 0;

  /// The graph operators run_embed reads, given kind() and the ablation
  /// switches. embed(), and so forward(), throws std::invalid_argument when
  /// \p sample lacks one of them, so a sample built for another model cannot
  /// be read as an empty (for the mask: "global") operator.
  [[nodiscard]] OperatorSet operators() const;
  [[nodiscard]] std::string name() const { return to_string(kind()); }
  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }

  /// Writes/reads parameter payload (config handled by save_model/load_model).
  virtual void save_parameters(std::ostream& out) const = 0;
  virtual void load_parameters(std::istream& in) = 0;

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t parameter_count() const;

 protected:
  explicit WireModel(ModelConfig config) : config_(config) {}

  /// Architecture-specific halves of the forward pass; the allocation policy
  /// (scratch arena vs heap) and the guards are handled by the public
  /// embed()/predict() wrappers.
  [[nodiscard]] virtual tensor::Tensor run_embed(
      const GraphSample& sample) const = 0;
  [[nodiscard]] virtual WirePrediction run_predict(
      const tensor::Tensor& pooled, const tensor::Tensor& h) const = 0;

  ModelConfig config_;
};

/// Instantiates a model with freshly initialized parameters.
[[nodiscard]] std::unique_ptr<WireModel> make_model(ModelKind kind,
                                                    const ModelConfig& config);

/// Serializes kind + config + parameters.
void save_model(std::ostream& out, const WireModel& model);

/// Restores a model saved by save_model. Throws std::runtime_error on a
/// malformed stream.
[[nodiscard]] std::unique_ptr<WireModel> load_model(std::istream& in);

}  // namespace gnntrans::nn
