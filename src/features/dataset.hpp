/// \file dataset.hpp
/// Training/evaluation records, feature & label standardization, and
/// conversion to model-ready GraphSamples.
///
/// Pipeline: generate nets -> time them with the golden timer (labels) ->
/// extract Table I features -> fit a Standardizer on the *training* records ->
/// standardize every record into GraphSamples. The standardizer travels with
/// the trained model (it is serialized into estimator checkpoints) so
/// inference on unseen designs applies identical scaling.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "cell/library.hpp"
#include "features/features.hpp"
#include "netlist/design.hpp"
#include "nn/graph_sample.hpp"
#include "rcnet/generate.hpp"
#include "sim/golden.hpp"

namespace gnntrans::features {

/// One labeled net: everything needed to build a GraphSample.
struct WireRecord {
  rcnet::RcNet net;
  NetContext context;
  RawFeatures raw;
  std::vector<double> slew_labels;   ///< seconds, per path (sink order)
  std::vector<double> delay_labels;  ///< seconds, per path
  bool non_tree = false;
};

/// Times \p net with the golden timer and extracts features.
[[nodiscard]] WireRecord make_record(rcnet::RcNet net, NetContext context,
                                     sim::GoldenTimer& timer);

/// Column-wise z-score statistics for features and labels.
class Standardizer {
 public:
  /// Fits means/stds over the given (training) records. Degenerate columns
  /// (zero variance) get std 1 so they pass through unchanged.
  void fit(const std::vector<WireRecord>& records);

  /// Builds the standardized GraphSample of one record (fit() must have run),
  /// with the graph operators in operators() and no others.
  [[nodiscard]] nn::GraphSample make_sample(const WireRecord& record) const;

  /// Standardizes raw path features ([rows x kPathFeatureCount], row-major,
  /// as RawFeatures::h) into the H tensor make_sample puts in a sample, with
  /// the same arithmetic (fit() must have run).
  [[nodiscard]] tensor::Tensor standardize_path_features(std::vector<float> h) const;

  /// The graph operators make_sample builds: all of them by default.
  /// WireTimingEstimator narrows this to what its model reads
  /// (nn::WireModel::operators()). Not serialized.
  [[nodiscard]] nn::OperatorSet operators() const noexcept { return operators_; }
  void set_operators(nn::OperatorSet operators) noexcept { operators_ = operators; }

  /// Label space conversions (seconds <-> standardized units).
  [[nodiscard]] double standardize_slew(double seconds) const noexcept;
  [[nodiscard]] double standardize_delay(double seconds) const noexcept;
  [[nodiscard]] double unstandardize_slew(double z) const noexcept;
  [[nodiscard]] double unstandardize_delay(double z) const noexcept;

  void save(std::ostream& out) const;
  void load(std::istream& in);

  [[nodiscard]] bool fitted() const noexcept { return !x_mean_.empty(); }

 private:
  std::vector<double> x_mean_, x_std_;
  std::vector<double> h_mean_, h_std_;
  double slew_mean_ = 0.0, slew_std_ = 1.0;
  double delay_mean_ = 0.0, delay_std_ = 1.0;
  nn::OperatorSet operators_ = nn::kAllOperators;
};

/// Configuration of a standalone-net dataset (Tables III/IV protocol).
struct WireDatasetConfig {
  std::size_t net_count = 200;
  rcnet::NetGenConfig net_config;
  sim::TransientConfig sim_config;
  std::uint64_t seed = 1;
};

/// Generates nets, draws random contexts, and labels them with the golden
/// timer. Labels whose sinks did not settle are dropped with the whole record.
[[nodiscard]] std::vector<WireRecord> generate_wire_records(
    const WireDatasetConfig& config, const cell::CellLibrary& library);

/// Builds records for every net of a design, deriving each net's context from
/// its actual driver/load cells. When \p sta_slew (per-instance driver output
/// slew from a prior STA pass, e.g. StaResult::slew) is provided, each net is
/// timed under its true propagated input slew — matching how the estimator is
/// later deployed inside STA; otherwise the driver's NLDM output slew under a
/// nominal input transition is used.
[[nodiscard]] std::vector<WireRecord> records_from_design(
    const netlist::Design& design, const cell::CellLibrary& library,
    sim::GoldenTimer& timer, const std::vector<double>* sta_slew = nullptr);

/// Standardizes a batch of records into samples.
[[nodiscard]] std::vector<nn::GraphSample> make_samples(
    const std::vector<WireRecord>& records, const Standardizer& standardizer);

}  // namespace gnntrans::features
