#include "features/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/serialize.hpp"

namespace gnntrans::features {

using rcnet::NodeId;

WireRecord make_record(rcnet::RcNet net, NetContext context,
                       sim::GoldenTimer& timer) {
  WireRecord rec;
  rec.non_tree = !net.is_tree();
  rec.raw = extract_features(net, context);

  const sim::TransientResult timing =
      timer.time_net(net, context.input_slew, context.driver_resistance);
  rec.slew_labels.reserve(timing.sinks.size());
  rec.delay_labels.reserve(timing.sinks.size());
  for (const sim::SinkTiming& st : timing.sinks) {
    rec.slew_labels.push_back(st.slew);
    rec.delay_labels.push_back(st.delay);
  }
  rec.net = std::move(net);
  rec.context = std::move(context);
  return rec;
}

namespace {

/// Column-wise mean/std over row-major data.
void fit_columns(const std::vector<const std::vector<float>*>& rows_list,
                 std::size_t dim, std::vector<double>& mean,
                 std::vector<double>& std_dev) {
  mean.assign(dim, 0.0);
  std_dev.assign(dim, 0.0);
  std::size_t count = 0;
  for (const auto* data : rows_list) {
    const std::size_t rows = data->size() / dim;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < dim; ++c) mean[c] += (*data)[r * dim + c];
    count += rows;
  }
  if (count == 0) throw std::logic_error("Standardizer: no rows to fit");
  for (double& m : mean) m /= static_cast<double>(count);
  for (const auto* data : rows_list) {
    const std::size_t rows = data->size() / dim;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < dim; ++c) {
        const double d = (*data)[r * dim + c] - mean[c];
        std_dev[c] += d * d;
      }
  }
  for (double& s : std_dev) {
    s = std::sqrt(s / static_cast<double>(count));
    if (s < 1e-9) s = 1.0;  // constant column passes through
  }
}

void fit_scalar(const std::vector<double>& values, double& mean, double& std_dev) {
  if (values.empty()) throw std::logic_error("Standardizer: no labels to fit");
  mean = 0.0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  std_dev = 0.0;
  for (double v : values) std_dev += (v - mean) * (v - mean);
  std_dev = std::sqrt(std_dev / static_cast<double>(values.size()));
  if (std_dev < 1e-18) std_dev = 1.0;
}

}  // namespace

void Standardizer::fit(const std::vector<WireRecord>& records) {
  std::vector<const std::vector<float>*> x_list, h_list;
  std::vector<double> slews, delays;
  for (const WireRecord& rec : records) {
    x_list.push_back(&rec.raw.x);
    h_list.push_back(&rec.raw.h);
    slews.insert(slews.end(), rec.slew_labels.begin(), rec.slew_labels.end());
    delays.insert(delays.end(), rec.delay_labels.begin(), rec.delay_labels.end());
  }
  fit_columns(x_list, kNodeFeatureCount, x_mean_, x_std_);
  fit_columns(h_list, kPathFeatureCount, h_mean_, h_std_);
  fit_scalar(slews, slew_mean_, slew_std_);
  fit_scalar(delays, delay_mean_, delay_std_);
}

double Standardizer::standardize_slew(double seconds) const noexcept {
  return (seconds - slew_mean_) / slew_std_;
}
double Standardizer::standardize_delay(double seconds) const noexcept {
  return (seconds - delay_mean_) / delay_std_;
}
double Standardizer::unstandardize_slew(double z) const noexcept {
  return z * slew_std_ + slew_mean_;
}
double Standardizer::unstandardize_delay(double z) const noexcept {
  return z * delay_std_ + delay_mean_;
}

namespace {

/// Builds the aggregation operators in \p ops of a net for the model zoo.
void build_graph_operators(const rcnet::RcNet& net,
                           const sim::WireAnalysis& analysis, nn::OperatorSet ops,
                           nn::GraphSample& sample) {
  const std::size_t n = net.node_count();
  const rcnet::Adjacency adj = (ops & ~nn::kPathPool) ? rcnet::build_adjacency(net)
                                                      : rcnet::Adjacency();

  // Eq. (1): resistance-valued adjacency, row-normalized for stability.
  if (ops & nn::kWeightedAdj) {
    sample.weighted_adj = tensor::GraphMatrix(n, n);
    for (NodeId v = 0; v < n; ++v)
      for (const rcnet::Neighbor& nb : adj[v])
        sample.weighted_adj.add(
            v, nb.node, static_cast<float>(net.resistors[nb.resistor_index].ohms));
    sample.weighted_adj.row_normalize();
  }

  // GraphSage-classic: mean over neighbors.
  if (ops & nn::kMeanAdj) {
    sample.mean_adj = tensor::GraphMatrix(n, n);
    for (NodeId v = 0; v < n; ++v) {
      const float inv_deg =
          adj[v].empty() ? 0.0f : 1.0f / static_cast<float>(adj[v].size());
      for (const rcnet::Neighbor& nb : adj[v]) sample.mean_adj.add(v, nb.node, inv_deg);
    }
  }

  // GCNII: D^{-1/2} (A + I) D^{-1/2} over the binary graph with self loops.
  if (ops & nn::kGcniiAdj) {
    sample.gcnii_adj = tensor::GraphMatrix(n, n);
    std::vector<float> inv_sqrt_deg(n);
    for (NodeId v = 0; v < n; ++v)
      inv_sqrt_deg[v] = 1.0f / std::sqrt(static_cast<float>(adj[v].size() + 1));
    for (NodeId v = 0; v < n; ++v) {
      sample.gcnii_adj.add(v, v, inv_sqrt_deg[v] * inv_sqrt_deg[v]);
      for (const rcnet::Neighbor& nb : adj[v])
        sample.gcnii_adj.add(v, nb.node, inv_sqrt_deg[v] * inv_sqrt_deg[nb.node]);
    }
  }

  // Neighbor mask with self loops for masked attention.
  if (ops & nn::kAttnMask) {
    sample.attn_mask.assign(n * n, 0);
    for (NodeId v = 0; v < n; ++v) {
      sample.attn_mask[v * n + v] = 1;
      for (const rcnet::Neighbor& nb : adj[v]) sample.attn_mask[v * n + nb.node] = 1;
    }
  }

  // Eq. (4) pooling matrix: mean over each path's nodes.
  if (ops & nn::kPathPool) {
    const std::size_t p = analysis.paths.size();
    sample.path_pool = tensor::GraphMatrix(p, n);
    for (std::size_t q = 0; q < p; ++q) {
      const auto& nodes = analysis.paths[q].nodes;
      const float w = 1.0f / static_cast<float>(nodes.size());
      for (NodeId v : nodes) sample.path_pool.add(static_cast<std::uint32_t>(q), v, w);
    }
  }
}

}  // namespace

nn::GraphSample Standardizer::make_sample(const WireRecord& record) const {
  if (!fitted()) throw std::logic_error("Standardizer: fit() before make_sample()");

  nn::GraphSample sample;
  sample.net_name = record.net.name;
  sample.non_tree = record.non_tree;
  sample.node_count = record.net.node_count();
  sample.path_count = record.raw.analysis.paths.size();

  // Standardize features.
  std::vector<float> x = record.raw.x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t c = i % kNodeFeatureCount;
    x[i] = static_cast<float>((x[i] - x_mean_[c]) / x_std_[c]);
  }
  sample.x = tensor::Tensor::from_data(std::move(x), sample.node_count,
                                       kNodeFeatureCount);
  sample.h = standardize_path_features(record.raw.h);

  build_graph_operators(record.net, record.raw.analysis, operators_, sample);

  // Labels.
  std::vector<float> slew_z(sample.path_count), delay_z(sample.path_count);
  for (std::size_t q = 0; q < sample.path_count; ++q) {
    slew_z[q] = static_cast<float>(standardize_slew(record.slew_labels[q]));
    delay_z[q] = static_cast<float>(standardize_delay(record.delay_labels[q]));
  }
  sample.slew_label =
      tensor::Tensor::from_data(std::move(slew_z), sample.path_count, 1);
  sample.delay_label =
      tensor::Tensor::from_data(std::move(delay_z), sample.path_count, 1);
  sample.slew_seconds = record.slew_labels;
  sample.delay_seconds = record.delay_labels;
  return sample;
}

tensor::Tensor Standardizer::standardize_path_features(std::vector<float> h) const {
  for (std::size_t i = 0; i < h.size(); ++i) {
    const std::size_t c = i % kPathFeatureCount;
    h[i] = static_cast<float>((h[i] - h_mean_[c]) / h_std_[c]);
  }
  const std::size_t rows = h.size() / kPathFeatureCount;
  return tensor::Tensor::from_data(std::move(h), rows, kPathFeatureCount);
}

void Standardizer::save(std::ostream& out) const {
  tensor::write_doubles(out, x_mean_);
  tensor::write_doubles(out, x_std_);
  tensor::write_doubles(out, h_mean_);
  tensor::write_doubles(out, h_std_);
  tensor::write_doubles(out, {slew_mean_, slew_std_, delay_mean_, delay_std_});
}

void Standardizer::load(std::istream& in) {
  x_mean_ = tensor::read_doubles(in);
  x_std_ = tensor::read_doubles(in);
  h_mean_ = tensor::read_doubles(in);
  h_std_ = tensor::read_doubles(in);
  const std::vector<double> labels = tensor::read_doubles(in);
  if (labels.size() != 4) throw std::runtime_error("Standardizer: bad label block");
  slew_mean_ = labels[0];
  slew_std_ = labels[1];
  delay_mean_ = labels[2];
  delay_std_ = labels[3];
}

std::vector<WireRecord> generate_wire_records(const WireDatasetConfig& config,
                                              const cell::CellLibrary& library) {
  std::mt19937_64 rng(config.seed);
  sim::GoldenTimer timer(config.sim_config);

  std::vector<WireRecord> records;
  records.reserve(config.net_count);
  std::size_t attempts = 0;
  while (records.size() < config.net_count && attempts < config.net_count * 3) {
    ++attempts;
    rcnet::RcNet net = rcnet::generate_net(
        config.net_config, rng, "net" + std::to_string(attempts));
    if (!net.validate().empty()) continue;
    NetContext ctx = random_context(library, net, rng);
    WireRecord rec = make_record(std::move(net), std::move(ctx), timer);
    // Drop records whose sinks failed to settle (extreme RC corner cases).
    const bool complete =
        std::all_of(rec.slew_labels.begin(), rec.slew_labels.end(),
                    [](double s) { return s > 0.0; });
    if (complete) records.push_back(std::move(rec));
  }
  return records;
}

std::vector<WireRecord> records_from_design(const netlist::Design& design,
                                            const cell::CellLibrary& library,
                                            sim::GoldenTimer& timer,
                                            const std::vector<double>* sta_slew) {
  std::vector<WireRecord> records;
  records.reserve(design.nets.size());
  for (const netlist::DesignNet& net : design.nets) {
    const cell::Cell& driver =
        library.at(design.instances[net.driver].cell_index);

    NetContext ctx;
    ctx.driver_resistance = driver.drive_resistance;
    ctx.driver_strength = driver.drive_strength;
    ctx.driver_function = static_cast<std::uint32_t>(driver.function);
    if (sta_slew != nullptr && net.driver < sta_slew->size()) {
      // True propagated driver output slew from a prior STA pass.
      ctx.input_slew = (*sta_slew)[net.driver];
    } else {
      // Approximate the driver's output transition with its NLDM surface under
      // a nominal 40ps input slew and the net's actual load.
      double load_cap = net.rc.total_ground_cap();
      for (netlist::InstanceId load : net.loads)
        load_cap += library.at(design.instances[load].cell_index).input_cap;
      ctx.input_slew = driver.arc.output_slew.lookup(4.0e-11, load_cap);
    }

    ctx.loads.reserve(net.loads.size());
    for (netlist::InstanceId load : net.loads) {
      const cell::Cell& lc = library.at(design.instances[load].cell_index);
      ctx.loads.push_back(
          {lc.drive_strength, static_cast<std::uint32_t>(lc.function), lc.input_cap});
    }
    records.push_back(make_record(net.rc, std::move(ctx), timer));
  }
  return records;
}

std::vector<nn::GraphSample> make_samples(const std::vector<WireRecord>& records,
                                          const Standardizer& standardizer) {
  std::vector<nn::GraphSample> samples;
  samples.reserve(records.size());
  for (const WireRecord& rec : records)
    samples.push_back(standardizer.make_sample(rec));
  return samples;
}

}  // namespace gnntrans::features
