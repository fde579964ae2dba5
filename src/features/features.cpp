#include "features/features.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/hash.hpp"

namespace gnntrans::features {

using rcnet::NodeId;

std::uint64_t content_hash(const NetContext& context) noexcept {
  // Same FNV word fold + splitmix64 finalizer as rcnet::validate()'s net
  // hash. Doubles fold by bit pattern: a one-ULP slew change must be a cache
  // miss because hits are required to be bitwise identical to recomputation.
  std::uint64_t h = core::kFnvBasis;
  core::fnv_fold(h, context.input_slew);
  core::fnv_fold(h, context.driver_resistance);
  core::fnv_fold(h,
                 (static_cast<std::uint64_t>(context.driver_strength) << 32) |
                     static_cast<std::uint64_t>(context.driver_function));
  core::fnv_fold(h, static_cast<std::uint64_t>(context.loads.size()));
  for (const SinkLoad& load : context.loads) {
    core::fnv_fold(h, (static_cast<std::uint64_t>(load.drive_strength) << 32) |
                          static_cast<std::uint64_t>(load.function));
    core::fnv_fold(h, load.input_cap);
  }
  return core::splitmix64_finalize(h);
}

NetContext random_context(const cell::CellLibrary& library,
                          const rcnet::RcNet& net, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> cell_pick(0, library.size() - 1);
  std::normal_distribution<double> gauss(0.0, 0.22);

  NetContext ctx;
  // Synthesis-like driver sizing: real flows size the driver to its load, so
  // the (invisible) drive resistance correlates with the (visible) net
  // capacitance. Aim for a driver RC near a target transition window and pick
  // the library cell whose drive resistance comes closest.
  const double c_total = net.total_ground_cap() + net.total_coupling_cap();
  const double rc_target = 5.5e-11 * std::exp(1.6 * gauss(rng));
  const double r_target = rc_target / c_total;
  std::size_t best = 0;
  double best_err = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < library.size(); ++i) {
    const double err =
        std::abs(std::log(library.at(i).drive_resistance / r_target));
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  const cell::Cell& driver = library.at(best);
  ctx.driver_resistance = driver.drive_resistance;
  ctx.driver_strength = driver.drive_strength;
  ctx.driver_function = static_cast<std::uint32_t>(driver.function);
  // Input slew: lognormal around 40ps (typical post-route transition). The
  // spread is moderate, as in a closed-timing design: propagated slews
  // correlate with drive strength and load rather than being free noise.
  ctx.input_slew = 4.0e-11 * std::exp(gauss(rng));

  ctx.loads.reserve(net.sinks.size());
  for (std::size_t i = 0; i < net.sinks.size(); ++i) {
    const cell::Cell& load = library.at(cell_pick(rng));
    ctx.loads.push_back({load.drive_strength,
                         static_cast<std::uint32_t>(load.function),
                         load.input_cap});
  }
  return ctx;
}

namespace {

// Scale factors keeping raw features in O(1) ranges before standardization
// (fF, ps, kOhm) so float32 accumulation stays well-conditioned.
constexpr double kF = 1e15;   // farads -> fF
constexpr double kS = 1e12;   // seconds -> ps
constexpr double kR = 1e-3;   // ohms -> kOhm

/// Writes the context columns [0, kNetPathColumnBase) of path \p q's raw H
/// row: the one writer of those columns, so extract_features and
/// path_features agree bitwise.
void write_context_columns(const NetContext& context, std::size_t q, float* row) {
  const SinkLoad& load = context.loads[q];
  row[kInputSlew] = static_cast<float>(context.input_slew * kS);
  row[kDriveStrength] = static_cast<float>(context.driver_strength);
  row[kDriveFunction] = static_cast<float>(context.driver_function);
  row[kLoadStrength] = static_cast<float>(load.drive_strength);
  row[kLoadFunction] = static_cast<float>(load.function);
  row[kLoadCeff] = static_cast<float>(load.input_cap * kF);
}

}  // namespace

std::vector<float> net_path_columns(std::span<const float> h) {
  const std::size_t paths = h.size() / kPathFeatureCount;
  std::vector<float> out(paths * kNetPathColumnCount);
  for (std::size_t q = 0; q < paths; ++q)
    std::copy_n(h.data() + q * kPathFeatureCount + kNetPathColumnBase,
                kNetPathColumnCount, out.data() + q * kNetPathColumnCount);
  return out;
}

std::vector<float> path_features(const NetContext& context,
                                 std::span<const float> net_columns) {
  const std::size_t paths = net_columns.size() / kNetPathColumnCount;
  std::vector<float> h(paths * kPathFeatureCount);
  for (std::size_t q = 0; q < paths; ++q) {
    float* row = h.data() + q * kPathFeatureCount;
    write_context_columns(context, q, row);
    std::copy_n(net_columns.data() + q * kNetPathColumnCount,
                kNetPathColumnCount, row + kNetPathColumnBase);
  }
  return h;
}

RawFeatures extract_features(const rcnet::RcNet& net, const NetContext& context) {
  if (context.loads.size() != net.sinks.size())
    throw std::invalid_argument("extract_features: context.loads misaligned");

  RawFeatures rf;
  rf.analysis = sim::analyze_wire(net);
  const sim::WireAnalysis& wa = rf.analysis;
  const std::size_t n = net.node_count();

  const rcnet::Adjacency adj = rcnet::build_adjacency(net);
  rf.x.assign(n * kNodeFeatureCount, 0.0f);
  for (NodeId v = 0; v < n; ++v) {
    float* row = rf.x.data() + v * kNodeFeatureCount;
    double in_cap = 0.0, out_cap = 0.0, in_res = 0.0, out_res = 0.0;
    std::uint32_t in_nodes = 0, out_nodes = 0;
    for (const rcnet::Neighbor& nb : adj[v]) {
      const double r = net.resistors[nb.resistor_index].ohms;
      // Orientation: neighbors nearer the source are inputs (stage view).
      const bool is_input = wa.sp_tree.distance[nb.node] < wa.sp_tree.distance[v];
      if (is_input) {
        ++in_nodes;
        in_cap += net.ground_cap[nb.node];
        in_res += r;
      } else {
        ++out_nodes;
        out_cap += net.ground_cap[nb.node];
        out_res += r;
      }
    }
    row[kCapValue] = static_cast<float>(net.ground_cap[v] * kF);
    row[kNumInputNodes] = static_cast<float>(in_nodes);
    row[kNumOutputNodes] = static_cast<float>(out_nodes);
    row[kTotInputCap] = static_cast<float>(in_cap * kF);
    row[kTotOutputCap] = static_cast<float>(out_cap * kF);
    row[kNumConnectedRes] = static_cast<float>(adj[v].size());
    row[kTotInputRes] = static_cast<float>(in_res * kR);
    row[kTotOutputRes] = static_cast<float>(out_res * kR);
    row[kDownstreamCap] = static_cast<float>(wa.downstream_cap[v] * kF);
    row[kStageDelay] = static_cast<float>(wa.stage_delay[v] * kS);
  }

  const std::size_t p = wa.paths.size();
  rf.h.assign(p * kPathFeatureCount, 0.0f);
  for (std::size_t q = 0; q < p; ++q) {
    float* row = rf.h.data() + q * kPathFeatureCount;
    const NodeId sink = wa.paths[q].sink;
    write_context_columns(context, q, row);
    row[kElmoreDelay] = static_cast<float>(wa.moments.m1[sink] * kS);
    row[kD2mDelay] = static_cast<float>(wa.d2m[sink] * kS);
    const double m1 = wa.moments.m1[sink];
    const double spread2 = 2.0 * wa.moments.m2[sink] - m1 * m1;
    row[kImpulseSpread] =
        static_cast<float>(std::sqrt(std::max(0.0, spread2)) * kS);
  }
  return rf;
}

const std::vector<std::string>& quality_feature_names() {
  static const std::vector<std::string> names = {
      // Node features, column order of NodeFeature.
      "node_cap_value",
      "node_num_input_nodes",
      "node_num_output_nodes",
      "node_tot_input_cap",
      "node_tot_output_cap",
      "node_num_connected_res",
      "node_tot_input_res",
      "node_tot_output_res",
      "node_downstream_cap",
      "node_stage_delay",
      // Path features, column order of PathFeature.
      "path_input_slew",
      "path_drive_strength",
      "path_drive_function",
      "path_load_strength",
      "path_load_function",
      "path_load_ceff",
      "path_elmore_delay",
      "path_d2m_delay",
      "path_impulse_spread",
  };
  static_assert(kNodeFeatureCount == 10 && kPathFeatureCount == 9,
                "update quality_feature_names when feature columns change");
  return names;
}

}  // namespace gnntrans::features
