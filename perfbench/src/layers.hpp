// Layer attribution from outside the program: replays a workload's own nets
// through the public entry points of rcnet, sim, features, nn and the core
// estimate cache, one span per call.
#pragma once

#include <span>

#include "common.hpp"
#include "core/estimator.hpp"
#include "features/features.hpp"
#include "rcnet/rcnet.hpp"

namespace perfbench {

/// Nets above this many nodes count as "large" in the .small/.large splits.
inline constexpr std::size_t kLargeNetNodes = 80;

struct NetInput {
  const rcnet::RcNet* net = nullptr;
  const features::NetContext* context = nullptr;
};

/// Times, per net: SPEF parse (whole document / nets), validate + content
/// hash, dense moments, extract_features minus moments, operator build
/// (Standardizer::make_sample), the model's own gnn_forward / attention /
/// heads spans (TraceRecorder pinned to record every span), and estimate
/// cache insert + lookup. Sets the rcnet.*, sim.*, features.*, nn.* and
/// core.cache_{lookup,insert}_us metrics.
void replay_layers(const core::WireTimingEstimator& estimator,
                   std::span<const NetInput> inputs, SpanLog& log,
                   Result& result);

/// Sets tensor.arena_* from the arena counters of \p stats.
void report_arena(const core::InferenceStats& stats, Result& result);

/// Pins the global TraceRecorder to record every span (no sampling, no
/// overhead back-off, every request head-sampled) and enables it.
void enable_full_tracing();
void disable_tracing();

}  // namespace perfbench
