#include "layers.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "core/estimate_cache.hpp"
#include "core/telemetry/trace.hpp"
#include "features/dataset.hpp"
#include "nn/workspace.hpp"
#include "rcnet/spef.hpp"
#include "sim/moments.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

namespace {

/// Sums the "dur" (us) of every complete event per name in the recorder's
/// Chrome JSON, then clears the recorder.
std::map<std::string, double> drain_program_spans_us() {
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
  std::ostringstream json;
  recorder.write_chrome_json(json);
  recorder.clear();
  const std::string text = json.str();
  std::map<std::string, double> total;
  const std::string name_key = "{\"name\":\"";
  std::size_t pos = 0;
  while ((pos = text.find(name_key, pos)) != std::string::npos) {
    pos += name_key.size();
    const std::size_t name_end = text.find('"', pos);
    const std::size_t obj_end = text.find('}', name_end);
    const std::size_t dur = text.find("\"dur\":", name_end);
    if (name_end == std::string::npos || obj_end == std::string::npos) break;
    if (dur != std::string::npos && dur < obj_end)
      total[text.substr(pos, name_end - pos)] +=
          std::strtod(text.c_str() + dur + 6, nullptr);
    pos = obj_end;
  }
  return total;
}

double per(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

void enable_full_tracing() {
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
  telemetry::TraceConfig cfg;
  cfg.sample_every = 1;
  cfg.overhead_budget_pct = 1e12;  // adapt() never raises the interval
  cfg.head_sample_rate = 1.0;
  recorder.configure(cfg);
  recorder.clear();
  recorder.enable();
}

void disable_tracing() {
  telemetry::TraceRecorder::global().disable();
  telemetry::TraceRecorder::global().clear();
}

void report_arena(const core::InferenceStats& stats, Result& result) {
  result.set("tensor.arena_fresh_allocs_per_net",
             per(static_cast<double>(stats.arena_fresh_allocs), stats.nets), "count");
  result.set("tensor.arena_peak_bytes", static_cast<double>(stats.arena_peak_bytes),
             "bytes");
}

void replay_layers(const core::WireTimingEstimator& estimator,
                   std::span<const NetInput> inputs, SpanLog& log,
                   Result& result) {
  const std::size_t n = inputs.size();
  const std::int32_t root = log.begin("replay_layers");

  // rcnet: one SPEF document of the workload's nets, parsed three times.
  {
    std::vector<rcnet::RcNet> copies;
    for (const NetInput& in : inputs) copies.push_back(*in.net);
    std::ostringstream doc;
    doc.precision(17);
    rcnet::write_spef(doc, copies);
    const std::string text = doc.str();
    std::vector<double> parse;
    for (int r = 0; r < 3; ++r) {
      std::istringstream in(text);
      const std::int32_t span = log.begin("rcnet.parse_spef", root);
      const rcnet::SpefParseResult parsed = rcnet::parse_spef(in);
      log.end(span);
      parse.push_back(log.seconds(span));
      if (parsed.nets.size() != n) result.mismatches++;
    }
    result.set("rcnet.parse_us_per_net", per(median(parse) * 1e6, n), "us");
  }

  // Per-net pipeline, in estimate_batch's order.
  std::vector<std::uint64_t> hashes(n, 0);
  std::vector<nn::GraphSample> samples(n);
  double extract_self = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const rcnet::RcNet& net = *inputs[i].net;
    const features::NetContext& context = *inputs[i].context;
    const bool large = net.node_count() > kLargeNetNodes;
    const ScopedSpan net_span(log, "net", root);
    {
      const ScopedSpan span(log, "rcnet.validate", net_span.id());
      if (!net.validate(&hashes[i]).empty()) result.mismatches++;
    }
    const std::int32_t m = log.begin(large ? "sim.moments.large" : "sim.moments.small",
                                     net_span.id());
    const sim::Moments moments = sim::compute_moments(net);
    log.end(m);
    if (moments.m1.size() != net.node_count()) result.mismatches++;
    features::WireRecord rec;
    rec.net = net;
    rec.context = context;
    {
      const std::int32_t e = log.begin("features.extract", net_span.id());
      rec.raw = features::extract_features(net, context);
      log.end(e);
      extract_self += log.seconds(e) - log.seconds(m);
    }
    rec.non_tree = !net.is_tree();
    rec.slew_labels.assign(rec.raw.analysis.paths.size(), 0.0);
    rec.delay_labels.assign(rec.raw.analysis.paths.size(), 0.0);
    {
      const ScopedSpan span(log, "features.operators", net_span.id());
      samples[i] = estimator.standardizer().make_sample(rec);
    }
  }
  std::size_t small_n = 0;
  std::size_t large_n = 0;
  for (const NetInput& in : inputs)
    (in.net->node_count() > kLargeNetNodes ? large_n : small_n)++;
  result.set("sim.moments_us_per_net.small",
             per(log.total_seconds("sim.moments.small") * 1e6, small_n), "us");
  result.set("sim.moments_us_per_net.large",
             per(log.total_seconds("sim.moments.large") * 1e6, large_n), "us");
  result.set("rcnet.validate_us_per_net",
             per(log.total_seconds("rcnet.validate") * 1e6, n), "us");
  result.set("features.extract_self_us_per_net", per(extract_self * 1e6, n), "us");
  result.set("features.operators_us_per_net",
             per(log.total_seconds("features.operators") * 1e6, n), "us");

  // nn: the model's own spans, small and large nets drained separately.
  {
    const gnntrans::tensor::NoGradGuard no_grad;
    nn::Workspace workspace;
    double gnn = 0.0;
    double heads = 0.0;
    double attention[2] = {0.0, 0.0};
    enable_full_tracing();
    for (const bool large : {false, true}) {
      for (std::size_t i = 0; i < n; ++i) {
        if ((samples[i].node_count > kLargeNetNodes) != large) continue;
        const ScopedSpan span(log, large ? "nn.forward.large" : "nn.forward.small",
                              root);
        const nn::WirePrediction pred = estimator.model().forward(samples[i], &workspace);
        (void)pred;
      }
      const std::map<std::string, double> us = drain_program_spans_us();
      auto get = [&](const char* name) {
        const auto it = us.find(name);
        return it == us.end() ? 0.0 : it->second;
      };
      gnn += get("gnn_forward");
      heads += get("heads");
      attention[large ? 1 : 0] = get("attention");
    }
    disable_tracing();
    result.set("nn.gnn_us_per_net", per(gnn, n), "us");
    result.set("nn.attention_us_per_net.small", per(attention[0], small_n), "us");
    result.set("nn.attention_us_per_net.large", per(attention[1], large_n), "us");
    result.set("nn.heads_us_per_net", per(heads, n), "us");
  }

  // core: insert then look up every net's estimate in a fresh cache.
  {
    std::vector<core::NetBatchItem> items;
    for (const NetInput& in : inputs) items.push_back({in.net, in.context});
    const auto paths = estimator.estimate_batch(items);
    core::EstimateCache cache;
    std::vector<core::CacheKey> keys;
    for (std::size_t i = 0; i < n; ++i)
      keys.push_back(core::EstimateCache::make_key(
          hashes[i], features::content_hash(*inputs[i].context)));
    for (std::size_t i = 0; i < n; ++i) {
      const ScopedSpan span(log, "core.cache_insert", root);
      cache.insert(keys[i], paths[i]);
    }
    std::vector<core::PathEstimate> hit;
    for (std::size_t i = 0; i < n; ++i) {
      bool found = false;
      {
        const ScopedSpan span(log, "core.cache_lookup", root);
        found = cache.lookup(keys[i], &hit);
      }
      if (!found || !same_estimates(hit, paths[i])) result.mismatches++;
    }
    result.set("core.cache_insert_us",
               per(log.total_seconds("core.cache_insert") * 1e6, n), "us");
    result.set("core.cache_lookup_us",
               per(log.total_seconds("core.cache_lookup") * 1e6, n), "us");
  }
  log.end(root);
}

}  // namespace perfbench
