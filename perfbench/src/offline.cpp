// offline_cold: an offline job reads a SPEF file of all-distinct nets and
// times every net through estimate_batch at T = 1, with the estimate cache on
// (the CLI default) but no repeats, so the cache only misses and inserts.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>

#include "core/estimate_cache.hpp"
#include "core/telemetry/trace.hpp"
#include "layers.hpp"
#include "nn/workspace.hpp"
#include "rcnet/generate.hpp"
#include "rcnet/spef.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Nets per SPEF file. Sizes are a fixed grid over 10..300 nodes, 35% of
/// them non-tree and sink counts on a fixed cycle, so every seed offers the
/// same work mix; the seed draws topology, values, coupling and contexts.
constexpr std::size_t kNets = 96;
/// Distinct files written in set-up; jobs cycle through them, so the tail
/// percentiles see kFiles different nets of every size.
constexpr std::size_t kFiles = 8;
constexpr std::uint32_t kMinNodes = 10;
constexpr std::uint32_t kMaxNodes = 300;
/// Every kCheckStride-th net of the file is re-timed through estimate().
constexpr std::size_t kCheckStride = 8;
constexpr std::size_t kCacheBytes = 64ull << 20;  // CLI --cache-mb default

std::vector<rcnet::RcNet> make_nets(std::uint64_t seed, std::size_t file) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 11 + file);
  std::vector<rcnet::RcNet> nets;
  for (std::size_t rank = 0; rank < kNets; ++rank) {
    const auto nodes = static_cast<std::uint32_t>(
        kMinNodes + (kMaxNodes - kMinNodes) * rank / (kNets - 1));
    const std::uint32_t max_sinks = std::min<std::uint32_t>(12, std::max(1u, nodes / 4));
    rcnet::NetGenConfig cfg;
    cfg.min_nodes = cfg.max_nodes = nodes;
    cfg.min_sinks = cfg.max_sinks = 1 + static_cast<std::uint32_t>(rank * 7) % max_sinks;
    cfg.non_tree_fraction = rank % 20 < 7 ? 1.0 : 0.0;
    nets.push_back(rcnet::generate_net(cfg, rng, "n" + std::to_string(rank)));
  }
  std::shuffle(nets.begin(), nets.end(), rng);
  return nets;
}

/// The job's timing context for a net, derived from its name as the CLI's
/// predict does (a SPEF file carries parasitics only).
features::NetContext context_for(const cell::CellLibrary& library,
                                 const rcnet::RcNet& net, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (const char c : net.name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  std::mt19937_64 rng(h);
  return features::random_context(library, net, rng);
}

struct State {
  cell::CellLibrary library = cell::CellLibrary::make_default();
  core::WireTimingEstimator estimator = train_model(library);
  std::vector<std::string> spef_paths;
};

struct Job {
  std::vector<rcnet::RcNet> nets;
  std::vector<features::NetContext> contexts;
  std::vector<std::vector<core::PathEstimate>> results;
  std::vector<core::NetOutcome> outcomes;
  core::InferenceStats stats;
  core::EstimateCacheStats cache;
  double seconds = 0.0;
};

/// One offline job: parse the file, derive contexts, estimate_batch every net
/// with a fresh cache and fresh workspaces (a new CLI process per file).
Job run_job(const State& s, std::uint64_t seed, std::size_t file) {
  Job job;
  const auto t0 = Clock::now();
  {
    std::ifstream in(s.spef_paths[file % kFiles]);
    rcnet::SpefParseResult parsed = rcnet::parse_spef(in);
    if (!parsed.status.ok()) throw std::runtime_error(parsed.status.to_string());
    job.nets = std::move(parsed.nets);
  }
  for (const rcnet::RcNet& net : job.nets)
    job.contexts.push_back(context_for(s.library, net, seed));
  std::vector<core::NetBatchItem> items;
  for (std::size_t i = 0; i < job.nets.size(); ++i)
    items.push_back({&job.nets[i], &job.contexts[i]});
  core::EstimateCacheConfig cache_cfg;
  cache_cfg.capacity_bytes = kCacheBytes;
  core::EstimateCache cache(cache_cfg);
  std::vector<nn::Workspace> workspaces;
  core::BatchOptions options;
  options.threads = 1;
  options.workspaces = &workspaces;
  options.cache = &cache;
  options.outcomes = &job.outcomes;
  job.results = s.estimator.estimate_batch(items, options, &job.stats);
  job.seconds = seconds_since(t0);
  job.cache = cache.stats();
  return job;
}

std::uint64_t degraded(const Job& job) {
  return job.stats.fallback_nets + job.stats.failed_nets;
}

}  // namespace

void run_offline_cold(const Options& options, Result& result) {
  auto state = repeat_setup(options.trace ? 1 : kSetupRepeats, result, [&] {
    auto s = std::make_unique<State>();
    for (std::size_t f = 0; f < kFiles; ++f) {
      s->spef_paths.push_back(options.work_dir + "/offline_cold-" +
                              std::to_string(options.seed) + "-" + std::to_string(f) +
                              ".spef");
      std::ofstream out(s->spef_paths.back());
      out.precision(17);
      rcnet::write_spef(out, make_nets(options.seed, f));
      if (!out.flush()) throw std::runtime_error("cannot write " + s->spef_paths.back());
    }
    return s;
  });
  const State& s = *state;

  // Correctness: batched output bitwise equal to single-net estimate() on a
  // fixed sample, plus the output digest. Outside every timed region.
  const Job first = run_job(s, options.seed, 0);
  if (first.nets.size() != kNets) result.mismatches++;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < first.nets.size(); i += kCheckStride, ++checked)
    if (!same_estimates(first.results[i],
                        s.estimator.estimate(first.nets[i], first.contexts[i])))
      result.mismatches++;
  Digest digest;
  for (const auto& paths : first.results) digest.add(paths);
  result.note("offline_cold: digest " + digest.hex() + ", " + std::to_string(checked) +
              " nets checked bitwise against estimate()");

  if (options.trace) {
    // Tracing overhead: interleaved untraced/traced jobs, alternating order.
    std::vector<double> untraced, traced;
    for (int pair = 0; pair < 4; ++pair) {
      for (const bool on : {pair % 2 == 0, pair % 2 != 0}) {
        if (on) enable_full_tracing();
        const Job job = run_job(s, options.seed, 0);
        if (on) disable_tracing();
        (on ? traced : untraced).push_back(job.seconds);
      }
    }
    report_tracing_overhead(untraced, traced, result);
    SpanLog log;
    std::vector<NetInput> inputs;
    for (std::size_t i = 0; i < first.nets.size(); ++i)
      inputs.push_back({&first.nets[i], &first.contexts[i]});
    replay_layers(s.estimator, inputs, log, result);
    report_arena(first.stats, result);
    result.set("core.cache_hit_ratio", first.cache.hit_rate(), "ratio");
    log.write_chrome_json(options.work_dir + "/spans-offline_cold-" +
                          std::to_string(options.seed) + ".json");
    result.attempted = first.nets.size();
    result.failed = degraded(first) + result.mismatches;
    return;
  }

  // Measured: whole jobs back to back until the time budget is spent.
  std::vector<double> job_ms;
  std::vector<double> net_ms;
  double busy = 0.0;
  std::uint64_t nets = 0;
  CpuRotation cpus;
  const auto start = Clock::now();
  while (job_ms.size() < 3 || net_ms.size() < kMinSamples ||
         seconds_since(start) < options.seconds) {
    cpus.next();
    const Job job = run_job(s, options.seed, job_ms.size());
    job_ms.push_back(job.seconds * 1e3);
    busy += job.seconds;
    nets += job.nets.size();
    result.failed += degraded(job);
    for (const core::NetOutcome& o : job.outcomes) net_ms.push_back(o.net_seconds * 1e3);
  }
  result.attempted = nets;
  result.failed += result.mismatches;
  result.set("throughput_per_s", static_cast<double>(nets) / busy, "1/s");
  result.set("latency_p50_ms", median(net_ms), "ms");
  result.set("latency_p99_ms", quantile(net_ms, 0.99), "ms");
  result.set("cold_pass_ms", median(job_ms), "ms");
  char line[200];
  std::snprintf(line, sizeof line,
                "offline_cold: %zu jobs x %zu nets; per-net latency p50/p99 over %zu "
                "samples; cache hit rate %.3f",
                job_ms.size(), kNets, net_ms.size(), first.cache.hit_rate());
  result.note(line);
}

}  // namespace perfbench
