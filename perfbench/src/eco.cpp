// eco_loop: a generated design timed by netlist::IncrementalSta through
// core::EstimatorWireSource (cache on), driven by a seeded stream of
// netlist::apply_random_edit calls with the CLI eco flow's rebind fix-up
// after buffer insertion. The optimizer waits for each edit: a closed loop.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>

#include "core/estimate_cache.hpp"
#include "layers.hpp"
#include "netlist/generate.hpp"
#include "netlist/incremental.hpp"
#include "netlist/sta.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The design is fixed absolutely: the generator's default shape (about 180
/// nets) from a fixed seed. The workload seed draws the edit streams, so every
/// seed edits the same design and seeds differ only in which edits they make.
constexpr std::uint32_t kStartpoints = 24;
constexpr std::uint32_t kLevels = 7;
constexpr std::uint32_t kWidth = 24;
constexpr std::uint64_t kDesignSeed = 1;
/// Edits per round: one seeded stream applied to a fresh engine on the
/// unedited design, so the design never drifts far from its generated shape.
constexpr std::size_t kEditsPerRound = 200;
/// Every kVerifyEvery-th edit is checked bitwise against a fresh full
/// run_sta, outside the timed region.
constexpr std::size_t kVerifyEvery = 100;
/// Minimum number of cold-cache full STA passes.
constexpr std::size_t kStaPasses = 5;
constexpr std::size_t kCacheBytes = 64ull << 20;  // CLI --cache-mb default

struct State {
  cell::CellLibrary library = cell::CellLibrary::make_default();
  core::WireTimingEstimator estimator = train_model(library);
  netlist::DesignGenConfig config;
  netlist::Design design;
  std::unique_ptr<core::EstimatorWireSource> source;
  std::unique_ptr<netlist::IncrementalSta> engine;
};

std::unique_ptr<core::EstimatorWireSource> make_source(const State& s,
                                                       const netlist::Design& design,
                                                       bool cache) {
  auto src = std::make_unique<core::EstimatorWireSource>(s.estimator, design, s.library, 1);
  if (cache) {
    core::EstimateCacheConfig cfg;
    cfg.capacity_bytes = kCacheBytes;
    src->enable_cache(cfg);
  }
  return src;
}

/// Forwards to another source and times every call: the netlist layer's
/// blocking wire time, measured from outside.
class TimedWireSource final : public netlist::WireTimingSource {
 public:
  explicit TimedWireSource(netlist::WireTimingSource& inner) : inner_(inner) {}

  std::vector<sim::SinkTiming> time_net(const rcnet::RcNet& net, double input_slew,
                                        double driver_resistance) override {
    if (collect) collect->push_back({&net, input_slew, driver_resistance});
    const auto t0 = Clock::now();
    auto out = inner_.time_net(net, input_slew, driver_resistance);
    seconds += seconds_since(t0);
    nets += 1;
    return out;
  }

  std::vector<std::vector<sim::SinkTiming>> time_nets(
      std::span<const netlist::WireTimingRequest> requests) override {
    if (collect) collect->insert(collect->end(), requests.begin(), requests.end());
    const auto t0 = Clock::now();
    auto out = inner_.time_nets(requests);
    seconds += seconds_since(t0);
    nets += requests.size();
    return out;
  }

  [[nodiscard]] std::string name() const override { return "Timed(" + inner_.name() + ")"; }

  double seconds = 0.0;
  std::size_t nets = 0;
  /// When set, every request is appended here.
  std::vector<netlist::WireTimingRequest>* collect = nullptr;

 private:
  netlist::WireTimingSource& inner_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The ECO equivalence contract: every timing quantity bitwise equal.
bool same_timing(const netlist::StaResult& a, const netlist::StaResult& b) {
  return same_bits(a.arrival, b.arrival) && same_bits(a.slew, b.slew) &&
         same_bits(a.required, b.required) && same_bits(a.slack, b.slack) &&
         a.arrival_settled == b.arrival_settled &&
         same_bits(a.endpoint_arrival, b.endpoint_arrival) &&
         same_bits(a.endpoint_slack, b.endpoint_slack);
}

std::string timing_digest(const netlist::StaResult& r) {
  Digest d;
  for (const auto* v : {&r.arrival, &r.slew, &r.required, &r.slack})
    d.add(v->data(), v->size() * sizeof(double));
  return d.hex();
}

std::unique_ptr<State> setup() {
  auto s = std::make_unique<State>();
  s->config.startpoints = kStartpoints;
  s->config.levels = kLevels;
  s->config.cells_per_level = kWidth;
  s->config.seed = kDesignSeed;
  s->design = netlist::generate_design(s->config, s->library, "eco");
  s->source = make_source(*s, s->design, true);
  s->engine = std::make_unique<netlist::IncrementalSta>(s->design, s->library, *s->source);
  s->source->rebind(s->engine->design());
  return s;
}

/// Seed of the edit stream of round \p round.
std::uint64_t stream_seed(std::uint64_t seed, std::size_t round) {
  return seed * 0x9e3779b97f4a7c15ull + 1 + round;
}

struct EditStats {
  std::size_t retimed = 0;
  std::size_t required_updates = 0;
};

/// One edit of the stream plus the CLI's fix-up: after a buffer insertion the
/// source is rebound and both touched nets are refreshed.
EditStats apply_edit(netlist::IncrementalSta& engine, core::EstimatorWireSource& source,
                     const State& s, std::mt19937_64& rng) {
  const netlist::EcoEdit edit =
      netlist::apply_random_edit(engine, s.library, rng, s.config.net_config);
  std::size_t fixup = 0;
  if (edit.kind == netlist::EcoEdit::Kind::kInsertBuffer) {
    source.rebind(engine.design());
    const std::uint32_t touched[2] = {
        edit.net, static_cast<std::uint32_t>(engine.design().nets.size() - 1)};
    for (const std::uint32_t net_idx : touched) {
      rcnet::RcNet rc = engine.design().nets[net_idx].rc;
      fixup += engine.reroute_net(net_idx, std::move(rc));
    }
  }
  return {edit.retimed + fixup, edit.required_updates};
}

struct Round {
  std::vector<double> edit_ms;
  std::string digest;
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;
  EditStats totals;
  double wire_seconds = 0.0;
  std::size_t wire_nets = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
};

/// A fresh engine (CLI eco flow, cache on) and the seeded edit stream. With
/// \p timed, the engine sees the source through a TimedWireSource.
Round run_round(const State& s, std::uint64_t seed, bool verify, bool timed) {
  Round round;
  auto source = make_source(s, s.design, true);
  TimedWireSource timer(*source);
  netlist::WireTimingSource& wire = timed ? static_cast<netlist::WireTimingSource&>(timer)
                                          : *source;
  netlist::IncrementalSta engine(s.design, s.library, wire);
  source->rebind(engine.design());
  timer.seconds = 0.0;
  timer.nets = 0;
  const core::EstimateCacheStats before = source->cache()->stats();
  std::mt19937_64 rng(seed);
  for (std::size_t e = 0; e < kEditsPerRound; ++e) {
    const auto t0 = Clock::now();
    const EditStats st = apply_edit(engine, *source, s, rng);
    round.edit_ms.push_back(seconds_since(t0) * 1e3);
    round.totals.retimed += st.retimed;
    round.totals.required_updates += st.required_updates;
    if (verify && (e + 1) % kVerifyEvery == 0) {
      auto fresh = make_source(s, engine.design(), false);
      const netlist::StaResult full =
          netlist::run_sta(engine.design(), s.library, *fresh, engine.config());
      round.verified++;
      if (!same_timing(engine.result(), full)) round.mismatches++;
    }
  }
  const core::EstimateCacheStats after = source->cache()->stats();
  round.cache_hits = after.hits - before.hits;
  round.cache_lookups = (after.hits + after.misses) - (before.hits + before.misses);
  round.wire_seconds = timer.seconds;
  round.wire_nets = timer.nets;
  round.digest = timing_digest(engine.result());
  return round;
}

/// A cold-cache full run_sta of the unedited design on a fresh source.
netlist::StaResult cold_sta(const State& s, double* seconds,
                            core::InferenceStats* stats = nullptr) {
  auto source = make_source(s, s.design, true);
  const auto t0 = Clock::now();
  netlist::StaResult r = netlist::run_sta(s.design, s.library, *source);
  *seconds = seconds_since(t0);
  if (stats) *stats = source->stats();
  return r;
}

/// The design's timing context of \p req, rebuilt from public design data
/// the way EstimatorWireSource derives it.
features::NetContext context_of(const State& s, const netlist::WireTimingRequest& req) {
  features::NetContext ctx;
  ctx.input_slew = req.input_slew;
  ctx.driver_resistance = req.driver_resistance;
  for (const netlist::DesignNet& dnet : s.design.nets) {
    if (&dnet.rc != req.net) continue;
    const cell::Cell& driver = s.library.at(s.design.instances[dnet.driver].cell_index);
    ctx.driver_strength = driver.drive_strength;
    ctx.driver_function = static_cast<std::uint32_t>(driver.function);
    for (const netlist::InstanceId load : dnet.loads) {
      const cell::Cell& lc = s.library.at(s.design.instances[load].cell_index);
      ctx.loads.push_back({lc.drive_strength, static_cast<std::uint32_t>(lc.function),
                           lc.input_cap});
    }
  }
  return ctx;
}

void run_traced(const State& s, const Options& options, Result& result) {
  // Tracing overhead: mean edit time of interleaved untraced/traced rounds.
  // Both halves run without the timing decorator, so only the recorder's
  // state differs.
  std::vector<double> untraced, traced;
  for (int pair = 0; pair < 3; ++pair) {
    for (const bool on : {pair % 2 == 0, pair % 2 != 0}) {
      if (on) enable_full_tracing();
      const Round r = run_round(s, stream_seed(options.seed, 0), false, false);
      if (on) disable_tracing();
      double sum = 0.0;
      for (const double ms : r.edit_ms) sum += ms;
      (on ? traced : untraced).push_back(sum / static_cast<double>(r.edit_ms.size()));
    }
  }
  report_tracing_overhead(untraced, traced, result);

  // Per-edit netlist attribution through the timing decorator.
  const Round r = run_round(s, stream_seed(options.seed, 0), false, true);
  const auto edits = static_cast<double>(r.edit_ms.size());
  double edit_total_ms = 0.0;
  for (const double ms : r.edit_ms) edit_total_ms += ms;
  result.set("netlist.retimed_per_edit", static_cast<double>(r.totals.retimed) / edits,
             "count");
  result.set("netlist.required_updates_per_edit",
             static_cast<double>(r.totals.required_updates) / edits, "count");
  result.set("netlist.wire_calls_per_edit", static_cast<double>(r.wire_nets) / edits,
             "count");
  result.set("netlist.wire_ms_per_edit", r.wire_seconds * 1e3 / edits, "ms");
  result.set("netlist.engine_self_ms_per_edit",
             (edit_total_ms - r.wire_seconds * 1e3) / edits, "ms");
  result.set("core.cache_lookups_per_edit", static_cast<double>(r.cache_lookups) / edits,
             "count");
  result.set("core.cache_hit_ratio",
             r.cache_lookups == 0 ? 0.0
                                  : static_cast<double>(r.cache_hits) /
                                        static_cast<double>(r.cache_lookups),
             "ratio");

  // Full STA split into gate and wire time (median of cold passes).
  std::vector<double> wire_ms, gate_ms;
  core::InferenceStats stats;
  for (int pass = 0; pass < 3; ++pass) {
    double seconds = 0.0;
    const netlist::StaResult full = cold_sta(s, &seconds, &stats);
    wire_ms.push_back(full.wire_seconds * 1e3);
    gate_ms.push_back(full.gate_seconds * 1e3);
  }
  result.set("netlist.sta_wire_ms", median(wire_ms), "ms");
  result.set("netlist.sta_gate_ms", median(gate_ms), "ms");
  report_arena(stats, result);

  // The generic layer replay on the design's own nets and contexts, as one
  // full STA pass requests them.
  auto source = make_source(s, s.design, false);
  TimedWireSource timer(*source);
  std::vector<netlist::WireTimingRequest> requests;
  timer.collect = &requests;
  if (!same_timing(netlist::run_sta(s.design, s.library, timer), s.engine->result()))
    result.mismatches++;
  std::vector<features::NetContext> contexts;
  contexts.reserve(requests.size());
  for (const netlist::WireTimingRequest& req : requests) contexts.push_back(context_of(s, req));
  std::vector<NetInput> inputs;
  for (std::size_t i = 0; i < requests.size(); ++i)
    inputs.push_back({requests[i].net, &contexts[i]});
  SpanLog log;
  replay_layers(s.estimator, inputs, log, result);
  log.write_chrome_json(options.work_dir + "/spans-eco_loop-" + std::to_string(options.seed) +
                        ".json");
}

}  // namespace

void run_eco_loop(const Options& options, Result& result) {
  auto state = repeat_setup(options.trace ? 1 : kSetupRepeats, result,
                            [] { return setup(); });
  const State& s = *state;
  char line[240];
  std::snprintf(line, sizeof line, "eco_loop: design of %zu cells, %zu nets (%zu non-tree)",
                s.design.cell_count(), s.design.net_count(), s.design.non_tree_net_count());
  result.note(line);

  if (options.trace) {
    const Round checked = run_round(s, stream_seed(options.seed, 0), true, false);
    result.mismatches += checked.mismatches;
    result.note("eco_loop: digest " + checked.digest + ", " +
                std::to_string(checked.verified) +
                " edits verified bitwise against a fresh full run_sta");
    run_traced(s, options, result);
    result.attempted = checked.edit_ms.size();
    result.failed = result.mismatches;
    return;
  }

  // Rounds replay distinct seeded edit streams from the same design until
  // the time budget is spent; every kVerifyEvery-th edit is verified. A
  // cold-cache full STA pass (fresh source and cache) follows each round, so
  // the passes sample the whole run.
  std::vector<double> edit_ms;
  std::vector<double> sta_ms;
  double busy_ms = 0.0;
  std::size_t rounds = 0;
  std::uint64_t verified = 0;
  std::string digest;
  CpuRotation cpus;
  const auto start = Clock::now();
  while (rounds == 0 || edit_ms.size() < kMinSamples || sta_ms.size() < kStaPasses ||
         seconds_since(start) < options.seconds) {
    cpus.next();
    const Round r = run_round(s, stream_seed(options.seed, rounds), true, false);
    if (rounds == 0) digest = r.digest;
    result.mismatches += r.mismatches;
    verified += r.verified;
    for (const double ms : r.edit_ms) busy_ms += ms;
    edit_ms.insert(edit_ms.end(), r.edit_ms.begin(), r.edit_ms.end());
    ++rounds;
    double seconds = 0.0;
    if (!same_timing(cold_sta(s, &seconds), s.engine->result())) result.mismatches++;
    sta_ms.push_back(seconds * 1e3);
  }
  result.set("cold_pass_ms", median(sta_ms), "ms");
  result.note("eco_loop: digest " + digest + ", " + std::to_string(verified) +
              " edits verified bitwise against a fresh full run_sta");
  result.attempted = edit_ms.size();
  result.failed = result.mismatches;
  result.set("throughput_per_s", static_cast<double>(edit_ms.size()) / (busy_ms / 1e3), "1/s");
  result.set("latency_p50_ms", median(edit_ms), "ms");
  result.set("latency_p99_ms", quantile(edit_ms, 0.99), "ms");
  std::snprintf(line, sizeof line,
                "eco_loop: %zu rounds x %zu edits; per-edit latency p50/p99 over %zu samples; "
                "cold full STA median of %zu passes",
                rounds, kEditsPerRound, edit_ms.size(), sta_ms.size());
  result.note(line);
}

}  // namespace perfbench
