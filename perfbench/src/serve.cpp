// serve_repeat: repeat traffic in which each distinct (net, context) pair is
// requested kRepeats times, so 90% of requests repeat by construction; hits
// skip featurize and forward. The gated numbers serve it in process through
// the server's batched model path (estimate_batch, batch_max, cache on). The
// traced run adds the network path: serve::NetServer (pool T = 1, default
// batch_max and flush age, cache on) fed by one open-loop generator thread
// over at most nproc connections, where the wire stages, the flush timer and
// cache lookups dominate.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/estimate_cache.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/trace.hpp"
#include "layers.hpp"
#include "nn/workspace.hpp"
#include "rcnet/generate.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Offered rate of the latency measurement (the rate the ROADMAP's
/// natural-batching acceptance uses), requests per second.
constexpr double kFixedRate = 1000.0;
/// p99 latency limit of the throughput ladder, milliseconds. The current
/// code meets it at kFixedRate with room for the multi-10-ms scheduling stalls of
/// a shared VM, so a rung fails on saturation, not on one stall.
constexpr double kP99LimitMs = 100.0;
/// Length of one fixed-rate window of the network measurement.
constexpr double kWindowSeconds = 1.0;
/// Ladder rungs: kFixedRate * kRungRatio^k, from k = kMinRung to kMaxRung.
constexpr double kRungRatio = 1.05;
constexpr int kMinRung = -28;  // ~255 req/s
constexpr int kMaxRung = 71;   // ~31.9k req/s
/// Each pair is requested kRepeats times within a block of kBlockPairs
/// pairs; blocks never share pairs.
constexpr std::size_t kRepeats = 10;
constexpr std::size_t kBlockPairs = 32;
/// Distinct pairs generated in set-up. A probe sends at most
/// kPoolPairs * kRepeats requests, so no pair is reused beyond its kRepeats.
constexpr std::size_t kPoolPairs = 1024;
/// Minimum number of cold passes (every distinct pair once, fresh cache).
constexpr std::size_t kColdPasses = 5;
constexpr std::size_t kReplayPairs = 256;
constexpr std::size_t kCacheBytes = 64ull << 20;  // CLI --cache-mb default
constexpr double kDrainSeconds = 2.0;
/// A send later than this is counted in gen.late_sends.
constexpr double kLateSendUs = 1000.0;

struct Pair {
  serve::RequestFrame frame;  ///< net + context; request_id set per send
  std::vector<core::PathEstimate> reference;
};

struct State {
  cell::CellLibrary library = cell::CellLibrary::make_default();
  core::WireTimingEstimator estimator = train_model(library);
  std::vector<Pair> pairs;
};

std::unique_ptr<serve::NetServer> start_server(const core::WireTimingEstimator& est) {
  serve::NetServerConfig cfg;  // CLI serve defaults: T = 1, batch 64, 2 ms
  cfg.threads = 1;
  cfg.cache_bytes = kCacheBytes;
  auto server = std::make_unique<serve::NetServer>(est, cfg);
  server->start();
  return server;
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Pair index of every request of a probe: blocks of kBlockPairs fresh pairs,
/// each requested kRepeats times in seeded order, starting at \p first_pair.
std::vector<std::uint32_t> make_schedule(std::size_t requests, std::size_t first_pair,
                                         std::size_t pool, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> out;
  std::size_t next_pair = first_pair;
  while (out.size() < requests) {
    std::vector<std::uint32_t> block;
    for (std::size_t p = 0; p < kBlockPairs; ++p, ++next_pair)
      block.insert(block.end(), kRepeats, static_cast<std::uint32_t>(next_pair % pool));
    std::shuffle(block.begin(), block.end(), rng);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(requests);
  return out;
}

struct Probe {
  std::vector<double> latency_ms;  ///< served requests, from due time
  std::vector<double> late_us;     ///< per send, behind schedule
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< rejects + timeouts
  std::uint64_t mismatches = 0;
  bool backlog_growing = false;
  std::uint64_t served = 0, batches = 0;
  std::uint64_t rejected[4] = {0, 0, 0, 0};  // overload malformed deadline shutdown
  core::EstimateCacheStats cache;
  core::InferenceStats stats;

  [[nodiscard]] double p50() const { return median(latency_ms); }
  [[nodiscard]] double p99() const { return quantile(latency_ms, 0.99); }
  [[nodiscard]] bool meets_limit() const {
    return failed == 0 && mismatches == 0 && !backlog_growing && p99() <= kP99LimitMs;
  }
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
};

/// One open-loop run against a fresh server: request i is due at i / rate
/// and carries pair schedule[i].
Probe run_probe(State& s, const std::vector<std::uint32_t>& schedule, double rate,
                bool traced) {
  const std::size_t n = schedule.size();
  Probe probe;
  probe.attempted = n;
  auto server = start_server(s.estimator);
  const std::size_t conn_count =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<Conn> conns(conn_count);
  for (Conn& c : conns) c.fd = connect_to(server->port());

  std::vector<std::int64_t> due(n), recv(n, -1);
  for (std::size_t i = 0; i < n; ++i)
    due[i] = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  auto now_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
  };
  const std::int64_t drain_deadline =
      due.back() + static_cast<std::int64_t>(kDrainSeconds * 1e9);
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();

  std::size_t next = 0;
  std::size_t received = 0;
  std::vector<pollfd> pfds(conn_count);
  std::string payload;
  char buf[65536];
  bool broken = false;
  while (received < n && !broken) {
    std::int64_t now = now_ns();
    if (now > drain_deadline) break;
    while (next < n && due[next] <= now) {
      Pair& pair = s.pairs[schedule[next]];
      pair.frame.request_id = next + 1;
      pair.frame.trace = traced ? recorder.head_sample(next + 1) : telemetry::TraceContext{};
      conns[next % conn_count].out += serve::encode_request(pair.frame);
      probe.late_us.push_back(static_cast<double>(now - due[next]) / 1e3);
      ++next;
    }
    for (std::size_t c = 0; c < conn_count; ++c) {
      Conn& conn = conns[c];
      while (conn.out_off < conn.out.size()) {
        const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w > 0) {
          conn.out_off += static_cast<std::size_t>(w);
        } else {
          if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) broken = true;
          break;
        }
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
      pfds[c] = pollfd{conn.fd, static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0};
    }
    now = now_ns();
    const std::int64_t wait_ns =
        std::max<std::int64_t>(0, (next < n ? due[next] : drain_deadline) - now);
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conn_count; ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      const ssize_t got = ::recv(conns[c].fd, buf, sizeof buf, MSG_DONTWAIT);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
        broken = true;
        continue;
      }
      if (got < 0) continue;
      conns[c].in.append(buf, static_cast<std::size_t>(got));
      const std::int64_t at = now_ns();
      while (serve::try_extract_frame(conns[c].in, &payload) == serve::FrameStatus::kFrame) {
        serve::ResponseFrame response;
        const std::size_t idx =
            serve::decode_response(payload, &response).ok() ? response.request_id - 1 : n;
        if (idx >= n || recv[idx] >= 0) {
          probe.mismatches++;  // undecodable, unknown or duplicate response
          continue;
        }
        recv[idx] = at;
        ++received;
        if (response.status != core::ErrorCode::kOk) {
          probe.failed++;
        } else if (!same_estimates(response.paths, s.pairs[schedule[idx]].reference)) {
          probe.mismatches++;
        } else {
          probe.latency_ms.push_back(static_cast<double>(at - due[idx]) / 1e6);
        }
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);
  probe.failed += n - received;

  // A growing backlog shows as later requests waiting longer than earlier
  // ones at the same offered rate.
  std::vector<double> early, late;
  for (std::size_t i = n / 4; i < n / 2; ++i)
    if (recv[i] >= 0) early.push_back(static_cast<double>(recv[i] - due[i]) / 1e6);
  for (std::size_t i = 3 * n / 4; i < n; ++i)
    if (recv[i] >= 0) late.push_back(static_cast<double>(recv[i] - due[i]) / 1e6);
  probe.backlog_growing = median(late) - median(early) > kP99LimitMs / 2;
  server->stop();
  const serve::NetServerLedger& ledger = server->ledger();
  probe.served = ledger.served.load();
  probe.batches = ledger.batches.load();
  probe.rejected[0] = ledger.rejected_overload.load();
  probe.rejected[1] = ledger.rejected_malformed.load();
  probe.rejected[2] = ledger.rejected_deadline.load();
  probe.rejected[3] = ledger.rejected_shutdown.load();
  if (server->cache()) probe.cache = server->cache()->stats();
  probe.stats = server->stats();
  return probe;
}

double rung_rate(int k) { return kFixedRate * std::pow(kRungRatio, k); }

/// Requests of a ladder probe at \p rate: \p seconds of traffic, at least
/// kMinSamples and at most what the pair pool supplies.
std::size_t probe_requests(double rate, double seconds) {
  return std::clamp<std::size_t>(static_cast<std::size_t>(rate * seconds), kMinSamples,
                                 kPoolPairs * kRepeats);
}

/// Absolute-rung search for the highest rate meeting the limit: gallops up
/// from rung 0 (down when rung 0 fails), then bisects between the last
/// passing and the first failing rung.
class Ladder {
 public:
  explicit Ladder(bool base_passes)
      : lo_(base_passes ? 0 : kMinRung - 1),
        hi_(base_passes ? kMaxRung + 1 : 0),
        up_(base_passes) {}

  [[nodiscard]] bool done() const { return hi_ - lo_ <= 1; }
  [[nodiscard]] int next() const {
    if (!gallop_) return lo_ + (hi_ - lo_) / 2;
    return up_ ? std::min(lo_ + step_, kMaxRung) : std::max(-step_, kMinRung);
  }
  void report(bool pass) {
    const int k = next();
    (pass ? lo_ : hi_) = k;
    if (gallop_) {
      // Upward, a pass keeps galloping; downward, a fail does.
      gallop_ = up_ ? pass && k < kMaxRung : !pass && k > kMinRung;
      step_ *= 2;
      if (up_ && pass && k == kMaxRung) hi_ = kMaxRung + 1;
    }
  }
  /// The last passing rung's rate; below every rung, the rate one step under
  /// the lowest.
  [[nodiscard]] double max_rps() const {
    return lo_ < kMinRung ? rung_rate(kMinRung) / kRungRatio : rung_rate(lo_);
  }

 private:
  int lo_;  ///< highest rung known to pass
  int hi_;  ///< lowest rung known to fail
  bool up_;
  bool gallop_ = true;
  int step_ = 1;
};

/// Every distinct pair of the working set once.
std::vector<std::uint32_t> cold_burst() {
  std::vector<std::uint32_t> burst(kPoolPairs);
  for (std::size_t i = 0; i < kPoolPairs; ++i) burst[i] = static_cast<std::uint32_t>(i);
  return burst;
}

std::unique_ptr<State> setup(std::uint64_t seed) {
  auto s = std::make_unique<State>();
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 29);
  rcnet::NetGenConfig cfg;  // 8..80 nodes, 35% non-tree: the paper's mix
  for (std::size_t i = 0; i < kPoolPairs; ++i) {
    Pair p;
    p.frame.net = rcnet::generate_net(cfg, rng, "w" + std::to_string(i));
    p.frame.context = features::random_context(s->library, p.frame.net, rng);
    s->pairs.push_back(std::move(p));
  }
  std::vector<core::NetBatchItem> items;
  for (const Pair& p : s->pairs) items.push_back({&p.frame.net, &p.frame.context});
  auto reference = s->estimator.estimate_batch(items);
  for (std::size_t i = 0; i < kPoolPairs; ++i) s->pairs[i].reference = std::move(reference[i]);
  // Server start belongs to set-up: start and drain one like a probe does.
  start_server(s->estimator)->stop();
  return s;
}

void note_probe(Result& result, const char* what, double rate, const Probe& p) {
  char line[240];
  std::snprintf(line, sizeof line,
                "serve_repeat: %s @ %.0f req/s: %zu served of %llu, p50 %.3f ms, p99 %.3f "
                "ms, failed %llu, backlog %s, gen late p99 %.0f us, cache hit %.3f",
                what, rate, p.latency_ms.size(), static_cast<unsigned long long>(p.attempted),
                p.p50(), p.p99(), static_cast<unsigned long long>(p.failed),
                p.backlog_growing ? "growing" : "steady", quantile(p.late_us, 0.99),
                p.cache.hit_rate());
  result.note(line);
}

void count_ops(Result& result, const Probe& p) {
  result.attempted += p.attempted;
  result.failed += p.failed;
  result.mismatches += p.mismatches;
}

/// The network numbers: latency at the fixed rate and the throughput ladder,
/// open loop against fresh servers. Reported per layer, not gated: on a
/// shared VM they swing with host scheduling (README).
void measure_network(State& s, const Options& options, Result& result) {
  // Interleaved untraced/traced fixed-rate windows: tracing overhead, the
  // stage histograms, rejects, batching, generator lateness and latency.
  telemetry::MetricsRegistry::global().reset();
  std::vector<double> untraced, traced, late, net_ms;
  std::uint64_t served = 0, batches = 0, rejected[4] = {0, 0, 0, 0};
  std::uint64_t hits = 0, lookups = 0;
  core::InferenceStats stats;
  bool base_passes = true;
  for (int pair = 0; pair < 4; ++pair) {
    for (const bool on : {pair % 2 == 0, pair % 2 != 0}) {
      const auto schedule =
          make_schedule(static_cast<std::size_t>(kFixedRate * kWindowSeconds),
                        static_cast<std::size_t>(pair) * 100, kPoolPairs,
                        options.seed + 101 + static_cast<std::uint64_t>(pair));
      if (on) enable_full_tracing();
      const Probe p = run_probe(s, schedule, kFixedRate, on);
      if (on) disable_tracing();
      count_ops(result, p);
      (on ? traced : untraced).push_back(p.p50());
      if (!on) {
        net_ms.insert(net_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
        base_passes = base_passes && p.meets_limit();
      }
      late.insert(late.end(), p.late_us.begin(), p.late_us.end());
      served += p.served;
      batches += p.batches;
      for (int r = 0; r < 4; ++r) rejected[r] += p.rejected[r];
      hits += p.cache.hits;
      lookups += p.cache.hits + p.cache.misses;
      stats.merge(p.stats);
    }
  }
  report_tracing_overhead(untraced, traced, result);
  auto stage_us = [](const char* name, double q) {
    return telemetry::MetricsRegistry::global()
               .histogram(name, telemetry::HistogramData::default_latency_bounds())
               .snapshot()
               .quantile(q) *
           1e6;
  };
  result.set("serve.queue_p50_us", stage_us("gnntrans_net_stage_queue_seconds", 0.5), "us");
  result.set("serve.queue_p99_us", stage_us("gnntrans_net_stage_queue_seconds", 0.99), "us");
  result.set("serve.batch_wait_p50_us",
             stage_us("gnntrans_net_stage_batch_wait_seconds", 0.5), "us");
  result.set("serve.batch_wait_p99_us",
             stage_us("gnntrans_net_stage_batch_wait_seconds", 0.99), "us");
  result.set("serve.model_p50_us", stage_us("gnntrans_net_stage_model_seconds", 0.5), "us");
  result.set("serve.serialize_p50_us",
             stage_us("gnntrans_net_stage_serialize_seconds", 0.5), "us");
  result.set("serve.write_p50_us", stage_us("gnntrans_net_stage_write_seconds", 0.5), "us");
  result.set("serve.batch_size_mean",
             batches == 0 ? 0.0 : static_cast<double>(served) / static_cast<double>(batches),
             "count");
  const char* reasons[4] = {"overload", "malformed", "deadline", "shutdown"};
  for (int r = 0; r < 4; ++r)
    result.set(std::string("serve.rejected.") + reasons[r], static_cast<double>(rejected[r]),
               "count");
  result.set("gen.late_p99_us", quantile(late, 0.99), "us");
  result.set("gen.late_sends",
             static_cast<double>(std::count_if(late.begin(), late.end(),
                                               [](double us) { return us > kLateSendUs; })),
             "count");
  result.set("core.cache_hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
             "ratio");
  report_arena(stats, result);
  result.set("serve.net_p50_ms", median(net_ms), "ms");
  result.set("serve.net_p99_ms", quantile(net_ms, 0.99), "ms");

  // Throughput ladder. Rejects and timeouts past capacity are the ladder's
  // signal, not failed operations; wrong answers always count.
  Ladder ladder(base_passes);
  const double probe_seconds = std::clamp(options.seconds / 20.0, 0.5, 1.0);
  while (!ladder.done()) {
    const int k = ladder.next();
    const double rate = rung_rate(k);
    const Probe p = run_probe(
        s,
        make_schedule(probe_requests(rate, probe_seconds), 0, kPoolPairs,
                      options.seed + 1000 + static_cast<std::uint64_t>(k - kMinRung)),
        rate, false);
    result.attempted += p.attempted;
    result.mismatches += p.mismatches;
    note_probe(result, ("rung " + std::to_string(k)).c_str(), rate, p);
    ladder.report(p.meets_limit());
  }
  result.set("serve.net_max_rps", ladder.max_rps(), "1/s");
  char line[240];
  std::snprintf(line, sizeof line,
                "serve_repeat network: at %.0f req/s p50 %.3f ms, p99 %.3f ms over %zu "
                "samples; max %.0f req/s at p99 <= %.1f ms (rungs x%.2f)",
                kFixedRate, median(net_ms), quantile(net_ms, 0.99), net_ms.size(),
                ladder.max_rps(), kP99LimitMs, kRungRatio);
  result.note(line);
}

void run_traced(State& s, const Options& options, Result& result) {
  measure_network(s, options, result);

  // Wire decode, timed from outside on the workload's own frames.
  SpanLog log;
  std::string payload;
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < kReplayPairs; ++i) {
    std::string frame = serve::encode_request(s.pairs[i].frame);
    if (serve::try_extract_frame(frame, &payload) != serve::FrameStatus::kFrame) {
      result.mismatches++;
      continue;
    }
    serve::RequestFrame request;
    const ScopedSpan span(log, "serve.decode_request");
    if (serve::decode_request(payload, &request).ok()) ++decoded;
  }
  if (decoded != kReplayPairs) result.mismatches++;
  result.set("serve.decode_us", log.total_seconds("serve.decode_request") * 1e6 /
                                    static_cast<double>(kReplayPairs), "us");

  std::vector<NetInput> inputs;
  for (std::size_t i = 0; i < kReplayPairs; ++i)
    inputs.push_back({&s.pairs[i].frame.net, &s.pairs[i].frame.context});
  replay_layers(s.estimator, inputs, log, result);
  log.write_chrome_json(options.work_dir + "/spans-serve_repeat-" +
                        std::to_string(options.seed) + ".json");
}

/// Serving work of one in-process pass: latency per request and busy time.
struct Pass {
  std::vector<double> request_ms;
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t degraded = 0;    ///< fallback or failed nets
  std::uint64_t mismatches = 0;  ///< answers differing from the reference
  core::EstimateCacheStats cache;
};

/// The server's model path without the wire: \p schedule's requests in
/// arrival order, in batches of the server's batch_max, through
/// estimate_batch at T = 1 with a fresh cache (a freshly started server).
/// Every answer is checked against the in-process reference.
Pass serve_in_process(const State& s, const std::vector<std::uint32_t>& schedule) {
  Pass pass;
  core::EstimateCacheConfig cache_cfg;
  cache_cfg.capacity_bytes = kCacheBytes;
  core::EstimateCache cache(cache_cfg);
  std::vector<nn::Workspace> workspaces;
  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions options;
  options.threads = 1;
  options.workspaces = &workspaces;
  options.cache = &cache;
  options.outcomes = &outcomes;
  const std::size_t batch_max = serve::NetServerConfig{}.batch_max;
  std::vector<core::NetBatchItem> items;
  for (std::size_t begin = 0; begin < schedule.size(); begin += batch_max) {
    items.clear();
    const std::size_t end = std::min(schedule.size(), begin + batch_max);
    for (std::size_t i = begin; i < end; ++i) {
      const serve::RequestFrame& f = s.pairs[schedule[i]].frame;
      items.push_back({&f.net, &f.context});
    }
    core::InferenceStats stats;
    const auto t0 = Clock::now();
    const auto results = s.estimator.estimate_batch(items, options, &stats);
    pass.seconds += seconds_since(t0);
    pass.degraded += stats.fallback_nets + stats.failed_nets;
    for (std::size_t i = begin; i < end; ++i) {
      pass.request_ms.push_back(outcomes[i - begin].net_seconds * 1e3);
      if (!same_estimates(results[i - begin], s.pairs[schedule[i]].reference))
        pass.mismatches++;
    }
  }
  pass.requests = schedule.size();
  pass.cache = cache.stats();
  return pass;
}

/// A degraded answer is a failed operation; a wrong one also fails the run.
void count_pass(Result& result, const Pass& pass) {
  result.failed += pass.degraded;
  result.mismatches += pass.mismatches;
}

}  // namespace

void run_serve_repeat(const Options& options, Result& result) {
  auto state = repeat_setup(options.trace ? 1 : kSetupRepeats, result,
                            [&] { return setup(options.seed); });
  State& s = *state;
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // generator wake-ups to the microsecond

  Digest digest;
  for (const Pair& p : s.pairs) digest.add(p.reference);
  result.note("serve_repeat: digest " + digest.hex() +
              " (in-process reference; every served response is checked against it)");

  if (options.trace) {
    run_traced(s, options, result);
    result.failed += result.mismatches;
    return;
  }

  // Gated numbers: passes over the whole working set's repeat traffic, each
  // with a fresh cache; every second pass is followed by a cold pass over
  // the working set's distinct pairs (each once, fresh cache).
  std::vector<double> request_ms, cold_ms;
  double busy = 0.0;
  std::uint64_t served = 0;
  std::size_t passes = 0;
  double hit_rate = 0.0;
  CpuRotation cpus;
  const auto start = Clock::now();
  for (; cold_ms.size() < kColdPasses || seconds_since(start) < options.seconds; ++passes) {
    cpus.next();
    const Pass pass = serve_in_process(
        s, make_schedule(kPoolPairs * kRepeats, 0, kPoolPairs, options.seed + 1 + passes));
    request_ms.insert(request_ms.end(), pass.request_ms.begin(), pass.request_ms.end());
    busy += pass.seconds;
    served += pass.requests;
    count_pass(result, pass);
    hit_rate = pass.cache.hit_rate();
    if (passes % 2 == 0) continue;
    cpus.next();
    const Pass cold = serve_in_process(s, cold_burst());
    result.attempted += cold.requests;
    count_pass(result, cold);
    cold_ms.push_back(cold.seconds * 1e3);
  }
  result.attempted += served;
  result.failed += result.mismatches;
  result.set("throughput_per_s", static_cast<double>(served) / busy, "1/s");
  result.set("latency_p50_ms", median(request_ms), "ms");
  result.set("latency_p99_ms", quantile(request_ms, 0.99), "ms");
  result.set("cold_pass_ms", median(cold_ms), "ms");
  char line[240];
  std::snprintf(line, sizeof line,
                "serve_repeat: %zu passes of %zu requests in batches of %zu, cache hit rate "
                "%.3f; per-request p50/p99 over %zu samples; cold pass over %zu distinct "
                "pairs, median of %zu",
                passes, kPoolPairs * kRepeats, serve::NetServerConfig{}.batch_max,
                hit_rate, request_ms.size(), kPoolPairs, cold_ms.size());
  result.note(line);
}

}  // namespace perfbench
