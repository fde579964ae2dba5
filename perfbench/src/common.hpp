// Shared plumbing of the perfbench driver: clocks, order statistics, the
// metric sink, the benchmark's own span log, host calibration, and the
// fixed-configuration model every workload serves.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cell/library.hpp"
#include "core/estimator.hpp"

namespace gnntrans::serve {}

namespace perfbench {

namespace cell = gnntrans::cell;
namespace core = gnntrans::core;
namespace features = gnntrans::features;
namespace netlist = gnntrans::netlist;
namespace nn = gnntrans::nn;
namespace rcnet = gnntrans::rcnet;
namespace serve = gnntrans::serve;
namespace sim = gnntrans::sim;
namespace telemetry = gnntrans::telemetry;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Order statistics over a sample. quantile() interpolates linearly between
/// order statistics (R-7), so a value is never a bucket edge.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Interquartile range over median, with Python's statistics.quantiles
/// (exclusive method) quartiles: the run-to-run spread of a metric.
double relative_iqr(const std::vector<double>& values);

/// Every p99 is taken over at least this many samples, so at least ten lie
/// beyond it.
inline constexpr std::size_t kMinSamples = 1000;

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports. correct/attempted/failed are keys of
/// the result line; info lines are printed for a human reader.
struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { info.push_back(std::move(line)); }
  [[nodiscard]] bool correct() const { return mismatches == 0; }
};

/// Command-line options of one invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;
  std::string work_dir = ".";
};

/// The benchmark's own spans: name, start, end, parent, kept in memory and
/// written out as Chrome trace JSON at the end of a traced run.
class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  std::int32_t begin(std::string_view name, std::int32_t parent = kNoParent);
  void end(std::int32_t id);

  /// Total duration (seconds) of the spans named \p name.
  [[nodiscard]] double total_seconds(std::string_view name) const;
  /// Duration (seconds) of span \p id.
  [[nodiscard]] double seconds(std::int32_t id) const;

  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = kNoParent;
  };
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span in a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name,
             std::int32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log.begin(name, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Moves the calling thread through the CPUs it may run on, one per measured
/// unit, and restores its CPU mask on destruction. On a shared VM each vCPU's
/// speed drifts by tens of percent over seconds, largely independently of the
/// others; a run whose units visit every vCPU in turn averages that drift
/// instead of carrying the state of the one vCPU it happened to stay on.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins the calling thread to the next allowed CPU.
  void next();

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Host record: nproc, effective parallelism from a fixed-work burn at
/// T = 1..nproc, and the single-thread reference loop time.
void calibrate_host(Result& result);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// The model every workload serves: GNNTrans with the CLI defaults (hidden
/// 16, L1 = 4, L2 = 2, 4 heads, MLP 32), trained for a few epochs on a fixed
/// labeled set. Its seed is fixed, so every workload seed sees the same model.
core::WireTimingEstimator train_model(const cell::CellLibrary& library);

/// FNV-1a over raw bytes; the per-workload output digest.
class Digest {
 public:
  void add(const void* data, std::size_t bytes);
  void add(double v) { add(&v, sizeof v); }
  void add(const std::vector<core::PathEstimate>& paths);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Bitwise equality of per-path estimates (sink, slew, delay bits). The
/// provenance tag is excluded: a cache hit is tagged kCached by design.
bool same_estimates(const std::vector<core::PathEstimate>& a,
                    const std::vector<core::PathEstimate>& b);

/// Complete set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Runs setup() \p repeats times, keeping the last result, and records the
/// median wall time as setup_s.
template <typename Setup>
auto repeat_setup(int repeats, Result& result, Setup&& setup) {
  std::vector<double> times;
  auto t0 = Clock::now();
  auto state = setup();
  times.push_back(seconds_since(t0));
  for (int i = 1; i < repeats; ++i) {
    state.reset();
    t0 = Clock::now();
    state = setup();
    times.push_back(seconds_since(t0));
  }
  result.set("setup_s", median(times), "s");
  return state;
}

}  // namespace perfbench
