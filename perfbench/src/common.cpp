#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "features/dataset.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double relative_iqr(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  // statistics.quantiles(method="exclusive"): position j*(n+1)/4, 1-based.
  auto at = [&](double pos) {
    pos = std::clamp(pos, 1.0, n);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size());
    return v[lo - 1] + (pos - static_cast<double>(lo)) * (v[hi - 1] - v[lo - 1]);
  };
  const double med = median(v);
  return med == 0.0 ? 0.0 : (at(3.0 * (n + 1.0) / 4.0) - at((n + 1.0) / 4.0)) / med;
}

// ---- CpuRotation -------------------------------------------------------------

CpuRotation::CpuRotation() {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  ::sched_setaffinity(0, sizeof one, &one);
}

// ---- SpanLog ---------------------------------------------------------------

std::int32_t SpanLog::begin(std::string_view name, std::int32_t parent) {
  Span s;
  s.name = std::string(name);
  s.parent = parent;
  s.begin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(std::move(s));
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
}

double SpanLog::seconds(std::int32_t id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
}

double SpanLog::total_seconds(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) total += static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
  return total;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  static_cast<double>(s.begin_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i, s.parent);
    out << (i ? "," : "") << "{\"name\":\"" << s.name << "\"," << buf;
  }
  out << "]}\n";
}

// ---- Host calibration --------------------------------------------------------

namespace {

/// Fixed integer work that the optimizer cannot elide or vectorize away.
std::uint64_t burn(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

volatile std::uint64_t g_sink = 0;

}  // namespace

void calibrate_host(Result& result) {
  constexpr std::uint64_t kWork = 15'000'000;  // ~40 ms of one core
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Single-thread reference loop: median of three.
  std::vector<double> ref;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    g_sink = burn(kWork, static_cast<std::uint64_t>(r) + 1);
    ref.push_back(seconds_since(t0));
  }
  const double t1 = median(ref);
  // Every thread does the same fixed work; on T real cores the wall time
  // stays at t1, on one core it grows T-fold.
  double effective = 1.0;
  for (unsigned t = 2; t <= nproc; ++t) {
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < t; ++i)
      threads.emplace_back([i] { g_sink = burn(kWork, i + 7); });
    for (std::thread& th : threads) th.join();
    effective = std::max(effective, static_cast<double>(t) * t1 / seconds_since(t0));
  }
  result.set("host.nproc", static_cast<double>(nproc), "count");
  result.set("host.effective_parallelism", effective, "cores");
  result.set("host.ref_loop_ms", t1 * 1e3, "ms");
  char line[160];
  std::snprintf(line, sizeof line,
                "host: nproc %u, effective parallelism %.2f, reference loop %.2f ms",
                nproc, effective, t1 * 1e3);
  result.note(line);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and so would
  // report the launching interpreter's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

core::WireTimingEstimator train_model(const cell::CellLibrary& library) {
  features::WireDatasetConfig data;
  data.net_count = 32;
  data.seed = 1;
  const std::vector<features::WireRecord> records =
      features::generate_wire_records(data, library);
  core::WireTimingEstimator::Options options;  // CLI-default architecture
  options.kind = nn::ModelKind::kGnnTrans;
  options.model.seed = 1;
  options.train.epochs = 2;
  return core::WireTimingEstimator::train(records, options);
}

// ---- Digest ------------------------------------------------------------------

void Digest::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(const std::vector<core::PathEstimate>& paths) {
  for (const core::PathEstimate& pe : paths) {
    add(&pe.sink, sizeof pe.sink);
    add(pe.slew);
    add(pe.delay);
  }
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

bool same_estimates(const std::vector<core::PathEstimate>& a,
                    const std::vector<core::PathEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].sink != b[i].sink ||
        std::memcmp(&a[i].slew, &b[i].slew, sizeof(double)) != 0 ||
        std::memcmp(&a[i].delay, &b[i].delay, sizeof(double)) != 0)
      return false;
  return true;
}

}  // namespace perfbench
