// perfbench — the repo benchmark's driver binary. perfbench/run.py builds it
// and runs it as
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out FILE
//             --work-dir DIR
// It writes one JSON document to FILE: correct/attempted/failed, every metric
// it measured with its unit, and human-readable info lines. run.py picks the
// mode's metrics from BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "core/telemetry/log.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void write_result(const std::string& path, const Result& result) {
  std::ofstream out(path);
  out << "{\"correct\":" << (result.correct() ? "true" : "false")
      << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (first ? "" : ",") << json_string(name) << ":{\"value\":" << value
        << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  out << "},\"info\":[";
  for (std::size_t i = 0; i < result.info.size(); ++i)
    out << (i ? "," : "") << json_string(result.info[i]);
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--out") o.out_path = value;
    else if (key == "--work-dir") o.work_dir = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (o.workload.empty() || o.out_path.empty())
    throw std::invalid_argument("--workload and --out are required");
  return o;
}

}  // namespace

void report_tracing_overhead(const std::vector<double>& untraced,
                             const std::vector<double>& traced, Result& result) {
  const double base = median(untraced);
  const double diff_pct = 100.0 * (median(traced) - base) / base;
  const double noise_pct = 100.0 * relative_iqr(untraced);
  const bool within = diff_pct <= noise_pct;
  result.set("trace.overhead_pct", within ? 0.0 : diff_pct, "%");
  result.set("trace.noise_pct", noise_pct, "%");
  result.set("trace.within_noise", within ? 1.0 : 0.0, "bool");
  char line[200];
  std::snprintf(line, sizeof line,
                "tracing overhead: %s (traced %+.2f%% vs untraced median over %zu+%zu "
                "interleaved units; untraced spread %.2f%%)",
                within ? "within noise" : "measured", diff_pct, untraced.size(),
                traced.size(), noise_pct);
  result.note(line);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse_args(argc, argv);
    gnntrans::telemetry::Logger::global().set_level(gnntrans::telemetry::LogLevel::kError);
    Result result;
    if (options.workload == "offline_cold") {
      run_offline_cold(options, result);
    } else if (options.workload == "serve_repeat") {
      run_serve_repeat(options, result);
    } else if (options.workload == "eco_loop") {
      run_eco_loop(options, result);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    calibrate_host(result);
    write_result(options.out_path, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
