// The three workloads. Each builds its inputs from Options::seed only, runs
// untimed set-up several times (setup_s), measures for Options::seconds, and
// checks the program's outputs. With Options::trace it instead runs the
// traced replay that fills the per-layer metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_offline_cold(const Options& options, Result& result);
void run_serve_repeat(const Options& options, Result& result);
void run_eco_loop(const Options& options, Result& result);

/// From interleaved untraced/traced times of one workload unit: trace.overhead_pct
/// is the median difference when it exceeds the untraced runs' own spread
/// (trace.noise_pct), otherwise 0 with trace.within_noise = 1 — never a
/// negative overhead.
void report_tracing_overhead(const std::vector<double>& untraced,
                             const std::vector<double>& traced, Result& result);

}  // namespace perfbench
