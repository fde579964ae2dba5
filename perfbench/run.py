#!/usr/bin/env python3
"""Repo benchmark: builds the perfbench driver from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload offline_cold --seed 1 --seconds 10 --trace 0

Workloads: offline_cold, serve_repeat, eco_loop (see perfbench/README.md).
--trace 0 prints the end-to-end metrics; --trace 1 runs the separate traced
replay and prints the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when the build succeeded, the run finished and every correctness check passed.

The build goes to .bench_build/perfbench (RelWithDebInfo, the repo's default);
inputs, span logs and full result records go to .bench_build/work.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BUILD_TYPE = "RelWithDebInfo"
SPEC_PATH = ROOT / "BENCHMARK.json"
# Metric name prefixes of layers that only one workload puts on its path;
# other workloads report them as 0. Every other declared metric must be
# measured by every workload.
ON_PATH_ONLY = {
    "serve.": "serve_repeat",
    "gen.": "serve_repeat",
    "netlist.": "eco_loop",
    "core.cache_lookups_per_edit": "eco_loop",
}
LINES = "lines."


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (first time) and builds the driver; returns the binary path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log("perfbench: build failed; last lines of " + str(build_log) + ":")
                log("".join(open(build_log).readlines()[-20:]))
                return None
    return BUILD / "perfbench"


def cmake_cache(key):
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines() if cache.exists() else []:
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def provenance():
    """Build type, compiler and source identity recorded next to the numbers."""
    try:
        # The ceiling keeps git from reporting an enclosing repository's HEAD.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = compiler
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": version,
    }


def line_count(name, modules):
    """lines.<module>: .cpp/.hpp lines under src/<module> (core_telemetry is
    src/core/telemetry), without the lines of a nested module; lines.total
    sums the modules."""
    if name == LINES + "total":
        return sum(line_count(m, modules) for m in modules)
    base = ROOT / "src" / name[len(LINES):].replace("_", "/")
    nested = [ROOT / "src" / m[len(LINES):].replace("_", "/") for m in modules]
    nested = [n for n in nested if base in n.parents]
    total = 0
    for path in base.rglob("*") if base.is_dir() else []:
        if path.suffix in (".cpp", ".hpp") and not any(n in path.parents for n in nested):
            total += len(path.read_text(errors="replace").splitlines())
    return total


def select_metrics(measured, spec, workload, trace):
    """The mode's metrics as BENCHMARK.json declares them: each measured one
    with its declared unit, layers off this workload's path as 0, and the
    lines.* counts. Raises ValueError when the driver and the spec disagree."""
    declared = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        raise ValueError("measured but not declared: " + ", ".join(unknown))
    modules = [m["name"] for m in declared
               if m["name"].startswith(LINES) and m["name"] != LINES + "total"]
    out = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name.startswith(LINES):
            out[name] = {"value": line_count(name, modules), "unit": unit}
        elif name in measured:
            if measured[name]["unit"] != unit:
                raise ValueError("unit of %s: measured %s, declared %s" % (
                    name, measured[name]["unit"], unit))
            out[name] = measured[name]
        elif any(name.startswith(p) and w != workload for p, w in ON_PATH_ONLY.items()):
            out[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError("declared but not measured: " + name)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads(SPEC_PATH.read_text())
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    timeout = args.seconds + 120

    binary = build()
    if binary is None:
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    out_path = WORK / ("result-" + tag + ".json")
    if out_path.exists():
        out_path.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path), "--work-dir", str(WORK)]
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %g s" % timeout)
        return 2
    if proc.returncode != 0 or not out_path.exists():
        log("perfbench: driver failed with exit code %d" % proc.returncode)
        return 2
    record = json.loads(out_path.read_text())
    try:
        metrics = select_metrics(record["metrics"], spec, args.workload, args.trace)
    except ValueError as e:
        log("perfbench: " + str(e))
        return 2
    prov = provenance()

    for line in record["info"]:
        print(line)
    print("provenance: " + ", ".join("%s %s" % kv for kv in prov.items()))
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print("  %-*s %16.6g %s" % (width, name, m["value"], m["unit"]))
    print("ops %d, ops_failed %d, correct %s" % (
        record["attempted"], record["failed"], record["correct"]))
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    (WORK / ("record-" + tag + ".json")).write_text(
        json.dumps(dict(result, provenance=prov, info=record["info"]), indent=1))
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
