#!/usr/bin/env python3
"""Minimum-scale self-test of the repo benchmark (takes a few minutes).

Run from the repository root:  python3 perfbench/selftest.py

For every workload, untraced and traced at --seconds 1, it checks that the
command exits 0, that its last stdout line has exactly the result keys, that
the metric names and units it prints are exactly those BENCHMARK.json declares
for the mode, that every correctness check ran and passed, and that the run
printed its output digest and provenance. Finally it checks that the command
fails without printing a result in a directory holding only BENCHMARK.json
and perfbench/ (no src/ to build).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Info lines proving each workload's correctness check ran.
CHECK_LINES = {
    "offline_cold": "nets checked bitwise against estimate()",
    "serve_repeat": "every served response is checked",
    "eco_loop": "edits verified bitwise against a fresh full run_sta",
}

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_workload(workload, trace):
    tag = "%s trace=%d" % (workload, trace)
    proc = run(workload, trace)
    expect(proc.returncode == 0, tag + ": exit code %d\n%s" % (proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, tag + ": no output")
        return
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           tag + ": result keys " + str(sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0, tag + ": checks failed")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           tag + ": attempted " + str(result["attempted"]))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(printed == declared, tag + ": names/units differ from BENCHMARK.json: "
           "missing %s, extra %s, unit mismatches %s" % (
               sorted(set(declared) - set(printed)), sorted(set(printed) - set(declared)),
               sorted(n for n in printed if n in declared and printed[n] != declared[n])))
    if not trace:
        zero = [n for n, m in result["metrics"].items() if m["value"] <= 0]
        expect(not zero, tag + ": end-to-end metrics not positive: " + str(zero))
    text = proc.stdout
    expect(CHECK_LINES[workload] in text, tag + ": correctness check line missing")
    expect("digest " in text, tag + ": output digest missing")
    expect("provenance: " in text and "build_type RelWithDebInfo" in text,
           tag + ": provenance missing")


def check_without_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect('"metrics"' not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    expect(sorted(names) == sorted(CHECK_LINES), "workloads differ: " + str(names))
    for workload in names:
        for trace in (0, 1):
            print("selftest: %s --trace %d" % (workload, trace), flush=True)
            check_workload(workload, trace)
    print("selftest: bare directory", flush=True)
    check_without_sources()
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
