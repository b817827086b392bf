#!/usr/bin/env python3
"""Smoke test of the benchmark, in seconds.

    python3 perfbench/smoke.py

Run from the root of the repository. Checks `BENCHMARK.json` against
the benchmark contract, runs every workload at tiny size (`--tiny`),
the unlisted `fullg_exact` too, untraced and traced, and checks each result line's schema: exactly the
keys `correct`, `attempted`, `failed`, `metrics`, a correct run, and
every declared metric with its declared unit. Finally it runs the
benchmark in a directory holding only `BENCHMARK.json` and `perfbench/`
and expects it to fail without printing a result. Exits 0 when every
check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Workloads the binary runs that `BENCHMARK.json` does not list (see
# NOTES.md); the smoke test keeps them working.
UNLISTED = ["fullg_exact"]
failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def check_manifest(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    expect(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds is a whole number from 1 to 60")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               f"workload {w['name']} has a one-line why")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    expect(all(NAME.match(n) for n in names), "names are well formed")
    expect(len(names) == len(set(names)), "names are used once")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
           "units and directions are well formed")
    expect(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]), "setup_s is an end-to-end metric")


def run(cwd, workload, trace, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace, ["--tiny"])
    lines = proc.stdout.strip().splitlines()
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{tag} exits 0 (stderr: {proc.stderr[-500:]})")
    if not lines:
        expect(False, f"{tag} prints a result")
        return
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag} result keys")
    expect(result.get("correct") is True, f"{tag} is correct")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{tag} attempted is a whole number >= 1")
    expect(isinstance(result.get("failed"), int), f"{tag} failed is a whole number")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    expect(list(metrics) == [m["name"] for m in declared], f"{tag} reports every declared metric")
    for m in declared:
        got = metrics.get(m["name"], {})
        expect(set(got) == {"value", "unit"} and got.get("unit") == m["unit"]
               and isinstance(got.get("value"), (int, float)),
               f"{tag} {m['name']} has a value in {m['unit']}")
    print(f"ok   {tag}: {result['attempted']} attempted, {len(metrics)} metrics", flush=True)


def check_bare_directory():
    """The benchmark must fail, printing no result, outside a checkout."""
    bare = os.path.join(ROOT, "perfbench", "out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "olive_plan", 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and '"correct"' not in last,
           "a directory with only the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory fails", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_manifest(spec)
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED:
        for trace in (0, 1):
            check_result(spec, name, trace)
    check_bare_directory()
    print("smoke: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
