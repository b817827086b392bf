#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the root of the repository. Builds the `vne-perfbench` binary
from source (release profile, offline, into $CARGO_TARGET_DIR or
`.bench_build`), prints one `# host {...}` line with the host facts,
then runs the binary and passes its output through: its last stdout
line is the result object. Extra flags (`--tiny`) go to the binary
unchanged.

    python3 perfbench/run.py --pin

re-measures the pinned window fingerprints and rewrites
`perfbench/pins.txt`. Re-pin only when a behaviour change is intended,
and say why in the commit that does it.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
# Everything the benchmark builds from; a missing entry means this is not
# a checkout of the repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "src", "shims", "perfbench"]
# The measured part of a run must end within this many seconds.
RUN_LIMIT = 170
# The workloads whose replays are checked against pinned fingerprints.
PINNED = ["olive_plan", "fullg_exact", "shard_span"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_facts():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu or platform.processor(),
        "rustc": command_output(["rustc", "--version"]),
        # A benchmark checkout need not be a git repository.
        "git_commit": (command_output(["git", "rev-parse", "HEAD"])
                       if os.path.exists(os.path.join(ROOT, ".git")) else None),
        "source_digest": source_digest(),
        "profile": "release",
    }


def build(env):
    """Builds the binary; its output goes to stderr, never stdout."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "vne-perfbench")


def run_binary(binary, args, env, deadline):
    """Runs the binary, passing its output through; returns its exit code."""
    with subprocess.Popen([binary] + args, cwd=ROOT, env=env) as proc:
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("run exceeded its time limit")


def pin(binary, env):
    lines = [subprocess.run([binary, "--workload", w, "--print-fingerprint"], cwd=ROOT,
                            env=env, capture_output=True, text=True, check=True).stdout
             for w in PINNED]
    print("".join(lines), end="", flush=True)
    with open(os.path.join(BENCH, "pins.txt"), "w") as f:
        f.write("".join(lines))


def main():
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        fail(f"not a checkout of the repository: missing {', '.join(missing)}")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if sys.argv[1:] == ["--pin"]:
        pin(binary, env)
        return 0
    facts = host_facts()
    env["PERFBENCH_HOST"] = json.dumps(facts, separators=(",", ":"))
    print("# host " + env["PERFBENCH_HOST"], flush=True)
    return run_binary(binary, sys.argv[1:], env, time.monotonic() + RUN_LIMIT)


if __name__ == "__main__":
    sys.exit(main())
