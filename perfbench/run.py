#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <study|serve-scan|serve-hot> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo output goes to standard error. An untraced run (`--trace 0`) runs
the benchmark in PROCESSES separate processes, one after another, each
for an equal share of `--seconds`, and prints the first one's provenance
line and then one result line: correct when every process was correct,
operations summed, and each metric the median over the processes. Each
process lays out its memory, hash seeds and threads afresh, and a
process's figures move with that by up to about 10%; the median of
several processes moves less. A traced run (`--trace 1`) is one process,
whose lines are passed through unchanged.

The build lands in $CARGO_TARGET_DIR (default `.bench_build`). A failed
build, or a process that fails or prints no result, exits non-zero
without printing a result.
"""

import json
import math
import os
import statistics
import subprocess
import sys

# Processes per untraced run; the metrics are their medians.
PROCESSES = 3


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def with_option(args, name, value):
    args = list(args)
    if name in args and args.index(name) + 1 < len(args):
        args[args.index(name) + 1] = value
    else:
        args += [name, value]
    return args


def run_once(exe, args, env):
    """Runs one benchmark process; returns its provenance and result
    objects, or None when it failed or printed no result."""
    p = subprocess.run([exe] + args, env=env, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        return None
    try:
        return json.loads(lines[0]), json.loads(lines[-1])
    except ValueError:
        return None


def merge(results):
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    args = sys.argv[1:]
    if option(args, "--trace", "0") != "0":
        return subprocess.run([exe] + args, env=env).returncode
    try:
        seconds = int(option(args, "--seconds", "10"))
    except ValueError:
        return subprocess.run([exe] + args, env=env).returncode
    share = str(max(1, math.ceil(seconds / PROCESSES)))
    child_args = with_option(args, "--seconds", share)
    provenance, results = None, []
    for _ in range(PROCESSES):
        out = run_once(exe, child_args, env)
        if out is None:
            print("perfbench: a benchmark process failed", file=sys.stderr)
            return 1
        provenance = provenance or out[0]
        results.append(out[1])
    provenance["provenance"]["processes"] = (
        f"{PROCESSES} x {share} s, metrics are their medians"
    )
    print(json.dumps(provenance))
    print(json.dumps(merge(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
