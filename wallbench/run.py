#!/usr/bin/env python3
"""Build and run the wall-clock decision benchmark.

Usage, from the repository root:

    python3 wallbench/run.py --workload hot-fleet --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn and prints one result line
each, tagged with its `workload`.

Builds the benchmark (release, offline) against the repository's crates,
runs one workload in a child process, and prints the child's JSON result
line with the child's peak resident memory added as `peak_rss_mb`
(untraced runs). A traced run (`--trace 1`) reports the per-layer metrics
instead and writes its spans to `wallbench/out/`.

Exits non-zero without printing a result when the build fails, the run
fails its correctness gate, or the run overstays its time limit.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run that has not finished by then is killed and counts as failed.
RUN_LIMIT_S = 170
WORKLOADS = ["hot-fleet", "cold-burst", "tcp-hot"]


def build():
    """Build the benchmark binary and return its path."""
    proc = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", MANIFEST,
            "--message-format=json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "wallbench":
            return msg["executable"]
    return None


def run(exe, workload, seed, seconds, trace):
    """Run one workload in a child process; return its result, or None
    when it failed."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    if trace == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-seed%d.jsonl" % (workload, seed))]

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_LIMIT_S, child.kill)
    timer.start()
    try:
        output = child.stdout.read()
        # wait4 on this one child: its own peak RSS, not the compiler's.
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    if child.returncode != 0:
        print("wallbench: %s failed with exit code %d"
              % (workload, child.returncode), file=sys.stderr)
        return None

    lines = output.strip().splitlines()
    if not lines:
        print("wallbench: %s printed no result" % workload, file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if trace == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    exe = build()
    if exe is None:
        print("wallbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        result = run(exe, args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    # Every workload in turn, one result line each, tagged with its name.
    for workload in WORKLOADS:
        result = run(exe, workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(dict(workload=workload, **result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
