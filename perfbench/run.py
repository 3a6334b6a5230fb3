#!/usr/bin/env python3
"""End-to-end benchmark of the die-to-design flow and open-loop serving.

Run from the repository root:

    python3 perfbench/run.py --workload serve_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table

The first call configures and builds the library and the benchmark from
source (CMake, Release) into .bench_build, or into $CARGO_TARGET_DIR when
that is set. A single workload's last stdout line is its JSON result;
`all` prints every metric by name with its unit and writes the results to
<build dir>/results.json. The exit code is non-zero when a build step or
any correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["design_flow", "serve_stream", "fleet_drift"]
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1

    if args.workload != "all":
        code, lines = run_workload(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
        sys.stdout.write("".join(line + "\n" for line in lines))
        return code

    results, ok = {}, True
    for workload in WORKLOADS:
        code, lines = run_workload(binary, workload, args.seed, args.seconds,
                                   args.trace)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        ok = ok and code == 0 and result is not None and result["correct"]
        results[workload] = result
        print("== %s (exit %d)" % (workload, code))
        if result is None:
            print("   no result")
            continue
        print("   correct %s, attempted %d, failed %d" % (
            result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("   %-44s %16.6g %s" % (name, m["value"], m["unit"]))
    path = os.path.join(build_dir(), "results.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "results": results}, f, indent=1)
    print("results -> %s" % path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
