#!/usr/bin/env python3
"""Builds the qcbench binary from source and runs one benchmark workload.

Usage (from the repository root):

    python3 qcbench/run.py --workload <t11_er|serve_mixed|big_ingest> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/qcbench (default .bench_build/qcbench);
run records and trace files go to .bench_out/. The last line of stdout is
the result object; it is printed only when its metric names and units
match BENCHMARK.json. The exit status is the benchmark's: 0 when every
operation was correct.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("t11_er", "serve_mixed", "big_ingest")


def fail(msg, code=1):
    print(f"qcbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to qcbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "qcbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "qcbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "qcbench")


def commit_of(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def check_result(line, root, traced):
    """The result line's shape and metric catalog against BENCHMARK.json."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are " + ", ".join(sorted(result))
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return ("metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}, units "
                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "qcbench")
    binary = build(root, build_dir)

    env = dict(os.environ, QCBENCH_COMMIT=commit_of(root))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(root, ".bench_out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise

    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if lines:
        print("\n".join(lines[:-1]))
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    try:
        problem = check_result(lines[-1], root, args.trace == "1")
    except (ValueError, KeyError, TypeError) as e:
        problem = f"unreadable result line: {e}"
    if problem:
        fail(problem)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
