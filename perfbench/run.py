#!/usr/bin/env python3
"""Builds and runs the repo's wall-clock benchmark (see README.md here).

    python3 perfbench/run.py --workload soak|crowd|fleet|table8 \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
libraries under src/ plus the benchmark binary into .bench_build/perfbench
(build output goes to stderr); later runs only check the build is current.
The benchmark's stdout is passed through; its last line is the JSON result.

The run is bounded: a benchmark process that outlives its wall-clock budget
is killed and the run fails with a named error. Leftover fleet socket
directories are removed on every exit path.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("soak", "crowd", "fleet", "table8")
# Backstops that keep a first run (configure + build + run) within 900 s.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 600
RUN_LIMIT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_step(cmd, timeout):
    """Runs one build step with its output on stderr; on a timeout the
    step's whole process group (compilers included) is killed."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"build step timed out: {' '.join(cmd)}")
    if code != 0:
        fail(f"build step failed ({code}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from "
             "a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd, CONFIGURE_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "--parallel", jobs], BUILD_TIMEOUT_S)


def remove_socket_dirs(pid):
    for path in glob.glob(os.path.join(ROOT, BUILD_DIR, f"fleet-{pid}-*")):
        shutil.rmtree(path, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", BUILD_DIR]
    # The benchmark bounds itself; this is the backstop for a hang.
    limit = min(RUN_LIMIT_S, 60 + 6 * args.seconds)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        remove_socket_dirs(proc.pid)
        fail(f"{args.workload}: benchmark exceeded its {limit:.0f} s "
             "wall-clock budget and was killed", 3)
    remove_socket_dirs(proc.pid)
    text = out.decode("utf-8", "replace")
    if proc.returncode != 0:
        sys.stderr.write(text)
        fail(f"{args.workload}: benchmark exited with {proc.returncode}", 3)
    lines = text.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        problem = complete_metrics(result, args.trace)
    except (IndexError, ValueError) as err:
        problem = f"no JSON result on the last line ({err})"
    if problem:
        sys.stderr.write(text)
        fail(f"{args.workload}: {problem}", 3)
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


def complete_metrics(result, trace):
    """Checks the result's metrics against BENCHMARK.json, the one list of
    metric names and units. A traced run reports the layers its workload
    exercises; the others are added here as 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    unexpected = sorted(set(metrics) - set(declared))
    wrong_unit = sorted(name for name in set(metrics) & set(declared)
                        if metrics[name]["unit"] != declared[name])
    missing = sorted(set(declared) - set(metrics))
    if unexpected or wrong_unit or (missing and not trace):
        return (f"metrics differ from BENCHMARK.json: unexpected {unexpected}"
                f", unit mismatch {wrong_unit}, missing {missing}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    result["metrics"] = dict(sorted(metrics.items()))
    return None


if __name__ == "__main__":
    main()
