#!/usr/bin/env python3
"""ferrum-bench entry point.

    python3 ferrum-bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 ferrum-bench/run.py --selftest

Run from the root of a checkout. Builds the FERRUM libraries and the
benchmark from source (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs one workload. The benchmark's last stdout
line is the result object; it is checked against BENCHMARK.json's metric
lists before it is passed on. --selftest runs the correctness gate's
self-test instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("ferrum-bench: " + message, file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FERRUM source tree next to the benchmark (src/ is missing)")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "ferrum-bench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def run_bounded(command, cwd):
    """Runs to completion or kills after RUN_TIMEOUT_S; returns (code, out)."""
    process = subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE,
                               text=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        fail("%s did not finish within %d s" % (command[0], RUN_TIMEOUT_S))
    return process.returncode, out


def expected_metrics(trace):
    """{name: unit} the result line must carry, from BENCHMARK.json."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at the root of the checkout")
    with open(spec_path) as spec_file:
        spec = json.load(spec_file)
    group = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build(["gate_selftest"])
        code, out = run_bounded([os.path.join(build_dir, "gate_selftest")],
                                build_dir)
        sys.stdout.write(out)
        sys.exit(code)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    build_dir = build(["ferrum_bench"])
    # Sockets and the service's cache directories are created relative to
    # this directory, which keeps unix socket paths short.
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    code, out = run_bounded(
        [os.path.join(build_dir, "ferrum_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)], work_dir)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("benchmark printed no result line")
    expected = expected_metrics(args.trace == 1)
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("result metrics do not match BENCHMARK.json: missing %s, "
             "unexpected %s" % (sorted(set(expected) - set(got)),
                                sorted(set(got) - set(expected))))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
