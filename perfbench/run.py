#!/usr/bin/env python3
"""Build and run the paper-workload benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload grover|gse --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload in its own process and prints one line per
metric (value, unit, sample count) followed by the one-line JSON result, whose
metrics must be exactly the BENCHMARK.json set for the trace mode (end_to_end
untraced, per_layer traced); a result that is not is withheld and the run fails.
--all runs every workload in turn.  The exit code is non-zero when any output
check failed or the build failed.

The benchmark is built from source (perfbench/CMakeLists.txt: the qadd
library from src/ plus the benchmark program) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  Build output goes to stderr.  Traced runs write
Chrome-trace JSON under the same build root, in perfbench-traces/.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["grover", "gse"]
RUN_TIMEOUT_S = 175


def build(root, build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    """{name: unit} of the manifest's metrics for this trace mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as manifest:
        metrics = json.load(manifest)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def result_problem(line, expected):
    """Why `line` is not a complete result line, or None."""
    try:
        result = json.loads(line)
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return "the last line is not a JSON result"
    missing = sorted(set(expected) - set(printed))
    extra = sorted(set(printed) - set(expected))
    wrong_unit = sorted(name for name in expected if name in printed
                        and printed[name] != expected[name])
    if missing or extra or wrong_unit:
        return f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong_unit}"
    return None


def run_workload(binary, build_root, workload, seed, seconds, trace, expected):
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--trace-dir", os.path.join(build_root, "perfbench-traces")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = output.splitlines()
    if lines:
        print("\n".join(lines[:-1]), flush=True)
    problem = result_problem(lines[-1] if lines else "", expected)
    if problem:
        print(f"perfbench: {workload}: {problem}; result withheld", file=sys.stderr)
        return 4
    print(lines[-1], flush=True)
    return process.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the repository root; src/CMakeLists.txt not found",
              file=sys.stderr)
        return 2
    try:
        expected = expected_metrics(root, args.trace)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"perfbench: cannot read the metric set from BENCHMARK.json: {error}",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(root, build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    sys.stdout.flush()
    workloads = WORKLOADS if args.all else [args.workload]
    codes = [run_workload(binary, build_root, w, args.seed, args.seconds, args.trace, expected)
             for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
