#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload project_large|sweep_grid|service_mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source tree.  The first run configures and builds
perfbench/ (the library from src/ plus the benchmark, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only check
the build is current.  The benchmark's output is passed through: a readable
summary, a "# stamp" line naming host and build, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full record of
each run, with the spans of traced runs, is written to .bench_out/.

Exits non-zero, printing no result, when the build or the run fails or the
result does not match the metrics BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("project_large", "sweep_grid", "service_mix")
# A run must end within 180 s; the build, when one is needed, has its own
# allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(directory):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", directory, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step failed: %s" % error)
            return None
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    binary = os.path.join(directory, "perfbench")
    return binary if os.path.exists(binary) else None


def source_id():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10,
                                  check=False)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as stream:
        spec = json.load(stream)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns the reason the last output line is not a valid result."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    declared = declared_metrics(trace)
    if declared is not None:
        printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
        if sorted(printed) != sorted(declared):
            return "metrics differ from BENCHMARK.json: %s" % sorted(
                set(printed) ^ set(declared))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 1

    work = os.path.join(directory, "work", str(os.getpid()))
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work", work, "--out", out, "--commit", source_id()]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as expired:
        partial = expired.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stderr.write(partial)
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    problem = ("benchmark exited with %d" % done.returncode
               if done.returncode != 0 else check_result(lines[-1], args.trace))
    if problem is not None:
        sys.stderr.write(done.stdout)
        log(problem)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
