#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the root of a source tree (it builds like run.py does).  Checks:

1. Every output checker fires: the benchmark's --selftest feeds each one a
   real output of the program, then a copy with one value corrupted.
2. Smoke runs: each workload at tiny size (Tomcat with 3 clients, a 2x2
   sweep grid, 20 service jobs), untraced and traced, twice with one seed.
   Every run reports correct: true with zero failed jobs (the traced runs
   include the byte-identity checks of the traced paths), prints exactly
   the metrics BENCHMARK.json declares, with their units, and the
   deterministic counts repeat exactly between the two traced runs.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark runner beside this file)

SEED = 11
DETERMINISTIC = ("explore.states", "explore.transitions", "explore.levels",
                 "explore.dedup_hits", "explore.canonical_rewrites",
                 "ctmc.solve_iterations", "sweep.points",
                 "service.cache_hit_ratio")

failures = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def smoke(workload, trace, cwd=ROOT, env=None):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
        check=False)
    return done


def main():
    binary = run.build(run.build_dir())
    expect(binary is not None, "benchmark builds")
    if binary is None:
        return 1

    checked = subprocess.run([binary, "--selftest"], capture_output=True,
                             text=True, timeout=120, check=False)
    expect(checked.returncode == 0,
           "every checker fires on a corrupted output\n" + checked.stdout)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            results = []
            for _ in range(2):
                done = smoke(workload, trace)
                if done.returncode != 0:
                    expect(False, "%s trace=%d runs: %s" %
                           (workload, trace, done.stderr[-2000:]))
                    break
                results.append(json.loads(done.stdout.splitlines()[-1]))
            if len(results) != 2:
                continue
            label = "%s trace=%d" % (workload, trace)
            for result in results:
                expect(result["correct"] and result["failed"] == 0 and
                       result["attempted"] > 0,
                       "%s: correct, %d attempted, %d failed" %
                       (label, result["attempted"], result["failed"]))
            declared = run.declared_metrics(trace)
            printed = [(name, metric["unit"])
                       for name, metric in results[0]["metrics"].items()]
            expect(sorted(printed) == sorted(declared),
                   "%s prints every declared metric with its unit" % label)
            if trace == 1:
                first, second = (r["metrics"] for r in results)
                for name in DETERMINISTIC:
                    expect(first[name]["value"] == second[name]["value"],
                           "%s: %s repeats (%r, %r)" %
                           (label, name, first[name]["value"],
                            second[name]["value"]))

    # A tree without the library sources cannot build: the benchmark must
    # say so through its exit code alone.
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        done = smoke("project_large", 0, cwd=bare, env=env)
        expect(done.returncode != 0 and done.stdout.strip() == "",
               "without sources: exit %d, no result printed" % done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
