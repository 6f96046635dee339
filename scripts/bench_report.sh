#!/bin/sh
# Regenerates the committed machine-readable benchmark artefacts:
#
#   BENCH_statespace.json  -- state-space exploration (model, states,
#                             seconds, states/sec, lane-count sweep, the
#                             lanes x size sweep over the pepa::families
#                             parametric models up to 10^6+ states, and the
#                             quotient-direct lane: full chains of 10^6 to
#                             4e10 states derived as their tiny
#                             strong-equivalence quotients, with a
#                             memory_reduction = full/quotient column)
#   BENCH_service.json     -- service scheduler throughput (workers,
#                             cold/warm cache, jobs/sec, p50/p99 latency)
#   BENCH_measures.json    -- per-action measure lookup cost on the
#                             CSR-indexed transition system vs. a flat scan,
#                             and per-UML-state state_probability cost on
#                             the local-state index (plus its one-time
#                             build) vs. the per-state scan, Tomcat state
#                             machines at 3-12 clients
#   BENCH_fluid.json       -- fluid (mean-field ODE) backend scaling: solve
#                             cost flat in the client count up to 10^6, and
#                             agreement with the exact population chain
#   BENCH_sweep.json       -- design-space sweep amortization: one
#                             derive-once sweep vs K independent jobs on the
#                             Tomcat model, the scaling of the advantage
#                             with the state-space size, and the per-point
#                             layers (rebind, assembly, solve) of the
#                             end-to-end benchmark's sweep_grid model
#
# The bench binaries emit the records themselves when CHOREO_BENCH_JSON
# names a file (an env var because google-benchmark rejects unknown argv);
# --benchmark_filter skips the google-benchmark timing loops so only the
# report sections run.  Every record is stamped with the host, compiler,
# build type and commit (CHOREO_BENCH_COMMIT, with "-dirty" when the tree
# has uncommitted changes).  See docs/performance.md for how to read the
# numbers.
#
# Usage: scripts/bench_report.sh [statespace|service|measures|fluid|sweep]...
# regenerates the named artefacts, or all five when none is named.
#
# An existing build/ directory is reused with whatever generator configured
# it; a fresh checkout gets the CMake default.
set -e
cd "$(dirname "$0")/.."
cmake -B build

CHOREO_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  CHOREO_BENCH_COMMIT="$CHOREO_BENCH_COMMIT-dirty"
fi
export CHOREO_BENCH_COMMIT

for name in ${*:-statespace service measures fluid sweep}; do
  case "$name" in
    statespace) target=bench_statespace ;;
    service) target=bench_service_throughput ;;
    measures) target=bench_measures ;;
    fluid) target=bench_fluid ;;
    sweep) target=bench_sweep ;;
    *) echo "bench_report.sh: unknown artefact '$name'" >&2; exit 1 ;;
  esac
  cmake --build build --target "$target"
  CHOREO_BENCH_JSON="$PWD/BENCH_$name.json" \
    "./build/bench/$target" "--benchmark_filter=^$"
  echo "wrote BENCH_$name.json"
done
