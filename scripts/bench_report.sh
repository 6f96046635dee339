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
#                             Tomcat model, plus the scaling of the advantage
#                             with the state-space size
#
# The bench binaries emit the records themselves when CHOREO_BENCH_JSON
# names a file (an env var because google-benchmark rejects unknown argv);
# --benchmark_filter skips the google-benchmark timing loops so only the
# report sections run.  See docs/performance.md for how to read the numbers.
#
# An existing build/ directory is reused with whatever generator configured
# it; a fresh checkout gets the CMake default.
set -e
cd "$(dirname "$0")/.."
cmake -B build
cmake --build build --target bench_statespace bench_service_throughput \
  bench_measures bench_fluid bench_sweep

CHOREO_BENCH_JSON="$PWD/BENCH_statespace.json" \
  ./build/bench/bench_statespace "--benchmark_filter=^$"
CHOREO_BENCH_JSON="$PWD/BENCH_service.json" \
  ./build/bench/bench_service_throughput "--benchmark_filter=^$"
CHOREO_BENCH_JSON="$PWD/BENCH_measures.json" \
  ./build/bench/bench_measures "--benchmark_filter=^$"
CHOREO_BENCH_JSON="$PWD/BENCH_fluid.json" \
  ./build/bench/bench_fluid "--benchmark_filter=^$"
CHOREO_BENCH_JSON="$PWD/BENCH_sweep.json" \
  ./build/bench/bench_sweep "--benchmark_filter=^$"

echo "wrote BENCH_statespace.json, BENCH_service.json, BENCH_measures.json," \
  "BENCH_fluid.json and BENCH_sweep.json"
