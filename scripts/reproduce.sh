#!/bin/sh
# Rebuilds everything, runs the full test suite and every experiment bench,
# and records the transcripts EXPERIMENTS.md refers to.  The concurrent
# analysis service is additionally stress-tested under ThreadSanitizer.
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

# The end-to-end benchmark's own test, as CI's benchmark-selftest job runs
# it.  perfbench/cpp/traced_pipeline.cpp mirrors the library call for call
# (pepa::Semantics, the sweep's SharedStructure), so a change there must
# keep it building and its smoke runs correct.  It builds in the ignored
# .bench_build/.
python3 perfbench/selftest.py

# Data-race check: parallel exploration and the service concurrency tests
# under TSan.  test_parallel_statespace is the heaviest workload: many
# exploration lanes over one shared arena + semantics, plus concurrent
# service jobs each deriving with multiple lanes.
cmake -B build-tsan -G Ninja -DCHOREO_SANITIZE=thread
cmake --build build-tsan --target test_parallel_statespace test_service \
  test_metrics test_util test_quotient test_pepa_semantics test_pepa_ast \
  test_leaf_vector_derive test_explore_engine test_golden_artifacts \
  test_generator_oracle test_pepa_statespace test_fluid test_sweep
./build-tsan/tests/test_parallel_statespace 2>&1 | tee tsan_output.txt
./build-tsan/tests/test_service 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_metrics 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_util \
  --gtest_filter='ThreadPool.*:SegmentedVector.*:SlotArray.*:BumpArena.*:CountingSort.*:RetainedMemory.*' \
  2>&1 | tee -a tsan_output.txt
# The fluid solve is single-threaded; this run guards the shared arena and
# semantics caches it leans on.
./build-tsan/tests/test_fluid 2>&1 | tee -a tsan_output.txt
# Sweep points evaluated concurrently over one shared rate tape, generator
# pattern and throughput streams, read-only.
./build-tsan/tests/test_sweep 2>&1 | tee -a tsan_output.txt
# Quotient-direct derivation sorts keys (PEPA) and markings (nets) in the
# expansion lanes; the lane-count determinism checks run under TSan too.
./build-tsan/tests/test_quotient 2>&1 | tee -a tsan_output.txt
# The leaf-vector derive against the term derive at several lane counts.
./build-tsan/tests/test_leaf_vector_derive 2>&1 | tee -a tsan_output.txt
# The engine's edge cases, and the goldens derived at lanes 1, 2 and 8: the
# lanes write each level's transitions while the next level expands.
./build-tsan/tests/test_explore_engine 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_golden_artifacts 2>&1 | tee -a tsan_output.txt
# The generator's counting sorts and fill, and the local-state index, split
# over the derive's lanes.
./build-tsan/tests/test_generator_oracle 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_pepa_statespace 2>&1 | tee -a tsan_output.txt
# The semantics memo and the arena's intern tables under concurrent use.
./build-tsan/tests/test_pepa_semantics 2>&1 | tee -a tsan_output.txt
./build-tsan/tests/test_pepa_ast 2>&1 | tee -a tsan_output.txt

# Memory-safety check: one quotient-direct derivation (the layout's union
# tables and the key sort, and the canonicalizer that builds them) end to
# end under ASan+UBSan.
cmake -B build-asan -G Ninja -DCHOREO_SANITIZE=address,undefined
cmake --build build-asan --target pepa_workbench test_quotient
./build-asan/src/tools/pepa_workbench models/file.pepa --quotient --aggregate \
  --states 2>&1 | tee asan_output.txt
./build-asan/tests/test_quotient 2>&1 | tee -a asan_output.txt

# Machine-readable bench artefacts (BENCH_statespace.json, BENCH_service.json).
scripts/bench_report.sh
