#!/usr/bin/env sh
# Tier-1 verification, exactly as ROADMAP.md specifies:
#   cmake -B build -S . && cmake --build build -j && cd build && ctest ...
# Every build and ctest call gets an explicit job count, -j "$(nproc)":
# ctest ignores a trailing bare -j (it ran serially) and reads
# `-j -L faults` as a job count of `-L`, running every entry.
#
# Usage:
#   tools/run_tier1.sh                 # plain build + ctest
#   tools/run_tier1.sh --faults        # build + only the fault-injection
#                                      # suite (ctest label `faults`)
#   tools/run_tier1.sh --tsan          # ThreadSanitizer pass over every
#                                      # suite that reaches the pool
#                                      # (test_graph, test_runtime,
#                                      # test_congest, test_paths,
#                                      # test_faults, test_theorem11,
#                                      # test_service, test_datasets,
#                                      # test_dynamic, test_core)
#   tools/run_tier1.sh --bench-gate    # re-run bench_congest_sim (plus
#                                      # the bench_datasets,
#                                      # bench_dynamic,
#                                      # bench_theorem11_scaling and
#                                      # bench_service smoke tiers) and
#                                      # diff against the committed
#                                      # BENCH_congest_sim.json /
#                                      # BENCH_datasets.json /
#                                      # BENCH_dynamic.json /
#                                      # BENCH_theorem11.json /
#                                      # BENCH_service.json via
#                                      # tools/check_bench_regression.py
#   QC_SANITIZE=thread tools/run_tier1.sh   # sanitized build (own tree):
#                                           # address | undefined |
#                                           # address,undefined | thread
#   QC_SANITIZE=address,undefined tools/run_tier1.sh
#                                      # ASan and UBSan in one build, full
#                                      # ctest (tree: build-address-undefined)
#
# With a fork/join pool in src/runtime that the graph kernels, the
# simulator's round loop, the Theorem 1.1 oracle, Algorithm 5's overlay
# sub-runs (test_paths, test_faults, test_theorem11, test_core), the
# dataset pipeline and the query service all fan out over, the TSan
# configuration is the one that matters most; sanitized builds use
# build-<sanitizer>/ so they never pollute the primary build tree.
# `--tsan` is the quick opt-in: it builds with QC_SANITIZE=thread and
# runs only the suites that reach the pool, rather than the full (slow
# under TSan) ctest sweep.
set -eu

cd "$(dirname "$0")/.."

TSAN_ONLY=0
FAULTS_ONLY=0
BENCH_GATE=0
for arg in "$@"; do
  case "$arg" in
    --tsan) TSAN_ONLY=1 ;;
    --faults) FAULTS_ONLY=1 ;;
    --bench-gate) BENCH_GATE=1 ;;
    *)
      echo "usage: tools/run_tier1.sh [--tsan] [--faults] [--bench-gate]" >&2
      exit 2
      ;;
  esac
done

if [ "$BENCH_GATE" -eq 1 ]; then
  # Perf regression gate: re-run the simulator bench (base graph only —
  # the committed --large rows are compared when present-and-benched,
  # skipped otherwise) and diff it against the committed JSON. The
  # identity flags must hold on any machine; speedups are only compared
  # when spec.hardware_workers matches the baseline's, so a different
  # box degrades to a determinism-only gate instead of flaking.
  BUILD_DIR=build
  # Fail fast before any bench rerun: every committed baseline must
  # carry its acceptance block. A truncated or hand-edited JSON would
  # otherwise sail through the diff (no rows to compare) and only bite
  # when the next full regeneration overwrote it.
  python3 tools/check_bench_regression.py --require-acceptance \
    BENCH_congest_sim.json BENCH_datasets.json BENCH_dynamic.json \
    BENCH_theorem11.json BENCH_service.json
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
    bench_congest_sim bench_datasets bench_dynamic bench_theorem11_scaling \
    bench_service
  "$BUILD_DIR/bench/bench_congest_sim" --out "$BUILD_DIR/BENCH_fresh.json"
  python3 tools/check_bench_regression.py \
    --baseline BENCH_congest_sim.json --fresh "$BUILD_DIR/BENCH_fresh.json"
  # Dataset-layer gate: the smoke tier re-runs the whole pipeline
  # (identity flags + RSS acceptance); the committed 1e5/1e6 rows are
  # skipped-not-failed because their n is absent from a smoke run.
  "$BUILD_DIR/bench/bench_datasets" --smoke \
    --out "$BUILD_DIR/BENCH_datasets_fresh.json"
  python3 tools/check_bench_regression.py \
    --baseline BENCH_datasets.json \
    --fresh "$BUILD_DIR/BENCH_datasets_fresh.json"
  # Dynamic-update gate: the smoke tier replays an update/read script on
  # both cache policies at workers 1/2/8 (identity flags + the
  # identical_to_scratch acceptance key); the committed full-size rows
  # are skipped-not-failed because their n is absent from a smoke run.
  "$BUILD_DIR/bench/bench_dynamic" --smoke \
    --out "$BUILD_DIR/BENCH_dynamic_fresh.json"
  python3 tools/check_bench_regression.py \
    --baseline BENCH_dynamic.json \
    --fresh "$BUILD_DIR/BENCH_dynamic_fresh.json"
  # Theorem 1.1 oracle gate: the smoke tier runs the driver at
  # oracle_workers 1/2/8 (identity flags + the worker-count acceptance
  # key); the committed n=2048 rows are skipped-not-failed because their
  # n is absent from a smoke run.
  "$BUILD_DIR/bench/bench_theorem11_scaling" --smoke \
    --out "$BUILD_DIR/BENCH_theorem11_fresh.json"
  python3 tools/check_bench_regression.py \
    --baseline BENCH_theorem11.json \
    --fresh "$BUILD_DIR/BENCH_theorem11_fresh.json"
  # Service gate: the smoke tier re-runs the determinism checks (worker
  # counts with concurrent clients, batch sizes, cold engines) that set
  # every row's identical flag; the committed n=512 rows are
  # skipped-not-failed because their n is absent from a smoke run.
  "$BUILD_DIR/bench/bench_service" --smoke \
    --out "$BUILD_DIR/BENCH_service_fresh.json"
  python3 tools/check_bench_regression.py \
    --baseline BENCH_service.json \
    --fresh "$BUILD_DIR/BENCH_service_fresh.json"
  exit 0
fi

if [ "$TSAN_ONLY" -eq 1 ]; then
  BUILD_DIR=build-thread
  cmake -B "$BUILD_DIR" -S . -DQC_SANITIZE=thread
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
    test_graph test_runtime test_congest test_paths test_faults \
    test_theorem11 test_service test_datasets test_dynamic test_core
  # Run the binaries directly: gtest_discover_tests registers per-test
  # ctest entries at build time, so a target-filtered build may not have
  # a complete ctest manifest.
  "$BUILD_DIR/tests/test_graph"
  "$BUILD_DIR/tests/test_runtime"
  "$BUILD_DIR/tests/test_congest"
  "$BUILD_DIR/tests/test_paths"
  "$BUILD_DIR/tests/test_faults"
  # The Theorem 1.1 driver suite exercises the pool-parallel oracle
  # (ensure_rows fan-out + concurrent evaluate_set) and Algorithm 5's
  # concurrent sub-runs at workers > 1.
  "$BUILD_DIR/tests/test_theorem11"
  # The service suite hammers QueryEngine from concurrent client
  # threads (submit/drain/shutdown races, admission counter, metrics
  # registry under contention).
  "$BUILD_DIR/tests/test_service"
  # The sharded CSR build over per-shard readers.
  "$BUILD_DIR/tests/test_datasets"
  # QueryEngine updates: delta repair of the warm tables on the pool.
  "$BUILD_DIR/tests/test_dynamic"
  # Theorem 1.1 at the default oracle_workers = 0 (hardware concurrency).
  "$BUILD_DIR/tests/test_core"
  exit 0
fi

if [ "$FAULTS_ONLY" -eq 1 ]; then
  # Fault-injection suite only (tests/test_faults.cpp, ctest label
  # `faults`): determinism across worker counts, empty-plan identity,
  # per-class fault events, robust primitives.
  BUILD_DIR=build
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_faults
  cd "$BUILD_DIR"
  ctest --output-on-failure -j "$(nproc)" -L faults
  exit 0
fi

BUILD_DIR=build
CMAKE_EXTRA=""
if [ -n "${QC_SANITIZE:-}" ]; then
  case "$QC_SANITIZE" in
    address|undefined|address,undefined|thread) ;;
    *)
      echo "error: QC_SANITIZE must be address, undefined," \
        "address,undefined, or thread" >&2
      exit 2
      ;;
  esac
  BUILD_DIR="build-$(printf '%s' "$QC_SANITIZE" | tr ',' '-')"
  CMAKE_EXTRA="-DQC_SANITIZE=$QC_SANITIZE"
fi

# shellcheck disable=SC2086  # CMAKE_EXTRA is intentionally word-split
cmake -B "$BUILD_DIR" -S . $CMAKE_EXTRA
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"
