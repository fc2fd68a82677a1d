#!/usr/bin/env bash
# One-shot gates, one label each:
#
#   tools/check.sh analysis [build-dir]   default build dir: build-analysis
#       Builds the tree under clang with the thread-safety analysis enforced
#       (EMI_THREAD_SAFETY=ON), then runs the `analysis` ctest label
#       (unit_lint + det_lint + negative-compile batteries). Without a
#       clang++ on PATH the thread-safety build is impossible: the gate then
#       runs the compiler-independent `analysis` tests from the existing
#       default build (if present) and exits 0 with a SKIP notice, so it
#       stays usable on gcc-only machines.
#
#   tools/check.sh serve [build-dir]      default build dir: build
#       Builds, then runs the `serve` label (queue/admission/backoff/service/
#       server/wire/codec batteries) followed by the `soak` label (daemon-
#       level fault soak: kill -9 recovery, overload shed + polite retry,
#       wedge watchdog, poison quarantine, graceful drain - with bit-identity
#       checks against an unloaded reference), then BM_ServeSocketRoundTrip:
#       SUBMIT -> RESULT over the Unix socket against a warm 2-executor
#       service, 1 and 4 clients, p50 round trip in ms as a counter (skipped
#       with a notice when bench_serve was not built). Not registered as a
#       ctest: it wraps ctest itself, and the gtest state dirs under
#       TempDir() (<build>/tests/tmp) are per build tree, so a nested
#       concurrent run in the same tree would collide.
#
#   tools/check.sh peec [build-dir]       default build dir: build
#       Builds, then runs the `peec`, `large` and `perf` labels (kernel,
#       cluster tree, extraction cache tiers and the extractors sharing
#       them, coupling-factor and rule pins, the large-scenario battery, the
#       kernel perf gate and the flow work-counter pins),
#       BM_ScreeningMatrix - large_board's clustered extraction at 1/2/4/8
#       lanes - so its work counters (exact pairs, cluster pairs, skipped
#       pairs, pool batches) land in the log, and the serial BM_KernelRow_*
#       trio - the row kernel's ns per exact sample evaluation in mutual
#       rows, self rows and a clustered remainder. A benchmark is skipped
#       (with a notice) when its bench binary was not built.
#
#   tools/check.sh sweep [build-dir]      default build dir: build
#       Builds, then runs the `sweep` label (adaptive-refinement fuzz,
#       coupling-model battery, exact probe-sweep bit identity, flow-level
#       10x/1 dB acceptance, digest and resume coupling, thread invariance,
#       the AC point driver's grid, stop and lu fault pins, the exact and
#       adaptive flow work counters and the shipped `--adaptive` context
#       digests) and the sensitivity and Adaptive benchmarks, so the
#       solve-count counters (full, resumed, pool batches) land in the log.
#       The benchmarks are skipped (with a notice) when the bench binary was
#       not built.
#
# Exits 0 when everything passes, non-zero on any failure.
set -euo pipefail

usage() {
  echo "usage: tools/check.sh <analysis|peec|serve|sweep> [build-dir]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
label="$1"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Configure `build_dir` when it does not exist yet, then build it with the
# build log sent to $1.
configure_and_build() {
  if [[ ! -d "$build_dir" ]]; then
    echo "check ${label}: configuring ${build_dir}"
    cmake -S "$repo_root" -B "$build_dir" >/dev/null
  fi
  echo "check ${label}: building"
  cmake --build "$build_dir" -j "$(nproc)" >"$1"
}

case "$label" in
  analysis)
    build_dir="${2:-"${repo_root}/build-analysis"}"
    clangxx=""
    for c in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15 clang++-14; do
      if command -v "$c" >/dev/null 2>&1; then
        clangxx="$c"
        break
      fi
    done
    if [[ -z "$clangxx" ]]; then
      echo "check analysis: SKIP thread-safety build (no clang++ on PATH)"
      if [[ -d "${repo_root}/build" ]]; then
        echo "check analysis: running 'analysis' label from existing ${repo_root}/build"
        ctest --test-dir "${repo_root}/build" -L analysis --output-on-failure
      else
        echo "check analysis: no default build dir either; nothing to run"
      fi
      exit 0
    fi
    echo "check analysis: configuring ${build_dir} with ${clangxx} + EMI_THREAD_SAFETY=ON"
    cmake -S "$repo_root" -B "$build_dir" \
          -DCMAKE_CXX_COMPILER="$clangxx" \
          -DEMI_THREAD_SAFETY=ON >/dev/null
    # Full build: -Werror=thread-safety makes every annotation violation a
    # build failure, so compiling the whole tree IS the thread-safety check.
    cmake --build "$build_dir" -j "$(nproc)"
    echo "check analysis: running 'analysis' ctest label"
    ctest --test-dir "$build_dir" -L analysis --output-on-failure
    ;;
  peec)
    build_dir="${2:-"${repo_root}/build"}"
    configure_and_build /dev/stdout
    echo "check peec: running 'peec|large|perf' ctest labels"
    ctest --test-dir "$build_dir" -L 'peec|large|perf' --output-on-failure
    bench="${build_dir}/bench/bench_peec_scaling"
    if [[ -x "$bench" ]]; then
      echo "check peec: screening extraction and ranking (BM_ScreeningMatrix, BM_ScreeningRank)"
      "$bench" --benchmark_filter='Screening(Matrix|Rank)' --benchmark_min_time=0.5
    else
      echo "check peec: SKIP benchmark (${bench} not built)"
    fi
    bench="${build_dir}/bench/bench_perf_peec"
    if [[ -x "$bench" ]]; then
      echo "check peec: row kernel per-eval cost (BM_KernelRow_*)"
      "$bench" --benchmark_filter=KernelRow --benchmark_min_time=0.5
    else
      echo "check peec: SKIP benchmark (${bench} not built)"
    fi
    ;;
  serve)
    build_dir="${2:-"${repo_root}/build"}"
    configure_and_build /dev/null
    echo "check serve: running 'serve' ctest label"
    ctest --test-dir "$build_dir" -L serve --output-on-failure
    echo "check serve: running 'soak' ctest label"
    ctest --test-dir "$build_dir" -L soak --output-on-failure
    bench="${build_dir}/bench/bench_serve"
    if [[ -x "$bench" ]]; then
      echo "check serve: socket round trip (BM_ServeSocketRoundTrip)"
      "$bench" --benchmark_filter=ServeSocketRoundTrip --benchmark_min_time=0.5
    else
      echo "check serve: SKIP benchmark (${bench} not built)"
    fi
    ;;
  sweep)
    build_dir="${2:-"${repo_root}/build"}"
    configure_and_build /dev/stdout
    echo "check sweep: running 'sweep' ctest label"
    ctest --test-dir "$build_dir" -L sweep --output-on-failure
    bench="${build_dir}/bench/bench_perf_parallel"
    if [[ -x "$bench" ]]; then
      echo "check sweep: solve-count economics (BM_SensitivityRanking / BM_AdaptiveSweep / BM_SensitivityRankingAdaptive)"
      "$bench" --benchmark_filter='SensitivityRanking|Adaptive' --benchmark_min_time=0.05
    else
      echo "check sweep: SKIP benchmarks (${bench} not built)"
    fi
    ;;
  *)
    usage
    ;;
esac

echo "check ${label}: all green"
