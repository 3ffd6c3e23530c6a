#!/usr/bin/env bash
# CI entry point: configure + build + ctest. MODE selects which legs run —
# the GitHub Actions matrix runs one leg per job, local use defaults to all:
#   MODE=plain     Release build + ctest
#   MODE=sanitize  Debug + address,undefined sanitizers + ctest
#   MODE=tsan      Debug + thread sanitizer, OpenMP off, concurrency
#                  suites only (the aggregation service's std::thread
#                  layer; libgomp is not TSAN-instrumented, so the
#                  OpenMP kernels are out of scope for this leg)
#   MODE=all       plain + sanitize + tsan, in sequence (default)
# Every leg runs its ctest at OMP_NUM_THREADS=1 and =4 (results and
# footprints must not depend on the thread count), then re-runs the
# concurrency and property labels (those within the leg's label) with
# --repeat until-fail:5 at 4 threads, so a schedule-dependent failure
# shows up within one CI run.
# Usage: [MODE=plain|sanitize|tsan|all] scripts/ci.sh [extra cmake args...]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${MODE:-all}"

# run_mode <name> <build_dir> <ctest_label_or_empty> [cmake args...]
run_mode() {
  local name="$1" build_dir="$2" label="$3"
  shift 3
  echo "=== [$name] configure ==="
  cmake -B "$build_dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  local ctest_args=(--test-dir "$build_dir" --output-on-failure -j "$JOBS")
  local label_args=()
  if [ -n "$label" ]; then
    label_args=(-L "$label")
  fi
  local threads
  for threads in 1 4; do
    echo "=== [$name] ctest (OMP_NUM_THREADS=$threads) ==="
    OMP_NUM_THREADS="$threads" ctest "${ctest_args[@]}" "${label_args[@]}"
  done
  echo "=== [$name] ctest: ${label:-concurrency|property} x5" \
       "(OMP_NUM_THREADS=$threads) ==="
  OMP_NUM_THREADS="$threads" ctest "${ctest_args[@]}" \
    -L "${label:-concurrency|property}" --repeat until-fail:5
}

run_tsan() {
  run_mode tsan build-tsan concurrency \
    -DCMAKE_BUILD_TYPE=Debug -DSPKADD_SANITIZE=thread \
    -DSPKADD_DISABLE_OPENMP=ON -DSPKADD_BUILD_BENCH=OFF \
    -DSPKADD_BUILD_EXAMPLES=OFF "$@"
}

case "$MODE" in
  plain)
    run_mode plain build "" "$@"
    ;;
  sanitize)
    run_mode sanitize build-asan "" \
      -DCMAKE_BUILD_TYPE=Debug -DSPKADD_SANITIZE=address,undefined "$@"
    ;;
  tsan)
    run_tsan "$@"
    ;;
  all)
    run_mode plain build "" "$@"
    run_mode sanitize build-asan "" \
      -DCMAKE_BUILD_TYPE=Debug -DSPKADD_SANITIZE=address,undefined "$@"
    run_tsan "$@"
    ;;
  *)
    echo "unknown MODE '$MODE' (want plain|sanitize|tsan|all)" >&2
    exit 2
    ;;
esac

echo "=== CI OK: $MODE mode(s) green ==="
