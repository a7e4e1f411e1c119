#!/usr/bin/env bash
# Full verification: build and run the test suite three times — a plain
# Release build (which includes the traced pipeline run, ojv_trace
# --check), an ASan/UBSan build (-DOJV_SANITIZE=address,undefined), and
# a ThreadSanitizer build (-DOJV_TSAN=ON) that runs the
# concurrency-sensitive tests — then compare benchmark timings against
# BENCH_pipeline.json. Run from anywhere; builds land in build-check-*
# at the repository root.
#
#   tools/check.sh            # all configurations
#   tools/check.sh release    # Release only
#   tools/check.sh sanitize   # ASan/UBSan only
#   tools/check.sh tsan       # ThreadSanitizer only
#   tools/check.sh bench-gate # fig5 + telemetry overhead + skew + serve
#                             # timings vs BENCH_pipeline.json

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
mode="${1:-all}"

run_config() {
  local name="$1"; shift
  local filter=""
  if [ "$1" = "--tests" ]; then filter="$2"; shift 2; fi
  local dir="$root/build-check-$name"
  echo "==> [$name] configure"
  cmake -B "$dir" -S "$root" "$@" >/dev/null
  echo "==> [$name] build"
  cmake --build "$dir" -j "$jobs" >/dev/null
  echo "==> [$name] ctest"
  if [ -n "$filter" ]; then
    ctest --test-dir "$dir" --output-on-failure -j "$jobs" -R "$filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  fi
}

case "$mode" in
  release|all)
    run_config release -DCMAKE_BUILD_TYPE=Release
    ;;&
  sanitize|all)
    run_config sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DOJV_SANITIZE=address,undefined
    ;;&
  tsan|all)
    # The full suite is serial-dominated; under TSan only the tests that
    # actually spawn threads carry signal, and they carry all of it: the
    # background refresher, snapshot readers racing a refresh storm
    # (snapshot_read/snapshot_equivalence), the
    # metric/trace/exporter/flight-recorder thread hammers, and the
    # trace/top tools end to end.
    run_config tsan --tests 'deferred|database|metrics|trace|snapshot|export_test|flight_recorder_test|top_tool' \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOJV_TSAN=ON
    ;;&
  bench-gate|all)
    # Benchmark regression gate: re-run the fig5 benchmarks in the same
    # configuration the committed BENCH_pipeline.json was measured in
    # (RelWithDebInfo, no sanitizer) and compare the per-stage timings.
    # bench_gate skips itself (exit 0) on hosts that don't match the
    # baseline's host_cores/build_type, so this stage is safe everywhere
    # and only gates machines comparable to the one that committed the
    # numbers.
    dir="$root/build-check-bench"
    echo "==> [bench-gate] configure"
    cmake -B "$dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [bench-gate] build"
    cmake --build "$dir" -j "$jobs" \
        --target bench_fig5_insert bench_fig5_delete \
        bench_obs_overhead bench_skew bench_serve bench_gate >/dev/null
    echo "==> [bench-gate] run fig5 benchmarks"
    "$dir/bench/bench_fig5_insert" --json="$dir/fig5_insert.json" >/dev/null
    "$dir/bench/bench_fig5_delete" --json="$dir/fig5_delete.json" >/dev/null
    # Telemetry overhead: recorder-on and full-export timings over the
    # bare maintenance loop (the "no measurable overhead" claim, gated).
    "$dir/bench/bench_obs_overhead" --batches=60,600 \
        --json="$dir/obs_overhead.json" >/dev/null
    # Immediate vs on-demand under Zipf join keys (self-checks view
    # equality before reporting).
    "$dir/bench/bench_skew" --json="$dir/skew.json" >/dev/null
    # Serving under a refresh storm: snapshot-read p50/p99 while the
    # background worker replays consolidated batches into V3.
    "$dir/bench/bench_serve" --batches=60,600 \
        --json="$dir/serve.json" >/dev/null
    echo "==> [bench-gate] compare against BENCH_pipeline.json"
    "$dir/tools/bench_gate" --baseline="$root/BENCH_pipeline.json" \
        --candidate="$dir/fig5_insert.json" --section=fig5_insert
    "$dir/tools/bench_gate" --baseline="$root/BENCH_pipeline.json" \
        --candidate="$dir/fig5_delete.json" --section=fig5_delete
    # Floor 2ms on the overhead rows: the maintenance loop is a few ms
    # at these batch sizes, so only real instrumentation cost counts.
    "$dir/tools/bench_gate" --baseline="$root/BENCH_pipeline.json" \
        --candidate="$dir/obs_overhead.json" --section=obs_overhead \
        --floor-ms=2
    # Floor 5ms on the skew rows: the control row's ours_ms runs a few
    # ms and the skewed rows tens to hundreds of ms, so 5ms only filters
    # noise; losing consolidation costs seconds and trips the ratio
    # regardless.
    "$dir/tools/bench_gate" --baseline="$root/BENCH_pipeline.json" \
        --candidate="$dir/skew.json" --section=skew \
        --floor-ms=5
    # Floor 2ms on the serve rows: snapshot-read p99 is tens of
    # microseconds when the read path stays off the maintenance mutex,
    # so the gate only trips when reads start blocking on refreshes
    # again (~10ms p99) — the regression this PR exists to prevent. The
    # fresh contrast rows carry no ours_ms and are not gated.
    "$dir/tools/bench_gate" --baseline="$root/BENCH_pipeline.json" \
        --candidate="$dir/serve.json" --section=serve \
        --floor-ms=2
    ;;&
  release|sanitize|tsan|bench-gate|all)
    echo "==> all requested configurations passed"
    ;;
  *)
    echo "usage: tools/check.sh [release|sanitize|tsan|bench-gate|all]" >&2
    exit 2
    ;;
esac
