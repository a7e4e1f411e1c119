#!/usr/bin/env bash
# Full verification: build and run the test suite three times — a plain
# Release build, an ASan/UBSan build (-DOJV_SANITIZE=address,undefined),
# and a ThreadSanitizer build (-DOJV_TSAN=ON) that runs the
# concurrency-sensitive tests: the morsel-parallel executor equivalence
# suite, the deferred/background-refresh tests, and the obs
# thread-hammer tests — plus an observability stage that exercises the
# instrumented pipeline (ojv_trace --check) and verifies that a
# -DOJV_OBS=OFF build really compiles recording out (the obs tests
# assert zero events in that tree). Run from anywhere; builds land in
# build-check-* at the repository root.
#
#   tools/check.sh            # all configurations
#   tools/check.sh release    # Release only
#   tools/check.sh sanitize   # ASan/UBSan only
#   tools/check.sh tsan       # ThreadSanitizer only
#   tools/check.sh obs        # observability: traced run + OBS=OFF no-op
#   tools/check.sh obs-export # live telemetry: exporter/recorder under TSan,
#                             # OBS=OFF inertness, OFF-tree overhead gate
#   tools/check.sh serve      # snapshot serving path: the ReadView
#                             # lock-escape regression + generation
#                             # equivalence suite under TSan
#   tools/check.sh bench-gate # fig5 + skew + serve timings vs
#                             # BENCH_pipeline.json

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
    # actually spawn threads carry signal, and they carry all of it.
    # metrics/trace join the filter for their thread-hammer cases.
    run_config tsan --tests 'parallel_executor|deferred|database|metrics|trace|snapshot' \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOJV_TSAN=ON
    ;;&
  obs-export|all)
    # Live-telemetry stage. Under TSan: the exporter's concurrent
    # record-vs-serialize hammer, the flight recorder's
    # record-vs-snapshot hammer (the all-atomic ring design's
    # certification), and the trace/top tools end to end.
    run_config obs-export --tests 'export_test|flight_recorder_test|metrics_test|trace|top_tool' \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOJV_TSAN=ON -DOJV_OBS=ON
    # The same tests against -DOJV_OBS=OFF: Start() returns false (no
    # exporter thread, no HTTP socket), the recorder records nothing,
    # and the tools degrade to empty-but-valid outputs.
    run_config obs-export-off --tests 'export_test|flight_recorder_test|metrics_test|trace|top_tool' \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOJV_OBS=OFF
    # Overhead claim for the OFF tree: all three instrumentation modes
    # of bench_obs_overhead compile to the same uninstrumented loop, so
    # ours_ms must match the committed obs_overhead_off numbers (the
    # ON-tree overhead rows run in the bench-gate stage, where no
    # sanitizer distorts them).
    offdir="$root/build-check-obs-export-off"
    cmake --build "$offdir" -j "$jobs" \
        --target bench_obs_overhead bench_gate >/dev/null
    "$offdir/bench/bench_obs_overhead" --batches=60,600 \
        --json="$offdir/obs_overhead_off.json" >/dev/null
    "$offdir/tools/bench_gate" --baseline="$root/BENCH_pipeline.json" \
        --candidate="$offdir/obs_overhead_off.json" \
        --section=obs_overhead_off --floor-ms=2
    ;;&
  serve|all)
    # Snapshot serving path: the ReadView lock-escape regression (reader
    # threads scanning pinned generations while the background refresher
    # storms the same view — the exact race the old interior-pointer API
    # had) plus the generation-boundary equivalence suite, under TSan.
    run_config serve --tests 'snapshot_read|snapshot_equivalence' \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOJV_TSAN=ON
    ;;&
  obs|all)
    # Instrumented run: the trace tool replays a TPC-H workload with
    # tracing on and asserts the expected stage set + valid JSON output.
    run_config obs --tests 'metrics_test|trace_test|trace_integration|trace_tool' \
        -DCMAKE_BUILD_TYPE=Release -DOJV_OBS=ON
    # Compiled-out run: same tests against -DOJV_OBS=OFF. The trace/
    # metrics tests flip to their "records nothing" branches and
    # trace_tool verifies it degrades gracefully (empty trace, no
    # check failures). The planner tests run there too: planning reads
    # no execution output, so it plans alike with tracing compiled out.
    run_config obs-off --tests 'metrics_test|trace_test|trace_integration|trace_tool|plan_cache_test|planner_test' \
        -DCMAKE_BUILD_TYPE=Release -DOJV_OBS=OFF
    # Size sanity for the no-op claim: compiling recording out must not
    # grow the instrumented binary (the if-constexpr guards really are
    # dead code, not runtime branches).
    on_size=$(wc -c < "$root/build-check-obs/tools/ojv_trace")
    off_size=$(wc -c < "$root/build-check-obs-off/tools/ojv_trace")
    echo "==> [obs] ojv_trace size: OBS=ON ${on_size}B, OBS=OFF ${off_size}B"
    if [ "$off_size" -gt "$on_size" ]; then
      echo "==> [obs] FAIL: OBS=OFF binary is larger than OBS=ON" >&2
      exit 1
    fi
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
    "$dir/bench/bench_fig5_insert" --threads=4 \
        --json="$dir/fig5_insert.json" >/dev/null
    "$dir/bench/bench_fig5_delete" --threads=4 \
        --json="$dir/fig5_delete.json" >/dev/null
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
  release|sanitize|tsan|obs|obs-export|serve|bench-gate|all)
    echo "==> all requested configurations passed"
    ;;
  *)
    echo "usage: tools/check.sh [release|sanitize|tsan|obs|obs-export|serve|bench-gate|all]" >&2
    exit 2
    ;;
esac
