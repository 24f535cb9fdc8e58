#!/usr/bin/env bash
# tools/bench_gate.sh -- the one-command simulation gate.
#
# Runs, in order:
#   1. Release build + the `sim`/`svc`/`chaos`/`lp`/`obs`-labelled ctest
#      suites (kernel/driver/fleet differential tests, the batch
#      scheduler suite, the fail-point chaos harness, the LP/MILP solver
#      suite with its warm-vs-cold session differentials, and the
#      tracing/metrics suite). The ctest runs are traced: ELRR_TRACE
#      arms every `elrr` process the tests spawn (proc-fleet workers
#      ship their spans over the response protocol under the chaos
#      schedules), and any written trace lands in $BUILD_DIR/obs_traces/
#      -- a CI failure artifact;
#   2. a fresh perf_smoke -> build/BENCH_sim.json, gated for bit-exactness
#      (its `obs` section measures tracing overhead itself, so the
#      perf steps run with ELRR_TRACE unset);
#   3. `elrr bench-diff` of that fresh run against the committed
#      BENCH_sim.json at the repo root (fails on any section >10% slower
#      -- the `obs` disarmed-overhead section at >2% -- override the
#      global threshold with ELRR_MAX_REGRESSION);
#   4. an ASan/UBSan build (-DELRR_SANITIZE=address,undefined) of the
#      `sim` + `svc` + `lp` + `obs` suites (the scheduler/fleet sharing,
#      the failure-unwind paths, the MILP session's persistent tableau
#      snapshots and the obs ring buffers' lock-free publish are the
#      lifetime-bug honeypots). The fork/exec ObsProc tests are excluded
#      there for the same reason the chaos suite is.
#
# Before step 1 it prints the src/ + tools/ C++ line count, the size
# measure ROADMAP.md tracks from change to change.
#
# Step 4 is skipped with ELRR_SKIP_SANITIZE=1 (e.g. on machines without
# the sanitizer runtimes). ELRR_GATE_QUICK=1 runs the fast CI variant:
# perf_smoke --quick (the deterministic bit-exactness checks, including
# the pipeline engine's sequential-vs-overlapped comparison) and no
# bench-diff timing gate -- shrunken-workload numbers are not comparable
# to the committed full-size baseline, and shared CI runners are too
# noisy to gate on wall clock anyway. Build directories: build/ and
# build-asan/ (override with BUILD_DIR / ASAN_BUILD_DIR).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
MAX_REGRESSION=${ELRR_MAX_REGRESSION:-0.10}
QUICK=${ELRR_GATE_QUICK:-0}

# Armed-tracing scope for the ctest runs (steps 1 and 4): %p keeps the
# concurrent test processes from clobbering each other's trace files.
TRACE_DIR="$BUILD_DIR/obs_traces"
mkdir -p "$TRACE_DIR"
GATE_TRACE="$TRACE_DIR/trace-%p.json"
# Flight recorder armed for the same runs: any `elrr` process a test
# crashes (or that dies for real) leaves postmortem-<pid>.txt here --
# a CI failure artifact next to the traces. Tests that pin recorder
# behavior manage the env themselves.
PM_DIR="$BUILD_DIR/postmortems"
mkdir -p "$PM_DIR"

echo "src/ + tools/ C++ lines: $(find src tools -name '*.cpp' -o -name '*.hpp' | xargs cat | wc -l)"

echo "== [1/4] Release build + ctest -L sim|svc|chaos|lp|obs (traced) =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target elrr elrr_cli perf_smoke elrr_sim_tests elrr_svc_tests elrr_chaos_tests elrr_lp_tests elrr_obs_tests
ELRR_TRACE="$GATE_TRACE" ELRR_POSTMORTEM_DIR="$PM_DIR" \
  ctest --test-dir "$BUILD_DIR" -L 'sim|svc|chaos|lp|obs' --output-on-failure -j

if [ "$QUICK" = "1" ]; then
  echo "== [2/4] perf_smoke --quick (bit-exactness gated) =="
  "$BUILD_DIR/perf_smoke" "$BUILD_DIR/BENCH_sim.json" --quick
  echo "== [3/4] bench-diff skipped (ELRR_GATE_QUICK=1) =="
else
  echo "== [2/4] perf_smoke (bit-exactness gated) =="
  "$BUILD_DIR/perf_smoke" "$BUILD_DIR/BENCH_sim.json"

  echo "== [3/4] bench-diff vs committed BENCH_sim.json =="
  "$BUILD_DIR/elrr" bench-diff --new "$BUILD_DIR/BENCH_sim.json" \
    --baseline BENCH_sim.json --max-regression "$MAX_REGRESSION"
fi

if [ "${ELRR_SKIP_SANITIZE:-0}" = "1" ]; then
  echo "== [4/4] sanitizer sweep skipped (ELRR_SKIP_SANITIZE=1) =="
else
  echo "== [4/4] ASan/UBSan ctest -L sim|svc|lp|obs (traced) =="
  cmake -B "$ASAN_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DELRR_SANITIZE=address,undefined
  cmake --build "$ASAN_BUILD_DIR" -j --target elrr_sim_tests elrr_svc_tests elrr_lp_tests elrr_obs_tests
  mkdir -p "$ASAN_BUILD_DIR/obs_traces" "$ASAN_BUILD_DIR/postmortems"
  ELRR_TRACE="$ASAN_BUILD_DIR/obs_traces/trace-%p.json" \
    ELRR_POSTMORTEM_DIR="$ASAN_BUILD_DIR/postmortems" \
    ctest --test-dir "$ASAN_BUILD_DIR" -L 'sim|svc|lp|obs' -E 'ObsProc' \
    --output-on-failure -j
fi

echo "bench gate: all green"
