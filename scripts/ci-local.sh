#!/usr/bin/env bash
# Runs the same jobs as .github/workflows/ci.yml with whatever toolchains
# this machine has, skipping (loudly) the ones it lacks. Exits non-zero if
# any job that could run failed.
#
#   scripts/ci-local.sh             # all runnable jobs
#   scripts/ci-local.sh --fast      # gcc/Release + telemetry-off only
set -u

cd "$(dirname "$0")/.."
REPO=$PWD
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

FAILED=()
SKIPPED=()

have() { command -v "$1" >/dev/null 2>&1; }

GENERATOR=""
have ninja && GENERATOR="-G Ninja"

run_job() {
  local name=$1
  shift
  echo
  echo "=== [$name] ==="
  if "$@"; then
    echo "=== [$name] PASS ==="
  else
    echo "=== [$name] FAIL ==="
    FAILED+=("$name")
  fi
}

skip_job() {
  echo
  echo "=== [$1] SKIP: $2 ==="
  SKIPPED+=("$1 ($2)")
}

build_and_test() {
  local dir=$1 cc=$2 cxx=$3 type=$4
  shift 4
  cmake -B "$dir" -S . $GENERATOR -DCMAKE_BUILD_TYPE="$type" \
    -DCMAKE_C_COMPILER="$cc" -DCMAKE_CXX_COMPILER="$cxx" "$@" &&
    cmake --build "$dir" -j "$(nproc)" &&
    (cd "$dir" && ctest --output-on-failure -j "$(nproc)" -LE timing) &&
    (cd "$dir" && ctest --output-on-failure -L timing)
}

# --- build-test matrix ------------------------------------------------------
for compiler in gcc clang; do
  for type in Debug Release; do
    [ $FAST = 1 ] && { [ $compiler = gcc ] && [ "$type" = Release ] || continue; }
    if [ $compiler = gcc ]; then cc=gcc cxx=g++; else cc=clang cxx=clang++; fi
    if ! have $cxx; then
      skip_job "build-test/$compiler-$type" "$cxx not installed"
      continue
    fi
    run_job "build-test/$compiler-$type" \
      build_and_test "build-ci-$compiler-$type" $cc $cxx "$type"
  done
done

# --- driver smoke (--stats + --trace) ---------------------------------------
SMOKE_BUILD=""
for d in build-ci-gcc-Release build-ci-clang-Release build; do
  [ -x "$d/tools/limpetc" ] && { SMOKE_BUILD=$d; break; }
done
if [ -n "$SMOKE_BUILD" ]; then
  smoke() {
    "$SMOKE_BUILD"/tools/limpetc examples/models/hodgkin_huxley.easyml \
      --run --steps 200 --cells 64 --stats --trace /tmp/ci-local.trace.json &&
      python3 -c "import json; json.load(open('/tmp/ci-local.trace.json'))"
  }
  run_job "driver-smoke" smoke
else
  skip_job "driver-smoke" "no built limpetc found"
fi

# --- telemetry-off build ----------------------------------------------------
telemetry_off() {
  cmake -B build-ci-telemetry-off -S . $GENERATOR \
    -DCMAKE_BUILD_TYPE=Release -DLIMPET_TELEMETRY=OFF &&
    cmake --build build-ci-telemetry-off -j "$(nproc)" &&
    (cd build-ci-telemetry-off &&
      ctest --output-on-failure -j "$(nproc)" -E "Telemetry|Trace|BenchStats") &&
    ./build-ci-telemetry-off/tools/limpetc HodgkinHuxley --run --steps 100 \
      --cells 32 --stats --trace /tmp/ci-local-off.trace.json
}
run_job "telemetry-off" telemetry_off

# --- sanitizers -------------------------------------------------------------
if [ $FAST = 1 ]; then
  skip_job "sanitize" "--fast"
else
  sanitize() {
    cmake -B build-ci-san -S . $GENERATOR -DCMAKE_BUILD_TYPE=Debug \
      -DLIMPET_SANITIZE=address,undefined &&
      cmake --build build-ci-san -j "$(nproc)" &&
      # Every scenario tools/CMakeLists.txt registers, except the timing
      # one, as the CI sanitize job selects them.
      (cd build-ci-san &&
        ctest --output-on-failure --no-tests=error -R '^faultinject\.' -LE timing) &&
      # Native kernel tier under ASan+UBSan: TU emission, the compiler
      # fork/exec, temp-dir cleanup and dlopen (dlclose is skipped in
      # sanitized builds). Skip (77) is a pass: no toolchain, no tier.
      { LIMPET_NATIVE_KEEP_TU=1 scripts/jit_smoke.sh \
          ./build-ci-san/tools/limpetc || [ $? -eq 77 ]; }
  }
  run_job "sanitize" sanitize
fi

# --- crash recovery + cache GC stress ---------------------------------------
if [ $FAST = 1 ]; then
  skip_job "crash-smoke" "--fast"
elif [ -n "$SMOKE_BUILD" ]; then
  run_job "crash-smoke" scripts/crash_smoke.sh "$SMOKE_BUILD/tools/limpetc"
  run_job "cache-gc-stress" \
    scripts/cache_gc_stress.sh "$SMOKE_BUILD/tools/limpetc"
else
  skip_job "crash-smoke" "no built limpetc found"
fi

# --- tissue engine smoke -----------------------------------------------------
if [ $FAST = 1 ]; then
  skip_job "tissue-smoke" "--fast"
elif [ -n "$SMOKE_BUILD" ]; then
  run_job "tissue-smoke" scripts/tissue_smoke.sh "$SMOKE_BUILD/tools/limpetc"
else
  skip_job "tissue-smoke" "no built limpetc found"
fi

# --- native kernel tier smoke -----------------------------------------------
if [ $FAST = 1 ]; then
  skip_job "jit-smoke" "--fast"
elif [ -n "$SMOKE_BUILD" ]; then
  jit_smoke() {
    scripts/jit_smoke.sh "$SMOKE_BUILD/tools/limpetc"
    rc=$?
    [ $rc -eq 77 ] && echo "jit-smoke skipped (no toolchain)" && return 0
    return $rc
  }
  run_job "jit-smoke" jit_smoke
else
  skip_job "jit-smoke" "no built limpetc found"
fi

# --- daemon smoke -----------------------------------------------------------
if [ $FAST = 1 ]; then
  skip_job "daemon-smoke" "--fast"
elif [ -n "$SMOKE_BUILD" ] && [ -x "$SMOKE_BUILD/tools/limpetd" ]; then
  run_job "daemon-smoke" scripts/daemon_smoke.sh \
    "$SMOKE_BUILD/tools/limpetd" "$SMOKE_BUILD/tools/limpetctl" \
    "$SMOKE_BUILD/tools/limpetc"
else
  skip_job "daemon-smoke" "no built limpetd found"
fi

# --- ensemble engine smoke ---------------------------------------------------
if [ $FAST = 1 ]; then
  skip_job "ensemble-smoke" "--fast"
elif [ -n "$SMOKE_BUILD" ]; then
  run_job "ensemble-smoke" scripts/ensemble_smoke.sh \
    "$SMOKE_BUILD/tools/limpetc"
else
  skip_job "ensemble-smoke" "no built limpetc found"
fi

# --- bench smoke + NDJSON ---------------------------------------------------
if [ $FAST = 1 ]; then
  skip_job "bench-smoke" "--fast"
elif [ -n "$SMOKE_BUILD" ] && [ -x "$SMOKE_BUILD/bench/micro_benchmarks" ]; then
  bench_smoke() {
    local out=/tmp/ci-local-bench-stats.ndjson
    rm -f "$out"
    LIMPET_BENCH_STATS=$out "$SMOKE_BUILD"/bench/micro_benchmarks \
      --benchmark_min_time=0.01 --benchmark_filter='BM_Step.*' &&
      LIMPET_BENCH_STATS=$out LIMPET_BENCH_CELLS=256 LIMPET_BENCH_STEPS=20 \
        LIMPET_BENCH_REPEATS=5 LIMPET_BENCH_MODELS=HodgkinHuxley,Courtemanche \
        "$SMOKE_BUILD"/bench/fig2_single_thread &&
      LIMPET_BENCH_STATS=$out LIMPET_BENCH_CELLS=256 LIMPET_BENCH_STEPS=20 \
        LIMPET_BENCH_REPEATS=1 "$SMOKE_BUILD"/bench/tissue_bench &&
      LIMPET_BENCH_STATS=$out LIMPET_BENCH_CELLS=256 LIMPET_BENCH_STEPS=20 \
        LIMPET_BENCH_REPEATS=1 "$SMOKE_BUILD"/bench/ensemble_bench &&
      python3 - "$out" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "no NDJSON records produced"
isas = set()
for line in lines:
    rec = json.loads(line)
    assert "model" in rec and "seconds" in rec, rec
    assert "isa" in rec, rec
    isas.add(rec["isa"])
print(f"{len(lines)} valid NDJSON records, isa {sorted(isas)}")
EOF
  }
  run_job "bench-smoke" bench_smoke
  run_job "bench-compare-selftest" python3 scripts/bench_compare.py --selftest
  # perfbench/ builds src/ into its own tree; nothing else compiles it.
  run_job "perfbench-test" python3 perfbench/run.py --test
  # Blocking comparison against the committed baseline, with the same
  # generous cross-machine tolerance CI uses for absolute rows (override
  # the env to tighten locally; re-bless with --bless after intentional
  # changes). The fig2 native ns over VM ns, a ratio of two rows of this
  # run, gates at a fixed 25% in the same step; rows blessed on another
  # ISA than this host's report as NEW.
  if [ -f bench/baselines/ci-smoke.ndjson ] &&
    [ -f /tmp/ci-local-bench-stats.ndjson ]; then
    bench_compare_blocking() {
      LIMPET_BENCH_TOLERANCE_PCT=${LIMPET_BENCH_TOLERANCE_PCT:-300} \
        python3 scripts/bench_compare.py /tmp/ci-local-bench-stats.ndjson
    }
    run_job "bench-compare" bench_compare_blocking
  fi
else
  skip_job "bench-smoke" "no built micro_benchmarks found"
fi

# --- clang-format -----------------------------------------------------------
if have clang-format; then
  format_check() {
    git ls-files '*.cpp' '*.h' | xargs clang-format --dry-run --Werror
  }
  run_job "format" format_check
else
  skip_job "format" "clang-format not installed"
fi

# --- summary ----------------------------------------------------------------
echo
echo "==================== ci-local summary ===================="
[ ${#SKIPPED[@]} -gt 0 ] && printf 'SKIP  %s\n' "${SKIPPED[@]}"
if [ ${#FAILED[@]} -gt 0 ]; then
  printf 'FAIL  %s\n' "${FAILED[@]}"
  exit 1
fi
echo "All runnable jobs passed."
