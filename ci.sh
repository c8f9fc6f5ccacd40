#!/usr/bin/env bash
# One-step CI: configure, build, run the test suite, and self-test the perf
# differ. Comparing bench_micro across two builds is a separate paired loop,
# bench/diff_bench.py PARENT_DIR CHANGE_DIR (README, "Benchmarks & perf
# JSON").
#
# Usage: ./ci.sh [build-dir]             (default: build; build-sanitize when SANITIZE=1)
#        BUILD_TYPE=Debug ./ci.sh        set CMAKE_BUILD_TYPE (default: RelWithDebInfo)
#        SANITIZE=1 ./ci.sh              ASan+UBSan build (-DSTBURST_SANITIZE=ON)
#        TSAN=1 ./ci.sh                  ThreadSanitizer build
#                                        (-DSTBURST_TSAN=ON) for the
#                                        read-plane concurrency leg; mutually
#                                        exclusive with SANITIZE=1
#        FAULT_INJECTION=1 ./ci.sh       compile in the deterministic fault
#                                        sites (-DSTBURST_FAULT_INJECTION=ON)
#                                        so the recovery sweep in
#                                        tests/fault_injection_test.cc runs;
#                                        combine with SANITIZE=1 for the CI
#                                        fault-recovery leg
#        TEST_TIMEOUT=seconds ./ci.sh    per-test ctest timeout (default 600):
#                                        a hung test fails its job instead of
#                                        stalling it to the runner's limit
#        TEST_LABEL=regex ./ci.sh        run only ctest tests whose LABELS
#                                        match the regex (ctest -L), e.g.
#                                        TEST_LABEL=concurrency
#        NO_CCACHE=1 ./ci.sh             skip the ccache compiler launcher
#                                        that is otherwise used when ccache
#                                        is on PATH (CI caches the ccache
#                                        default dir, ~/.cache/ccache)
#
# CC/CXX are honored as usual (the CI matrix sets gcc/clang through them).
set -euo pipefail

if [[ "${TSAN:-0}" == "1" && "${SANITIZE:-0}" == "1" ]]; then
  echo "TSAN=1 and SANITIZE=1 are mutually exclusive (TSan cannot share a" >&2
  echo "process with ASan); pick one" >&2
  exit 1
fi

if [[ "${FAULT_INJECTION:-0}" == "1" ]]; then
  DEFAULT_DIR="build-fault"
elif [[ "${SANITIZE:-0}" == "1" ]]; then
  DEFAULT_DIR="build-sanitize"
elif [[ "${TSAN:-0}" == "1" ]]; then
  DEFAULT_DIR="build-tsan"
else
  DEFAULT_DIR="build"
fi
BUILD_DIR="${1:-$DEFAULT_DIR}"
JOBS="$(nproc 2>/dev/null || echo 2)"

CMAKE_ARGS=()
if [[ -n "${BUILD_TYPE:-}" ]]; then
  CMAKE_ARGS+=("-DCMAKE_BUILD_TYPE=${BUILD_TYPE}")
fi
if [[ "${SANITIZE:-0}" == "1" ]]; then
  CMAKE_ARGS+=("-DSTBURST_SANITIZE=ON")
fi
if [[ "${TSAN:-0}" == "1" ]]; then
  CMAKE_ARGS+=("-DSTBURST_TSAN=ON")
fi
if [[ "${FAULT_INJECTION:-0}" == "1" ]]; then
  CMAKE_ARGS+=("-DSTBURST_FAULT_INJECTION=ON")
fi
if [[ "${NO_CCACHE:-0}" != "1" ]] && command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=("-DCMAKE_C_COMPILER_LAUNCHER=ccache"
               "-DCMAKE_CXX_COMPILER_LAUNCHER=ccache")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "$BUILD_DIR" -j "$JOBS"
CTEST_ARGS=()
if [[ -n "${TEST_LABEL:-}" ]]; then
  CTEST_ARGS+=("-L" "$TEST_LABEL")
fi
# The per-test timeout turns a hang (a wedged windowed-feed test, a deadlock
# under sanitizers) into a loud failure instead of a 6-hour runner stall.
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -j "$JOBS" \
      --timeout "${TEST_TIMEOUT:-600}" \
      "${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}"

python3 bench/diff_bench.py --self-test
