#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer
# (HAMLET_SANITIZE=address,undefined) and runs the whole ctest suite
# under them. -fno-sanitize-recover=all makes every UBSAN report abort
# its test, so a green run means no sanitizer report at all: no heap or
# stack overflow, use-after-free, leak, or undefined behavior anywhere
# the suite reaches. scripts/check_determinism.sh is the TSAN twin.
#
# Usage: scripts/check_sanitizers.sh [extra ctest args...]
# Env:   BUILD_DIR (default build-asan), JOBS (default nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}
JOBS=${JOBS:-$(nproc)}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHAMLET_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=all" \
  -DHAMLET_BUILD_BENCHMARKS=OFF \
  -DHAMLET_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j"${JOBS}"

export ASAN_OPTIONS=${ASAN_OPTIONS:-abort_on_error=1}
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"${JOBS}" "$@"
