#!/usr/bin/env bash
# Verifies that the batched-WCDE hot loops actually auto-vectorize
# (DESIGN.md §5i).  The SoA layout of PmfArena and the branch-free masked
# sweeps of solve_wcde_batch exist *for* the vectorizer; a refactor that
# silently re-introduces a loop-carried dependency or an opaque branch
# would keep every test green while quietly reverting the kernel to scalar
# code.  This script makes that regression loud.
#
# Two compilers are supported:
#   clang++  -Rpass=loop-vectorize        (preferred; CI's clang-rushlint job)
#   g++      -fopt-info-vec-optimized     (fallback for local Debian images)
#
# Each checked translation unit must report at least one vectorized loop at
# -O3 -mavx2.  -O3 matters for the g++ fallback: at -O2 GCC runs the
# vectorizer with the "very-cheap" cost model, which refuses the runtime
# alias versioning these plane sweeps need, so only Release (-O3) perf
# builds get the vector bodies.  -mavx2 targets the ISA the
# RUSH_NATIVE_ARCH perf builds actually use, not the x86-64 SSE2 baseline
# (the layout still helps there, but the remark sets differ).  Exit
# non-zero when any unit produces no vectorization remark.
#
# Usage: scripts/check_vectorization.sh [compiler]

set -u -o pipefail

cd "$(dirname "$0")/.."

# The kernel translation units whose hot sweeps must vectorize.
UNITS=(
  src/stats/pmf_arena.cc
  src/robust/wcde_batch.cc
)

CXX="${1:-}"
if [[ -z "$CXX" ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    CXX=clang++
  elif command -v g++ >/dev/null 2>&1; then
    CXX=g++
  else
    echo "check_vectorization: no clang++ or g++ on PATH" >&2
    exit 2
  fi
fi

case "$("$CXX" --version | head -1)" in
  *clang*) REMARK_FLAGS=(-Rpass=loop-vectorize); PATTERN='vectorized loop' ;;
  *)       REMARK_FLAGS=(-fopt-info-vec-optimized); PATTERN='optimized: loop vectorized' ;;
esac

FLAGS=(-std=c++20 -O3 -mavx2 -c -o /dev/null -I .)

failures=0
for unit in "${UNITS[@]}"; do
  remarks=$("$CXX" "${FLAGS[@]}" "${REMARK_FLAGS[@]}" "$unit" 2>&1)
  status=$?
  if [[ $status -ne 0 ]]; then
    echo "check_vectorization: FAIL — $unit did not compile with $CXX:" >&2
    echo "$remarks" | head -20 >&2
    failures=$((failures + 1))
    continue
  fi
  count=$(echo "$remarks" | grep -c "$PATTERN")
  if [[ $count -eq 0 ]]; then
    echo "check_vectorization: FAIL — $unit: no '$PATTERN' remark from $CXX" >&2
    echo "$remarks" | head -20 >&2
    failures=$((failures + 1))
  else
    echo "check_vectorization: OK — $unit: $count vectorized loop(s) ($CXX)"
  fi
done

if [[ $failures -ne 0 ]]; then
  echo "check_vectorization: $failures unit(s) failed" >&2
  exit 1
fi
echo "check_vectorization: all kernel units vectorize"
