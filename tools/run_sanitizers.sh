#!/usr/bin/env bash
# Builds the concurrency/numeric test subset under each requested sanitizer
# and runs it. The parallel STA engine, the SSTA level jobs and the
# Monte-Carlo loops are the intentionally-concurrent code (tsan); the
# parsers, lint rules, cell pin caps, the transient circuit builder and
# numeric kernels are what asan/ubsan sweep. The static-analysis
# suite (interval propagation, verify-engines gate) runs as a second pass
# via its ctest label so new analysis tests are picked up without touching
# the regex.
#
# Usage: tools/run_sanitizers.sh [tsan|asan|ubsan ...] [-R regex]
#   With no sanitizer arguments all three run in sequence.
set -euo pipefail
cd "$(dirname "$0")/.."

REGEX="Threading|ThreadPool|ParallelFor|Sta|NetMc|Netlist|GoldenSta|PathDelay|Lint|Spef|Bench|Incremental|Mutator|Fault|CancellationToken|Moments|Ssta|FlatGraph|Serve|Wire|Argparse|CliValidation|CliGolden|Dist|RetryPolicy|RcTree|DesignGen|Quantile|CellType|Circuit|Dc|Transient"
SANS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    tsan|asan|ubsan) SANS+=("$1"); shift ;;
    -R) REGEX="$2"; shift 2 ;;
    *) echo "usage: $0 [tsan|asan|ubsan ...] [-R regex]" >&2; exit 2 ;;
  esac
done
[[ ${#SANS[@]} -gt 0 ]] || SANS=(tsan asan ubsan)

TARGETS=(test_util test_threading test_netlist test_sta test_netmc
         test_pathdelay test_golden_sta test_lint test_incremental
         test_spef test_benchio test_faultinject test_moments
         test_ssta_analytic test_analysis test_flatgraph test_serve
         test_dist test_rctree test_designgen test_quantiles test_pdk
         test_transient)

for SAN in "${SANS[@]}"; do
  echo "=== ${SAN} ==="
  cmake --preset "${SAN}"
  cmake --build --preset "${SAN}" -j"$(nproc)" --target "${TARGETS[@]}"
  case "${SAN}" in
    tsan)  SAN_ENV=(TSAN_OPTIONS="halt_on_error=1") ;;
    asan)  SAN_ENV=(ASAN_OPTIONS="halt_on_error=1") ;;
    ubsan) SAN_ENV=(UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1") ;;
  esac
  env "${SAN_ENV[@]}" ctest --test-dir "build-${SAN}" -R "$REGEX" \
    --output-on-failure -j"$(nproc)"
  env "${SAN_ENV[@]}" ctest --test-dir "build-${SAN}" -L analysis \
    --output-on-failure -j"$(nproc)"
  echo "${SAN} run clean."
done
