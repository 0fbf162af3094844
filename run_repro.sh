#!/usr/bin/env bash
# Full reproduction sweep: tests then every bench, recording outputs at the
# repository root. Assumes the project is built in ./build and the shared
# characterization cache exists (any charlib-consuming bench creates it on
# first run; see README).
set -u
cd "$(dirname "$0")"

# Benches resolve caches relative to the working directory.
for f in nsdc_charlib_cache.txt nsdc_mlwire_cache.txt; do
  if [ -f "build/$f" ] && [ ! -f "$f" ]; then cp "build/$f" "$f"; fi
done

ctest --test-dir build 2>&1 | tee test_output.txt

# Static-analysis sweep: certified interval bounds, charlib domain-coverage
# audit, and the cross-engine consistency gate. flow_smoke --analyze runs the
# same passes (verify included) against the end-to-end smoke design; exit
# codes 0/1/2 are the max diagnostic severity (warnings expected on C432's
# synthetic charlib), anything >=3 is a tool failure.
{
  echo "########## nsdc_analyze --iscas C432 --verify ##########"
  build/tools/nsdc_analyze --iscas C432 --gen-spef --synthetic-charlib --verify
  echo "nsdc_analyze exit: $?"
  echo
  echo "########## flow_smoke --analyze ##########"
  build/tools/flow_smoke --analyze
  echo "flow_smoke exit: $?"
} 2>&1 | tee analyze_output.txt

# bench_micro_perf regenerates the checked-in *_perf.json records
# (netmc_parallel, incremental_sta, netmc_checkpoint, ssta_analytic,
# flatgraph, serve, dist; plus the untracked analysis) in the working
# directory as a side effect; each opens with the shared perfjson
# envelope (schema_version + host block). flatgraph_perf.json
# additionally enforces the >=1.3x SoA-vs-legacy throughput gate on the
# largest (~1M-cell) design.
{
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo
    echo "########## $b ##########"
    "$b"
  done
} 2>&1 | tee bench_output.txt
