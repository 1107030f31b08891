#!/usr/bin/env bash
# bench.sh — run the repo's canonical benchmark set and write one
# consolidated BENCH_<name>.json per suite (go test -json schema, the
# same files CI uploads as artifacts), plus the human-readable
# bench_<name>.txt transcripts the regression gates parse.
#
# Usage:
#   scripts/bench.sh [outdir]
#
# outdir defaults to the current directory. Override iteration counts
# with BENCHTIME_SCALE (multiplies every -benchtime Nx; default 1) for
# longer, steadier runs on quiet machines:
#
#   BENCHTIME_SCALE=10 scripts/bench.sh /tmp/bench
#
# Suites (matching .github/workflows/ci.yml step-for-step):
#   explore   end-to-end Explore + engine benchmarks, bounded memo LRU
#             churn and hit (64-key batches on a full 65,536-entry cache)
#   serve     HTTP batch throughput, serve-mix batch (22 hot + 10 new
#             designs), single evaluate
#   stream    materializing vs streaming pipeline
#   factored  term-factorized vs monolithic stream (gated >= 2.0x in CI)
#   block     block kernel vs scalar streaming baseline (gated >= 3.0x in CI)
#   reduce    sequencer-free sharded reduce vs ordered stream (gated >= 1.0x in CI)
#   optimize  successive-halving optimizer
#   dist      loopback shard-chunk dispatch round trip (coordinator -> replica)
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-.}"
mkdir -p "$OUT"
SCALE="${BENCHTIME_SCALE:-1}"

# bench <name> <benchtime-iters> <pattern> <pkg> [extra txt pattern] [extra txt pkg]
# Writes $OUT/BENCH_<name>.json and $OUT/bench_<name>.txt.
bench() {
  local name=$1 iters=$2 pattern=$3 pkg=$4
  local n=$((iters * SCALE))
  echo "== ${name}: -bench '${pattern}' -benchtime ${n}x ${pkg}"
  go test -json -run '^$' -bench "$pattern" -benchtime "${n}x" "$pkg" \
    > "$OUT/BENCH_${name}.json"
  go test -run '^$' -bench "$pattern" -benchtime "${n}x" "$pkg" \
    | tee "$OUT/bench_${name}.txt"
}

bench explore 5 'Explore' .
go test -run '^$' -bench 'BenchmarkEngine|BenchmarkMemoCacheBounded' -benchmem \
  -benchtime "$((5 * SCALE))x" ./internal/explore | tee "$OUT/bench_engine.txt"
bench serve 5 'BenchmarkBatchThroughput|BenchmarkBatchWarmCache|BenchmarkBatchServeMix|BenchmarkEvaluateSingle' ./internal/server
bench stream 10 'BenchmarkExplore$|BenchmarkStreamExplore$' ./internal/explore
bench factored 30 'BenchmarkStreamExploreMonolithic$|BenchmarkStreamExploreFactored$' ./internal/explore
bench block 30 'BenchmarkStreamExploreScalar$|BenchmarkStreamExploreBlock$' ./internal/explore
bench reduce 50 'BenchmarkStreamReduceOrdered$|BenchmarkStreamReduceSharded$' ./internal/explore
bench optimize 1 'BenchmarkOptimizeHalving' ./internal/optimize
bench dist 20 'BenchmarkDistDispatch' ./internal/dist

echo
echo "== wrote to ${OUT}:"
ls -l "$OUT"/BENCH_*.json "$OUT"/bench_*.txt
