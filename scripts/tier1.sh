#!/usr/bin/env bash
# Tier-1 verification: the full build + test suite, then a
# ThreadSanitizer pass over the concurrent service/queue code.
#
# Usage: scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "== tier 1: ThreadSanitizer (service, queue, step pool, parallel stepping, prefetch, shards, step kernel, traffic fuzz, resident blocks, walker budget share, pre-sample refill, shared index views) =="
cmake --preset tsan >/dev/null
cmake --build build-tsan -j "$JOBS" --target noswalker_tests
# The 50-seed fuzz sweep stays in the full (fast) build; TSan runs the
# reduced seed sweep (TrafficModel.ReducedSeedSweepHoldsInvariants).
ctest --test-dir build-tsan -R 'Service|BlockingQueue|ThreadPool|ParallelStep|Prefetch|AsyncLoader|Reorder|SharedBlockCache|Sharded|Migration|MigrationOverlap|ShardPresample|StepKernel|TrafficModel|Backpressure|ResidentBlocks|InheritThePoolShare|UncappableBlock|ViewSharesTheIndex' -E 'FiftySeeded' --output-on-failure

echo
echo "== tier 1: prefetch smoke (reorder-window + depth ablations) =="
ctest --test-dir build -R 'Prefetch' --output-on-failure -j "$JOBS"
./build/bench/micro_storage --benchmark_filter=BM_SsdModelRequest --benchmark_min_time=0.01 >/dev/null

echo
echo "== tier 1: sharded smoke (cross-shard bit-identity + migration conservation) =="
ctest --test-dir build -R 'Sharded|Migration|ShardPlan' --output-on-failure -j "$JOBS"
./build/bench/shard_scaling >/dev/null


echo
echo "== tier 1: step-kernel smoke (kernel vs replay-oracle bit-identity + batch draws) =="
ctest --test-dir build -R 'StepKernel|AliasTableBatch' --output-on-failure -j "$JOBS"


echo
echo "== tier 1: service-traffic fuzz smoke (seeded episodes + conservation invariants + tenant backpressure) =="
ctest --test-dir build -R 'FuzzService|TrafficModel|Backpressure' --output-on-failure -j "$JOBS"

echo
echo "tier 1 passed"
