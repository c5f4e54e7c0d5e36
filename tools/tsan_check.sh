#!/usr/bin/env bash
# CI gate for the optimistic parallel execution path: build with
# -DSRBB_SANITIZE=thread and run the concurrency-sensitive tests under TSan
# so data races in the overlay/commit pipeline are caught mechanically.
#
# Usage: tools/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DSRBB_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
      --target test_parallel_executor test_thread_pool test_bounded_queue \
               test_oracle test_chaos test_validation_pipeline \
               test_batch_verify test_rwset test_reliability \
               test_state_backend test_interproc test_block test_superblock \
               test_echo_differential test_validation test_transaction
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -R 'ParallelExecutor|ParallelOracle|OverlayState|ThreadPool|BoundedQueue|ChaosParallel|ChaosChurn|ValidationPipeline|BatchVerify|HintedExecutor|RwSetMetrics|Reliability|Membership|QuorumParams|StateBackend|LogBackend|Interproc|Block\.|BlockCodec\.|SealedForgedBody|EchoDifferential|CachedTxOverload|MakeSignedTx'
