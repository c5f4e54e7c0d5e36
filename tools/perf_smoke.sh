#!/usr/bin/env bash
# Perf-smoke gate (docs/PERF.md): build the commit-path microbenches and
# assert the structural speedups this repo claims, as *relative* ratios with
# generous margins so the gate is robust to slow/noisy CI machines:
#
#   1. multi-scalar batch ed25519 (batch 64) beats one-at-a-time verify
#      per item;
#   2. ValidationPipeline::validate (batch 64) beats a loop over the
#      monolithic eager_validate test oracle (tests/oracle_eager_validate.hpp);
#   3. zero-copy RLP parse beats the copying decoder on a block-shaped frame;
#   4. analysis-hinted scheduling aborts strictly fewer speculations than
#      blind Block-STM on the hot-slot regime (the rw-set hints claim);
#   5. on the two-contract router regime the composed interprocedural hints
#      schedule with zero aborts and zero sequential fallbacks while blind
#      speculation aborts (the summary-composition claim);
#   6. memory grows with the run, not with n x transactions: srbb-sim's peak
#      RSS on SRBB FIFA at scale 0.1 (n = 20) is under 2.3x that at scale
#      0.05 (n = 10). Per-replica copies of run-wide state, such as a
#      committed-transaction set per validator, push it to 2.6x;
#   7. the hash kernels beat the code they replaced on a 4 KiB message:
#      Keccak256 (register-resident permutation) at least 1.4x faster than
#      the table-driven test oracle (tests/oracle_keccak.hpp), and, on a CPU
#      with SHA-NI, dispatched Sha256 at least 2x faster than the portable
#      rounds (tests/oracle_sha256.hpp). Without SHA-NI the SHA half prints
#      "skipped: no SHA-NI".
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build-perf)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-perf}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)" \
      --target bench_micro_crypto bench_micro_pool bench_micro_codec \
               bench_micro_parallel_exec srbb-sim

out="$build_dir/perf_smoke"
mkdir -p "$out"
"$build_dir/bench/bench_micro_crypto" --benchmark_min_time=0.1 \
    --benchmark_filter='BM_Ed25519_Verify|BM_Ed25519_BatchMultiScalar/64' \
    --benchmark_format=json > "$out/crypto.json"
# Gate 7 compares medians of five randomly interleaved repetitions, so both
# sides of each ratio see the same host drift.
"$build_dir/bench/bench_micro_crypto" --benchmark_min_time=0.05 \
    --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=true \
    --benchmark_filter='BM_(Keccak256|Keccak256Oracle|Sha256|Sha256Portable)/4096' \
    --benchmark_format=json > "$out/hash.json"
"$build_dir/bench/bench_micro_pool" --benchmark_min_time=0.1 \
    --benchmark_filter='BM_EagerValidateMonolith/64|BM_PipelineValidate/64' \
    --benchmark_format=json > "$out/pool.json"
"$build_dir/bench/bench_micro_codec" --benchmark_min_time=0.1 \
    --benchmark_filter='BM_RlpDecode' \
    --benchmark_format=json > "$out/codec.json"
"$build_dir/bench/bench_micro_parallel_exec" --benchmark_min_time=0.05 \
    --benchmark_filter='BM_(ParallelExec|HintedExec)/workload:(2|8)/workers:4' \
    --benchmark_format=json > "$out/exec.json"
# Peak RSS (KiB) of one srbb-sim run per scale, from the child's rusage.
for scale in 0.05 0.1; do
  python3 -c 'import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
      "$build_dir/tools/srbb-sim" --system srbb --workload fifa \
      --scale "$scale" --json > "$out/rss_$scale.txt"
done

python3 - "$out" <<'EOF'
import json
import sys

out = sys.argv[1]

def load(path, field="real_time"):
    with open(f"{out}/{path}") as fh:
        doc = json.load(fh)
    return {b["name"]: b[field] for b in doc["benchmarks"]}

crypto = load("crypto.json")
pool = load("pool.json")
codec = load("codec.json")

failures = []

def check(label, got, bound):
    status = "ok" if got < bound else "FAIL"
    print(f"  {label}: ratio {got:.3f} (must be < {bound}) [{status}]")
    if got >= bound:
        failures.append(label)

# 1. Multi-scalar batch verify per item vs single verify. Measured ~0.63 on
#    the reference box; 0.90 leaves headroom for noise while still proving
#    the batch equation shares real work.
batch_per_item = crypto["BM_Ed25519_BatchMultiScalar/64"] / 64.0
check("multiscalar-batch64 / single-verify",
      batch_per_item / crypto["BM_Ed25519_Verify"], 0.90)

# 2. Pipeline vs the monolith test oracle at batch 64 (same single-core
#    budget; the pipeline additionally drops re-encode/re-hash work).
#    Measured ~0.50.
check("pipeline-batch64 / monolith-batch64",
      pool["BM_PipelineValidate/64"] / pool["BM_EagerValidateMonolith/64"],
      0.85)

# 3. Zero-copy RLP parse vs copying decode on a 64-tx frame. Measured ~0.12.
check("rlp-view / rlp-copying",
      codec["BM_RlpDecodeView"] / codec["BM_RlpDecodeCopying"], 0.70)

# 4. Hinted vs blind speculation aborts on the hot-slot regime (workload 2 =
#    every tx increments the same storage slot). The conflict-aware
#    pre-scheduler serializes the predicted conflict class, so it measures 0
#    aborts/block where blind Block-STM burns its retry budget (~4/block).
#    Gate: strictly fewer aborts, with a deterministic count this is exact.
exec_aborts = load("exec.json", field="aborts_per_block")
blind = exec_aborts["BM_ParallelExec/workload:2/workers:4"]
hinted = exec_aborts["BM_HintedExec/workload:2/workers:4"]
print(f"  hot-slot aborts/block: blind {blind:.2f}, hinted {hinted:.2f}")
if not hinted < blind:
    print("  hinted-aborts / blind-aborts: FAIL (hinted must be strictly lower)")
    failures.append("hinted-aborts")
else:
    print("  hinted-aborts < blind-aborts [ok]")

# 5. Router regime (workload 8 = token transfers DELEGATECALLed through a
#    proxy, one shared hot recipient). Only the composed interprocedural
#    summary resolves the cross-contract write, so hints must eliminate both
#    aborts and sequential fallbacks entirely; blind speculation aborts and
#    falls back. Deterministic schedule, so the zero is exact.
blind_r = exec_aborts["BM_ParallelExec/workload:8/workers:4"]
hinted_r = exec_aborts["BM_HintedExec/workload:8/workers:4"]
exec_fallback = load("exec.json", field="fallback_txs")
hinted_r_fb = exec_fallback["BM_HintedExec/workload:8/workers:4"]
print(f"  router aborts/block: blind {blind_r:.2f}, hinted {hinted_r:.2f}; "
      f"hinted fallback_txs {hinted_r_fb:.2f}")
if not (hinted_r == 0 and hinted_r_fb == 0 and blind_r > 0):
    print("  router-hinted: FAIL (need hinted aborts == 0, hinted fallbacks"
          " == 0, blind aborts > 0)")
    failures.append("router-hinted")
else:
    print("  router: hinted aborts/fallbacks == 0 < blind aborts [ok]")

# 6. Memory scaling, SRBB FIFA at n = 10 -> n = 20. Measured 1.9 (54 -> 103
#    MB) with one committed-transaction index per run; 2.6 (69 -> 178 MB)
#    with one set per validator.
def rss_kib(scale):
    with open(f"{out}/rss_{scale}.txt") as fh:
        return int(fh.read())

print(f"  srbb-sim fifa peak RSS: scale 0.05 {rss_kib('0.05') / 1024:.1f} MB, "
      f"scale 0.1 {rss_kib('0.1') / 1024:.1f} MB")
check("fifa-rss-scale0.1 / fifa-rss-scale0.05",
      rss_kib("0.1") / rss_kib("0.05"), 2.3)

# 7. Hash kernels vs the code they replaced, 4 KiB messages, medians of
#    interleaved repetitions. Measured 0.29-0.51 for Keccak (bound 0.714 =
#    1.4x) and 0.13-0.18 for SHA-NI SHA-256 (bound 0.5 = 2x) on the
#    reference box. Whether SHA-NI ran is the bench's own "shani" counter.
with open(f"{out}/hash.json") as fh:
    hashes = {b["run_name"]: b for b in json.load(fh)["benchmarks"]
              if b.get("aggregate_name") == "median"}
check("keccak256-4096 / oracle-keccak256-4096",
      hashes["BM_Keccak256/4096"]["real_time"]
      / hashes["BM_Keccak256Oracle/4096"]["real_time"], round(1 / 1.4, 3))
if hashes["BM_Sha256/4096"]["shani"]:
    check("sha256-4096 / portable-sha256-4096",
          hashes["BM_Sha256/4096"]["real_time"]
          / hashes["BM_Sha256Portable/4096"]["real_time"], 0.5)
else:
    print("  sha256-4096 / portable-sha256-4096: skipped: no SHA-NI")

if failures:
    print(f"perf_smoke: FAILED ({', '.join(failures)})")
    sys.exit(1)
print("perf_smoke: all ratios within bounds")
EOF
