#!/usr/bin/env bash
# Perf-smoke gate (docs/PERF.md): build the commit-path microbenches and
# assert the structural speedups this repo claims, as *relative* ratios with
# generous margins so the gate is robust to slow/noisy CI machines, or as
# exact deterministic counts:
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
#      "skipped: no SHA-NI";
#   8. the event heap holds lane heads, not pending events: srbb-sim's
#      sim_peak_heap stays under 4 x (validators + clients) in the two
#      gate-6 runs and in one EVM+DBFT FIFA run at scale 0.05 (n = 10),
#      which peaks at 228,258 pending events. The count is exact, so this
#      gate has no noise; one heap entry per pending event overshoots it by
#      orders of magnitude;
#   9. events allocate nothing per event: bench_micro_sim's allocs_per_event
#      (operator new calls, counted by that binary) stays under 0.05 on
#      BM_EventLoopScheduleRun and on BM_PostWorkFifoCaptured, whose closure
#      has the validator's 48-byte shape. The count is exact, so this gate
#      has no noise; a std::function per event makes it at least 1, and a
#      lane that took a deque block per seven items read 0.14;
#  10. gossip dedup state is one row per transaction, not one entry per
#      node and transaction: in the EVM+DBFT run of gate 8, srbb-sim's
#      gossip_seen_rows (distinct hashes in the run's SeenLedger) is at
#      most the transactions sent. Exact, so no noise;
#  11. a state root re-encodes what changed, not the world state: in gate
#      6's SRBB FIFA run at scale 0.05, srbb-sim's state_root_records
#      (account heads plus slot entries encoded over all roots) stays under
#      1/4 x state_records (live accounts plus slots at the end) x
#      state_roots. Exact, so no noise; re-encoding every record at every
#      root overshoots it;
#  12. a lane event re-keys its heap entry instead of popping and pushing
#      it: in the gate-6 and gate-8 runs, srbb-sim's sim_head_pushes (lane
#      heads pushed onto the event heap) stays under sim_events / 10.
#      Exact, so no noise; a pop and a push per lane event puts it near 1.
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build-perf)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-perf}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)" \
      --target bench_micro_crypto bench_micro_pool bench_micro_codec \
               bench_micro_parallel_exec bench_micro_sim srbb-sim

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
"$build_dir/bench/bench_micro_sim" --benchmark_min_time=0.05 \
    --benchmark_filter='BM_(EventLoopScheduleRun|PostWorkFifoCaptured)/' \
    --benchmark_format=json > "$out/sim.json"
# One srbb-sim run per scale: its JSON result (gates 8, 11 and 12) and its peak
# RSS in KiB (gate 6), from the child's rusage.
for scale in 0.05 0.1; do
  python3 -c 'import resource, subprocess, sys
with open(sys.argv[1], "w") as fh:
    subprocess.run(sys.argv[2:], check=True, stdout=fh)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
      "$out/sim_$scale.json" "$build_dir/tools/srbb-sim" --system srbb \
      --workload fifa --scale "$scale" --json > "$out/rss_$scale.txt"
done
# The EVM+DBFT baseline on FIFA (gates 8, 10 and 12).
"$build_dir/tools/srbb-sim" --system evmdbft --workload fifa --scale 0.05 \
    --json > "$out/sim_evmdbft_0.05.json"

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

# 8. Event-heap size, SRBB FIFA at n = 10 and n = 20 and EVM+DBFT FIFA at
#    n = 10. The heap holds the free-form timers plus one head per non-empty
#    lane (a node's CPU, a receiver's NIC, a client's schedule), so it
#    scales with the node count. Measured 42, 71 and 41 with lanes; one heap
#    entry per pending event peaked at 32,676, 73,120 and 783,737 (228,258
#    on EVM+DBFT since a seen copy's dedup queues no event).
#    Deterministic, so the bound is exact.
for tag in ("0.05", "0.1", "evmdbft_0.05"):
    with open(f"{out}/sim_{tag}.json") as fh:
        run = json.load(fh)
    bound = 4 * (run["validators"] + run["clients"])
    heap = run["sim_peak_heap"]
    status = "ok" if heap < bound else "FAIL"
    print(f"  fifa-{tag} sim_peak_heap: {heap} (must be < {bound}; "
          f"peak pending events {run.get('sim_peak_pending')}) [{status}]")
    if status == "FAIL":
        failures.append(f"peak-heap-{tag}")

# 9. Heap blocks per event. sim::Task keeps each closure inline; what is
#    left is the timer and lane containers' growth, measured 0.033
#    (1,000 timers), 0.001 (100,000) and 0.018 (a lane
#    block per 56 items; a deque block per seven read 0.14). A
#    std::function per event measured 1.14 on the captured bench.
#    Deterministic, so the bound is exact.
for name, allocs in load("sim.json", field="allocs_per_event").items():
    status = "ok" if allocs < 0.05 else "FAIL"
    print(f"  {name} allocs_per_event: {allocs:.3f} (must be < 0.05) "
          f"[{status}]")
    if status == "FAIL":
        failures.append(f"allocs-{name}")

# 10. Gossip seen state, EVM+DBFT FIFA at n = 10: one SeenLedger row per
#     distinct gossiped hash, and only sent transactions are gossiped.
#     Measured 31,347 rows for 31,347 sent; the per-node sets it replaced
#     held up to n x rows = 313,470 entries. Zero rows would mean the run
#     never gossiped. Deterministic, so the bound is exact.
with open(f"{out}/sim_evmdbft_0.05.json") as fh:
    run = json.load(fh)
rows, sent = run["gossip_seen_rows"], run["sent"]
status = "ok" if 0 < rows <= sent else "FAIL"
print(f"  evmdbft-fifa gossip_seen_rows: {rows} (must be in (0, {sent}]) "
      f"[{status}]")
if status == "FAIL":
    failures.append("gossip-seen-rows")

# 11. State-root work, SRBB FIFA at n = 10. Each root patches the kept
#     image from the journal, so it encodes the records that changed.
#     Measured 70,601 records over 33 roots against a bound of 323,326;
#     re-encoding every live record at every root measured 412,889.
#     Deterministic, so the bound is exact.
with open(f"{out}/sim_0.05.json") as fh:
    run = json.load(fh)
records = run["state_root_records"]
bound = run["state_records"] * run["state_roots"] / 4
status = "ok" if records < bound else "FAIL"
print(f"  fifa-0.05 state_root_records: {records} (must be < {bound:.0f}: "
      f"1/4 x {run['state_records']} live records x {run['state_roots']} "
      f"roots) [{status}]")
if status == "FAIL":
    failures.append("state-root-records")

# 12. Lane-head pushes per event, the gate-6 and gate-8 runs. A firing lane
#     keeps its heap entry and re-keys it for its next event, so a head is
#     pushed only when a lane goes from empty to non-empty. Measured
#     0.068, 0.022 and 0.011 pushes per event (31,591 / 63,032 / 34,110);
#     popping and pushing the head per lane event read about 1.0.
#     Deterministic, so the bound is exact.
for tag in ("0.05", "0.1", "evmdbft_0.05"):
    with open(f"{out}/sim_{tag}.json") as fh:
        run = json.load(fh)
    pushes, events = run["sim_head_pushes"], run["sim_events"]
    status = "ok" if pushes < events / 10 else "FAIL"
    print(f"  fifa-{tag} sim_head_pushes: {pushes} (must be < {events / 10:.0f}"
          f" = sim_events / 10; {pushes / events:.4f} per event) [{status}]")
    if status == "FAIL":
        failures.append(f"head-pushes-{tag}")

if failures:
    print(f"perf_smoke: FAILED ({', '.join(failures)})")
    sys.exit(1)
print("perf_smoke: all ratios within bounds")
EOF
