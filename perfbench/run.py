#!/usr/bin/env python3
"""The repository benchmark: DIABLO workloads through diablo::run_experiment.

    python3 perfbench/run.py --workload fifa_srbb --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It builds perfbench/ (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), measures, checks
the outputs, prints one record line with the testbed and the raw samples, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports the
per-layer metrics from a traced run and the host-time layer replay. See
perfbench/README.md for the workloads, the metrics and what should move them.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Set-up is timed in a burst before every call, so that changes in host
# speed during a run reach setup_s as they reach wall_s: each burst makes
# at least SETUP_REPS set-ups and runs for at least SETUP_SECONDS.
SETUP_REPS = 2
SETUP_SECONDS = 0.4
MAX_CALLS = 16          # run seeds per --seed
# run_experiment calls per --trace 0 run at --seconds 20, about 20 s of calls
# each on the reference testbed (README.md).
CALLS_AT_20_S = {"fifa_srbb": 3, "nasdaq_srbb": 2, "fifa_evmdbft": 3}
CHILD_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "diablo" / "runner.hpp").is_file():
        raise RuntimeError("no simulator sources under src/; run from a checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850, check=False)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(step))
    return out / "srbb_perfbench"


def child(binary, workload, seed, *args):
    """One measurement process; returns its JSON record."""
    command = [str(binary), "--workload", workload, "--seed", str(seed), *args]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=CHILD_TIMEOUT_S, check=False, text=True)
    if done.returncode != 0:
        raise RuntimeError("failed: " + " ".join(command))
    return json.loads(done.stdout.strip().splitlines()[-1])


def testbed(record):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=False).stdout.strip() or None
        except OSError:
            pass
    # Identifies the measured code when the checkout is not a git repository.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
    }


class Checks:
    """Output checks: how many were made, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_run(record, checks):
    """Output checks every run_experiment call must pass."""
    result = record["result"]
    checks.expect(result["committed"] <= result["sent"], "committed > sent")
    checks.expect(result["sent"] == record["expected_sent"],
                  "sent differs from the schedule")
    count = result["e2e_commit"]["count"]
    checks.expect(count == result["committed"],
                  "e2e_commit histogram misses commits")
    best = stats.highest_percentile(count)
    checks.expect(best is not None and best >= 99.0,
                  "p99 has fewer than 10 samples beyond it")


def calls_per_run(workload, seconds):
    """run_experiment calls in one --trace 0 run, in proportion to
    `seconds`. A fixed count, not a clock, so both sides of a comparison
    measure the same work on the same run seeds."""
    return max(1, min(MAX_CALLS, round(CALLS_AT_20_S[workload] * seconds / 20)))


def run_seed(seed, call):
    """RunConfig::seed of call `call` of a run with --seed `seed`."""
    return seed * MAX_CALLS + call


def end_to_end(binary, args, checks, record):
    setups, runs = [], []
    for call in range(calls_per_run(args.workload, args.seconds)):
        setups.append(child(binary, args.workload, args.seed, "--mode", "setup",
                            "--reps", str(SETUP_REPS),
                            "--min-seconds", str(SETUP_SECONDS)))
        runs.append(child(binary, args.workload, run_seed(args.seed, call),
                          "--mode", "run"))
    for setup, run in zip(setups, runs):
        checks.expect(setup["same_inputs"], "set-up repeats generated different inputs")
        check_run(run, checks)
        checks.expect(run["result"]["sent"] == setup["txs"],
                      "set-up and run disagree on the transaction count")
    setup_samples = [t for setup in setups for t in setup["setup_s"]]

    # Simulated metrics: the mean over the run seeds of this run.
    results = [run["result"] for run in runs]

    def sim_mean(metric):
        return statistics.mean([metric(r) for r in results])

    metrics = {
        "wall_s": (statistics.median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_kb"] for r in runs]) / 1024, "MB"),
        "sim_tps": (sim_mean(lambda r: r["throughput_tps"]), "tx/s"),
        "sim_p50_latency_s": (sim_mean(lambda r: r["p50_latency_s"]), "s"),
        "sim_p99_latency_s": (sim_mean(
            lambda r: stats.histogram_quantile(r["e2e_commit"], 0.99) / 1e9), "s"),
        "sim_commit_pct": (sim_mean(
            lambda r: stats.commit_pct(r["sent"], r["committed"])), "%"),
    }
    record.update(
        testbed=testbed(runs[0]),
        run_seeds=[run_seed(args.seed, call) for call in range(len(runs))],
        wall_s_samples=[r["wall_s"] for r in runs],
        setup_s_samples=setup_samples,
        p99_samples=[r["e2e_commit"]["count"] for r in results],
        p99_samples_beyond=[stats.samples_beyond(r["e2e_commit"]["count"], 99.0)
                            for r in results],
        failure_share=[stats.failure_share(r["sent"], r["committed"]) for r in results],
        validators=runs[0]["validators"],
        sent=[r["sent"] for r in results],
        committed=[r["committed"] for r in results])
    return metrics


def per_layer(binary, args, checks, record):
    # The first run seed of the matching --trace 0 run, three times: traced,
    # untraced, traced, so a slow spell of the host hits both sides alike.
    seed = run_seed(args.seed, 0)
    traced = [child(binary, args.workload, seed, "--mode", "run", "--traced")]
    untraced = child(binary, args.workload, seed, "--mode", "run")
    traced.append(child(binary, args.workload, seed, "--mode", "run", "--traced"))
    for run in [untraced] + traced:
        check_run(run, checks)
        checks.expect(run["result"] == untraced["result"],
                      "repeats of one seed, traced or not, gave different results")
    checks.expect(traced[0]["trace"]["fingerprint"] == traced[1]["trace"]["fingerprint"],
                  "repeats of one seed gave different trace fingerprints")
    trace = traced[0]["trace"]
    block_txs = max(1, round(trace["mean_block_txs"]))
    superblock_txs = max(1, round(trace["mean_superblock_txs"]))
    replay = child(binary, args.workload, seed, "--mode", "replay",
                   "--block-txs", str(block_txs),
                   "--superblock-txs", str(superblock_txs))
    checks.expect(not replay["failures"], "layer replay: " + "; ".join(replay["failures"]))

    result = untraced["result"]
    counts = trace["counts"]
    layers = replay["layers"]
    ms = 1e6  # simulated ns per ms

    def hist_ms(name, q):
        return stats.histogram_quantile(result[name], q) / ms

    metrics = {
        "sim.net_messages": (result["network_messages"], "count"),
        "sim.net_bytes": (result["network_bytes"], "bytes"),
        "sim.msgs_per_commit": (stats.ratio(result["network_messages"],
                                            result["committed"]), "msg/commit"),
        "sim.event_ns": (layers["sim.event_ns"], "ns"),
        "sim.send_ns": (layers["sim.send_ns"], "ns"),
        "consensus.superblocks": (counts.get("superblock.exec", 0), "count"),
        "consensus.bin_decided": (counts.get("consensus.bin_decided", 0), "count"),
        "consensus.pulls": (counts.get("consensus.pull", 0), "count"),
        "consensus.propose_to_decide_p50_ms": (hist_ms("propose_to_decide", 0.5), "ms"),
        "consensus.propose_to_decide_p99_ms": (hist_ms("propose_to_decide", 0.99), "ms"),
        "consensus.instance_us": (layers["consensus.instance_us"], "us"),
        "pool.admits": (counts.get("pool.admit", 0), "count"),
        "pool.drops": (counts.get("pool.drop_full", 0), "count"),
        "pool.wait_p50_ms": (hist_ms("pool_wait", 0.5), "ms"),
        "pool.wait_p99_ms": (hist_ms("pool_wait", 0.99), "ms"),
        "pool.add_ns": (layers["pool.add_ns"], "ns"),
        "pool.take_batch_us": (layers["pool.take_batch_us"], "us"),
        "txn.eager_validations": (result["eager_validations"], "count"),
        "txn.eager_per_commit": (stats.ratio(result["eager_validations"],
                                             result["committed"]), "val/commit"),
        "txn.invalid_discarded": (result["invalid_discarded"], "count"),
        "txn.validate_ns": (layers["txn.validate_ns"], "ns"),
        "txn.sender_ns": (layers["txn.sender_ns"], "ns"),
        "txn.signing_hash_ns": (layers["txn.signing_hash_ns"], "ns"),
        "txn.tx_root_us": (layers["txn.tx_root_us"], "us"),
        "codec.tx_decode_ns": (layers["codec.tx_decode_ns"], "ns"),
        "codec.block_decode_us": (layers["codec.block_decode_us"], "us"),
        "crypto.sign_us": (layers["crypto.sign_us"], "us"),
        "crypto.verify_ns": (layers["crypto.verify_ns"], "ns"),
        "evm.apply_ns": (layers["evm.apply_ns"], "ns"),
        "evm.gas_per_tx": (layers["evm.gas_per_tx"], "gas/tx"),
        "state.root_ms": (layers["state.root_ms"], "ms"),
        "state.accounts": (layers["state.accounts"], "count"),
        "srbb.execute_ms": (layers["srbb.execute_ms"], "ms"),
        "srbb.superblock_txs": (trace["mean_superblock_txs"], "tx/superblock"),
        "srbb.decide_to_commit_p50_ms": (hist_ms("decide_to_commit", 0.5), "ms"),
        "srbb.decide_to_commit_p99_ms": (hist_ms("decide_to_commit", 0.99), "ms"),
        "host.cpu_s": (untraced["cpu_s"], "s"),
        "host.trace_overhead_pct": (stats.overhead_pct(
            statistics.mean([r["wall_s"] for r in traced]), untraced["wall_s"]), "%"),
    }
    record.update(
        testbed=testbed(untraced),
        run_seed=seed,
        fingerprint=trace["fingerprint"],
        trace_events=trace["events"],
        trace_counts=counts,
        untraced_wall_s=untraced["wall_s"],
        traced_wall_s=[r["wall_s"] for r in traced],
        replay_block_txs=block_txs,
        replay_superblock_txs=superblock_txs,
        validators=untraced["validators"])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CALLS_AT_20_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        checks = Checks()
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        measure = per_layer if args.trace else end_to_end
        metrics = measure(binary, args, checks, record)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError,
            KeyError, IndexError) as error:
        log(f"perfbench: {error}")
        return 1
    record["checks_failed"] = checks.failures
    print(json.dumps({"record": record}), flush=True)
    for failure in checks.failures:
        log(f"perfbench: check failed: {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
