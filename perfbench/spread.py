#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload fifa_srbb --seeds 1-10

Runs `run.py --trace 0` once per seed, one after another, and prints per
metric the median, the quartile distance as a share of the median
(statistics.quantiles, n=4) and that share against a third of the metric's
bound in BENCHMARK.json. The raw result lines go to --out if given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="append every result line to this file")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(lines[-2] + "\n" + lines[-1] + "\n")
        print(f"seed {seed}: correct={result['correct']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for name, series in values.items():
        share = stats.iqr_share(series)
        print(f"{args.workload} {name}: median {statistics.median(series):.6g} "
              f"spread {share:.4f} (bound/3 {bounds[name] / 3:.4f}) "
              f"{'ok' if share < bounds[name] / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
