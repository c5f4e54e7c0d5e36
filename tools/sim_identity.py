#!/usr/bin/env python3
"""Check that two srbb-sim binaries produce byte-identical --json results.

A host-only change (a faster queue, a leaner closure, a deleted layer) must
not move any simulated value. This runs four configurations at seed 16 with
both binaries and compares their JSON lines:

  srbb      nasdaq  scale 0.1
  evmdbft   fifa    scale 0.05
  algorand  uber    scale 0.03   (block gossip on)
  srbb      fifa    scale 0.05   --rpm --byzantine 1 --flood 20

It prints OK per configuration, or the first JSON field that differs, and
exits 1 on any difference (2 when a binary fails to run).

Usage:
  python3 tools/sim_identity.py --base OLD/srbb-sim --change NEW/srbb-sim
"""

import argparse
import json
import subprocess
import sys

SEED = "16"
CONFIGS = [
    ["--system", "srbb", "--workload", "nasdaq", "--scale", "0.1"],
    ["--system", "evmdbft", "--workload", "fifa", "--scale", "0.05"],
    ["--system", "algorand", "--workload", "uber", "--scale", "0.03"],
    ["--system", "srbb", "--workload", "fifa", "--scale", "0.05",
     "--rpm", "--byzantine", "1", "--flood", "20"],
]


def run_both(base, change, args):
    """Run both binaries side by side; their stdout, in that order."""
    argv = args + ["--seed", SEED, "--json"]
    procs = [subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for binary in (base, change)]
    outputs = []
    for binary, proc in zip((base, change), procs):
        out, err = proc.communicate()
        if proc.returncode != 0:
            sys.stderr.write(f"{binary} {' '.join(argv)} exited "
                             f"{proc.returncode}:\n{err}")
            sys.exit(2)
        outputs.append(out)
    return outputs


def first_difference(base_out, change_out):
    """The first field (in the base's order) whose value differs."""
    try:
        base = json.loads(base_out)
        change = json.loads(change_out)
    except json.JSONDecodeError:
        return "output is not one JSON object"
    for key, value in base.items():
        if key not in change:
            return f"{key}: {value!r} vs (missing)"
        if change[key] != value:
            return f"{key}: {value!r} vs {change[key]!r}"
    for key, value in change.items():
        if key not in base:
            return f"{key}: (missing) vs {value!r}"
    return "same fields and values, different bytes (field order or format)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="reference srbb-sim")
    parser.add_argument("--change", required=True, help="srbb-sim under test")
    opts = parser.parse_args()

    same = True
    for args in CONFIGS:
        name = " ".join(args)
        base_out, change_out = run_both(opts.base, opts.change, args)
        if base_out == change_out:
            print(f"OK    {name}")
        else:
            same = False
            print(f"DIFF  {name}: {first_difference(base_out, change_out)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
