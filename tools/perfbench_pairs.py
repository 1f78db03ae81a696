#!/usr/bin/env python3
"""Interleaved before/after runs of the end-to-end benchmark.

Runs ``perfbench/run.py`` alternately from two checkouts (``--base`` and
``--change``), one process per run, with the same seed on both sides of
a pair and the side that goes first alternating between pairs, so drift
in the host's speed cancels.  Records every metric's per-pair values and,
per side, the median and interquartile range, plus the change/base ratio
of the medians.  Results merge into ``--out`` keyed by workload and
trace mode, so one file collects several invocations::

    python3 tools/perfbench_pairs.py --base ../parent --change . \\
        --workload spec-x86 --pairs 8 --seconds 20 --out BENCH_x86.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no result\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"base": args.base, "change": args.change}
    pairs = []
    for seed in range(1, args.pairs + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed,
                                  args.seconds, args.trace)
        pairs.append(pair)
        print(f"pair {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics']}" for side in sides),
            file=sys.stderr, flush=True)

    metrics = {}
    for name in pairs[0]["base"]["metrics"]:
        entry = {"unit": pairs[0]["base"]["metrics"][name]["unit"]}
        for side in sides:
            values = [p[side]["metrics"][name]["value"] for p in pairs]
            entry[side] = {"values": values, **spread(values)}
        base = entry["base"]["median"]
        entry["change_over_base"] = (entry["change"]["median"] / base
                                     if base else None)
        metrics[name] = entry
    record = {
        "seconds": args.seconds,
        "pairs": len(pairs),
        "all_correct": all(p[s]["correct"] for p in pairs for s in sides),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
        "metrics": metrics,
    }
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("runs", {})[
        f"{args.workload}/trace{args.trace}"] = record
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
