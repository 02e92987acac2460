#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread of
every end-to-end metric against its bound in BENCHMARK.json.

    python3 benchmark/steady.py [--save FILE] [--against FILE]

Each workload of BENCHMARK.json runs RUNS times, seeds 1 to RUNS, each run a
fresh `benchmark/run.py` process of `run_seconds`. For each workload and
metric the table shows the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread, (q3 - q1) / median, next to
the metric's bound; a spread under a third of the bound reads "steady", one
above the bound fails. Every run must report correct answers,
and the share of failed requests must be the same in every run. --save
writes the raw results; --against compares the medians with a saved set
and flags a metric whose median got worse by more than its bound.
Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def _run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def _worse(metric: dict, old: float, new: float) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    previous = json.loads(args.against.read_text()) if args.against else {}
    results: dict[str, list[dict]] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(_run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        results[workload] = runs
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        share_text = ", ".join(f"{s.numerator}/{s.denominator}" for s in sorted(shares))
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, failed share {share_text}")
        print(f"  {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}  verdict")
        for name, metric in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if spread < metric["bound"] / 3:
                verdict = "steady"
            elif spread <= metric["bound"]:
                verdict = "within bound"
            else:
                verdict, ok = "TOO WIDE", False
            if workload in previous:
                old = statistics.median(r["metrics"][name]["value"] for r in previous[workload])
                change = _worse(metric, old, median)
                verdict += f"; {change:+.1%} vs saved"
                if change > metric["bound"]:
                    verdict, ok = verdict + " REGRESSED", False
            print(f"  {name:16} {median:11.4f} {q1:11.4f} {q3:11.4f} {spread:8.2%} {metric['bound']:6.2f}  {verdict}")
    if args.save:
        args.save.write_text(json.dumps(results) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
