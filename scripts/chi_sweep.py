#!/usr/bin/env python3
"""Sweep chromatic numbers of generated class members against the class
chi-bounds and report how tight the bounds get.

For every class the sweep generates seeded members, computes chi and omega
by brute force, checks chi against the bound, and prints one row per class
with the worst ratio and the histogram of chi - omega gaps. Exit status is
nonzero if any bound fails, so the script doubles as a slow randomized
check.

Example:
    python scripts/chi_sweep.py --trials 300 --max-n 12 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tcfree.classes import CHI_BOUNDS
from tcfree.generators import gen_class_member, gen_hyperantihole
from tcfree.graphs import WeightedGraph
from tcfree.oracles import brute_chi, brute_omega_w


@dataclass(frozen=True)
class SweepConfig:
    trials: int = 300
    max_n: int = 12
    seed: int = 0
    pieces: int = 2


def _instance(cls: str, trial_seed: int, cfg: SweepConfig):
    if cls == "hyperantihole7":
        rng = random.Random(trial_seed)
        budget = max(7, cfg.max_n)
        sizes = [1] * 7
        for _ in range(budget - 7):
            sizes[rng.randrange(7)] += 1
        return gen_hyperantihole(trial_seed, 7, sizes)
    return gen_class_member(trial_seed, cls, pieces=cfg.pieces, max_n=cfg.max_n)


def sweep_class(cls: str, cfg: SweepConfig) -> dict:
    formula, bound_fn = CHI_BOUNDS[cls]
    gaps: dict[int, int] = {}
    worst_ratio = 0.0
    worst_seed = None
    failures = 0
    for index in range(cfg.trials):
        trial_seed = cfg.seed + index
        g = _instance(cls, trial_seed, cfg)
        omega = brute_omega_w(WeightedGraph(g, (1,) * g.n))
        chi = brute_chi(g)
        bound = bound_fn(omega)
        if chi > bound:
            failures += 1
        ratio = chi / bound if bound else float("inf")
        if ratio > worst_ratio:
            worst_ratio, worst_seed = ratio, trial_seed
        gaps[chi - omega] = gaps.get(chi - omega, 0) + 1
    return {
        "cls": cls,
        "formula": formula,
        "failures": failures,
        "worst_ratio": worst_ratio,
        "worst_seed": worst_seed,
        "gaps": gaps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pieces", type=int, default=2)
    args = parser.parse_args(argv)
    cfg = SweepConfig(trials=args.trials, max_n=args.max_n, seed=args.seed, pieces=args.pieces)

    print(f"{'class':<16} {'bound':<20} {'fail':>4} {'worst chi/bound':>16}  chi-omega gaps")
    any_failed = False
    for cls in CHI_BOUNDS:
        row = sweep_class(cls, cfg)
        any_failed = any_failed or row["failures"] > 0
        gap_text = " ".join(f"{k}:{v}" for k, v in sorted(row["gaps"].items()))
        print(
            f"{row['cls']:<16} {row['formula']:<20} {row['failures']:>4} "
            f"{row['worst_ratio']:>12.3f} @{row['worst_seed']:<6} {gap_text}"
        )
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
