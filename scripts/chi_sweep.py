#!/usr/bin/env python3
"""Sweep chromatic numbers of generated class members against the class
chi-bounds and report how tight the bounds get.

For every class the sweep runs `tcfree verify-chi`, which samples seeded
members and computes chi and omega by brute force, and prints one row per
class with the worst chi/bound ratio and the histogram of chi - omega gaps
read from its JSON results. Exit status is nonzero if any bound fails, so
the script doubles as a slow randomized check.

Example:
    python scripts/chi_sweep.py --trials 300 --max-n 12 --seed 7
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tcfree import cli
from tcfree.classes import CHI_BOUNDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"{'class':<16} {'bound':<20} {'fail':>4} {'worst chi/bound':>16}  chi-omega gaps")
    any_failed = False
    for cls in CHI_BOUNDS:
        command = ["verify-chi", "--class", cls, "--trials", str(args.trials)]
        command += ["--max-n", str(args.max_n), "--seed", str(args.seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(command)
        if rc not in (0, 4):
            return rc
        report = json.loads(out.getvalue())
        results = report["results"]
        failures = sum(not r["ok"] for r in results)
        any_failed = any_failed or failures > 0
        worst = max(results, key=lambda r: r["chi"] / r["bound"])
        gaps = Counter(r["chi"] - r["omega"] for r in results)
        gap_text = " ".join(f"{k}:{v}" for k, v in sorted(gaps.items()))
        print(
            f"{cls:<16} {report['bound']:<20} {failures:>4} "
            f"{worst['chi'] / worst['bound']:>12.3f} @{worst['seed']:<6} {gap_text}"
        )
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
