#!/usr/bin/env python3
"""Decompose generated class members and count the basic graphs of their atoms.

Members of the four classes decompose along clique cutsets into atoms, and
each atom is a basic graph or a join of basic graphs. The census generates
seeded members and reads each one's classes.analyze: the decomposition
tree, and the class's own leaf function run on every atom, whose pieces
are the atom's basic graphs. It prints a table per class with tree size statistics
and one column per piece family (classes.Piece): how many pieces of that
family the atoms held. A gu, gutcap or gut atom gives one piece per
anticomponent, a gt atom one piece.

Expectations to check in the output: each class shows only its own
families (gt: clique, ring, antihole, one piece per leaf; gu and gutcap:
chordal and hyperhole; gut: clique for each single-vertex anticomponent,
then ring, long-hole-free and alpha2, the first test that passes). A
member that the class's analysis rejects raises NotInClassError, which
would be a generator or recognizer bug.

Example:
    python scripts/structure_census.py --trials 200 --max-n 13
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tcfree import classes
from tcfree.decomposition import Join
from tcfree.generators import gen_class_member

FAMILIES = (
    classes.CLIQUE,
    classes.CHORDAL,
    classes.HYPERHOLE,
    classes.RING,
    classes.ANTIHOLE,
    classes.LONG_HOLE_FREE,
    classes.ALPHA2,
)


@dataclass(frozen=True)
class CensusConfig:
    trials: int = 200
    max_n: int = 13
    seed: int = 0
    pieces: int = 3


def census(cls: str, cfg: CensusConfig) -> tuple[Counter, Counter]:
    families: Counter = Counter()
    tree_stats: Counter = Counter()
    for index in range(cfg.trials):
        g = gen_class_member(cfg.seed + index, cls, pieces=cfg.pieces, max_n=cfg.max_n)
        tree, leaves, rejection = classes.analyze(g, cls)
        if rejection is not None:
            raise classes.NotInClassError(rejection)
        tree_stats["trees"] += 1
        tree_stats["nodes"] += len(tree.nodes)
        tree_stats["leaves"] += len(leaves)
        for got in leaves:
            families.update(piece.family for piece in (got.pieces if isinstance(got, Join) else (got,)))
    return families, tree_stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--max-n", type=int, default=13)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pieces", type=int, default=3)
    args = parser.parse_args(argv)
    cfg = CensusConfig(trials=args.trials, max_n=args.max_n, seed=args.seed, pieces=args.pieces)

    header = f"{'class':<8} {'trees':>5} {'nodes':>6} {'leaves':>6}  " + "".join(f"{k:>15}" for k in FAMILIES)
    print(header)
    for cls in classes.CLASS_IDS:
        families, stats = census(cls, cfg)
        per_family = "".join(f"{families.get(k, 0):>15}" for k in FAMILIES)
        print(f"{cls:<8} {stats['trees']:>5} {stats['nodes']:>6} {stats['leaves']:>6}  {per_family}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
