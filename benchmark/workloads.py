"""Seeded inputs of the three workloads, written as graph files.

Every workload is a fixed list of requests (`Item`s): the sizes, classes and
problems are the same for every seed, and the seed draws the graphs. Each
request has a graph of its own. Graphs of one size differ in cost by 10-40%
from one seed to the next (the clique-cutset search depends on structure
and on labels), so only many independent graphs make the percentiles of a
run repeat across seeds.

Members are 1-sums of basic pieces: each block is `gen_class_member` with
one piece of at most PIECE_MAX vertices, and shares one vertex with the
graph built so far. A cap, a Truemper configuration, K23, C6bar and W54 are
2-connected, so each lies inside one block of a 1-sum: joining members at a
vertex keeps all four classes, and the result has exactly the requested
size. One piece is never glued, so generation runs no `find_cap` scan, and
the atoms are the generator's own basic pieces: up to 12 vertices on gu,
and up to PIECE_MAX on gt, gut and gutcap (rings, hyperholes,
hyperantiholes, chordal graphs). PIECE_MAX keeps one dense piece from
taking most of a round: with no cap, a single 120-vertex gutcap member took
10.7 s to solve, a third of its round.

Non-members are a member plus one planted configuration sharing a single
vertex with it, so the verdict is known by construction. Every
configuration but the cap has no clique cutset, so its vertex set is an
atom of the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference as ref

WORKLOADS = ("decompose", "solve", "recognize")

# One fixed set of decimal-weight requests, independent of --seed: their
# failures come from the program's float weights and must be the same in
# every run (see README.md).
DECIMAL_SEEDS = (101, 202, 303, 404)
DECIMAL_N = 40

PIECE_MAX = 30
# Graphs per size ladder. With these a round takes 12-16 s of serving on the
# reference machine (README.md), two rounds per run. The chordal graphs are
# the top 15% of a decompose round, so its p90 falls among them, and its
# p50 among the members, whose ladder starts at 80 rather than 60 so that
# more of them cost about the same.
DECOMPOSE_CHORDAL = 17
DECOMPOSE_MEMBERS = 50
# gutcap gets fewer sizes: its solvers cost several times more than the
# others at the same n and vary by 30-50% from graph to graph, so with as
# many sizes as the others its large members would make up the whole top
# tenth of a round and its p90 would follow a handful of graphs.
SOLVE_SIZES = {"gu": 40, "gt": 40, "gutcap": 12}
RECOGNIZE_SIZES = 27

SOLVE_PROBLEMS = {"gu": ("mwc", "mwss", "color"), "gt": ("mwc", "mwss"), "gutcap": ("mwc", "mwss", "color")}


@dataclass
class Item:
    """One request: `tcfree <argv>` on the graph text, plus what the check
    needs to know about how the graph was built."""

    label: str
    argv: list[str]
    text: str
    command: str
    cls: Optional[str] = None
    problem: Optional[str] = None
    member: bool = True
    planted: frozenset[int] = frozenset()
    chordal: bool = False
    decimal: bool = False
    ref_graph: Optional[ref.RefGraph] = field(default=None, repr=False)

    def graph(self) -> ref.RefGraph:
        if self.ref_graph is None:
            self.ref_graph = ref.parse_text(self.text)
        return self.ref_graph


def _ladder(low: int, high: int, count: int) -> list[int]:
    return [round(low + (high - low) * i / (count - 1)) for i in range(count)]


def _edges(g) -> list[tuple[int, int]]:
    return list(g.edges())


def _member(tc, rng: random.Random, cls: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    """A member on exactly n vertices: single basic pieces, each sharing one
    vertex with the graph built so far."""
    total, edges = 0, []
    while total < n:
        room = n if total == 0 else n - total + 1
        block = tc.gen_class_member(rng.randrange(1 << 32), cls, pieces=1, max_n=min(PIECE_MAX, room))
        if total == 0:
            total, edges = block.n, _edges(block)
            continue
        anchor, at = rng.randrange(total), rng.randrange(block.n)
        relabel = [anchor if v == at else total + v - (v > at) for v in range(block.n)]
        edges += [(relabel[u], relabel[v]) for u, v in _edges(block)]
        total += block.n - 1
    return total, edges


def _planted_config(rng: random.Random, cls: str) -> ref.Config:
    """A configuration the class excludes, with seeded path and hole lengths."""
    if cls == "gutcap":
        return ref.wheel("Cap", rng.randint(4, 7), [0, 1])
    if cls == "gu":
        return ref.wheel("TwinWheel", rng.randint(4, 8), [0, 1, 2])
    if cls == "gt":
        k = rng.randint(4, 8)
        return ref.wheel("UniversalWheel", k, range(k))
    shape = rng.choice(("Theta", "Pyramid", "Prism", "ProperWheel"))
    if shape == "Theta":
        return ref.theta([2, rng.randint(2, 3), rng.randint(3, 4)])
    if shape == "Pyramid":
        return ref.pyramid([rng.randint(1, 2), 2, rng.randint(2, 3)])
    if shape == "Prism":
        return ref.prism([1, rng.randint(1, 2), rng.randint(2, 3)])
    k = rng.randint(5, 7)
    attach = sorted(rng.sample(range(k), rng.randint(3, k - 1)))
    if len(attach) == 3 and ref.consecutive(attach, k):
        attach = [0, 2, 3]
    return ref.wheel("ProperWheel", k, attach)


def _non_member(tc, rng: random.Random, cls: str, n: int):
    """Member plus a planted configuration sharing one vertex. The
    configuration takes the labels from about n / 2 on and the member's other
    vertices are shuffled over the rest, so a search in label order meets
    the configuration halfway, whatever the seed."""
    config = _planted_config(rng, cls)
    base_n, edges = _member(tc, rng, cls, n - config.n + 1)
    anchor = rng.randrange(base_n)
    at = rng.randrange(config.n)
    local = [anchor if v == at else base_n + v - (v > at) for v in range(config.n)]
    edges = edges + [(local[u], local[v]) for u, v in config.edges]
    total = base_n + config.n - 1
    start = min(total // 2, total - config.n)
    rest = [v for v in range(total) if v not in local]
    slots = [v for v in range(total) if not start <= v < start + config.n]
    rng.shuffle(slots)
    label = dict(zip(rest, slots))
    label.update((v, start + i) for i, v in enumerate(local))
    edges = [(label[u], label[v]) for u, v in edges]
    planted = frozenset(range(start, start + config.n))
    return total, edges, planted, config.kind


def _int_weights(rng: random.Random, n: int) -> list[str]:
    return [str(rng.randint(-3, 9)) for _ in range(n)]


def _decimal_weights(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.uniform(-1, 3):.1f}" for _ in range(n)]


def _decompose_items(tc, seed: int, reduced: bool) -> list[Item]:
    groups = [
        ("chordal", _ladder(100, 300, DECOMPOSE_CHORDAL)),
        ("gu", _ladder(80, 120, DECOMPOSE_MEMBERS)),
        ("gt", _ladder(80, 120, DECOMPOSE_MEMBERS)),
    ]
    items = []
    for kind, sizes in groups:
        for i, n in enumerate(sizes[:2] if reduced else sizes):
            rng = random.Random(f"decompose:{seed}:{kind}:{i}")
            if kind == "chordal":
                g = tc.gen_chordal(rng.randrange(1 << 32), n, 0.6)
                text = ref.format_text(g.n, _edges(g))
            else:
                text = ref.format_text(*_member(tc, rng, kind, n))
            items.append(Item(f"{kind}-{i}-n{n}", ["decompose"], text, "decompose", cls=kind, chordal=kind == "chordal"))
    return items


def _solve_items(tc, seed: int, reduced: bool) -> list[Item]:
    items = []
    for cls, problems in SOLVE_PROBLEMS.items():
        sizes = _ladder(16, 120, SOLVE_SIZES[cls])
        for problem in problems:
            argv = ["solve", "--class", cls, "--problem", problem]
            for i, n in enumerate(sizes[:2] if reduced else sizes):
                rng = random.Random(f"solve:{seed}:{cls}:{problem}:{i}")
                nv, edges = _member(tc, rng, cls, n)
                text = ref.format_text(nv, edges, _int_weights(rng, nv))
                items.append(Item(f"{cls}-{problem}-{i}-n{n}", argv, text, "solve", cls=cls, problem=problem))
    for dseed in DECIMAL_SEEDS[:1] if reduced else DECIMAL_SEEDS:
        for cls in SOLVE_PROBLEMS:
            rng = random.Random(f"decimal:{dseed}:{cls}")
            nv, edges = _member(tc, rng, cls, DECIMAL_N)
            text = ref.format_text(nv, edges, _decimal_weights(rng, nv))
            for problem in ("mwc", "mwss"):
                argv = ["solve", "--class", cls, "--problem", problem]
                label = f"decimal-{cls}-{problem}-{dseed}"
                items.append(Item(label, argv, text, "solve", cls=cls, problem=problem, decimal=True))
    return items


def _recognize_items(tc, seed: int, reduced: bool) -> list[Item]:
    groups = [
        ("gut", _ladder(12, 24, RECOGNIZE_SIZES)),
        ("gu", _ladder(60, 120, RECOGNIZE_SIZES)),
        ("gt", _ladder(60, 120, RECOGNIZE_SIZES)),
        ("gutcap", _ladder(30, 60, RECOGNIZE_SIZES)),
    ]
    items = []
    for cls, sizes in groups:
        argv = ["recognize", "--class", cls]
        for i, n in enumerate(sizes[:2] if reduced else sizes):
            rng = random.Random(f"recognize:{seed}:{cls}:{i}")
            text = ref.format_text(*_member(tc, rng, cls, n))
            items.append(Item(f"{cls}-member-{i}-n{n}", argv, text, "recognize", cls=cls))
            nv, edges, planted, kind = _non_member(tc, rng, cls, n)
            text = ref.format_text(nv, edges)
            items.append(Item(f"{cls}-{kind}-{i}-n{n}", argv, text, "recognize", cls=cls, member=False, planted=planted))
    return items


_BUILDERS = {"decompose": _decompose_items, "solve": _solve_items, "recognize": _recognize_items}


def build_items(tc, workload: str, seed: int, workdir: Path, reduced: bool = False) -> list[Item]:
    """Generate the workload's graphs from the seed and write one file per
    distinct graph into workdir; each item's argv ends with its file."""
    items = _BUILDERS[workload](tc, seed, reduced)
    workdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}
    for item in items:
        if item.text not in paths:
            path = workdir / f"g{len(paths):03d}.txt"
            path.write_text(item.text)
            paths[item.text] = str(path)
        item.argv = item.argv + [paths[item.text]]
    return items
