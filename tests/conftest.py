"""Shared strategies and exhaustive reference solvers for the suite."""

import random
from typing import Optional

from hypothesis import settings
from hypothesis import strategies as st

from tcfree.detectors import canonical_cycle
from tcfree.graphs import (
    Coloring,
    Graph,
    WeightedGraph,
    bits_list,
    complement,
    is_clique,
    is_stable_set,
    iter_bits,
    mask_of,
    masked_components,
    true_twin_partition,
)
from tcfree.generators import gen_chordal, gen_class_member
from tcfree.oracles import brute_chi
from tcfree.rings import _single_cycle_order

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


def rand_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@st.composite
def weighted_graphs(draw, min_n: int = 1, max_n: int = 8, low: int = -4, high: int = 9):
    g = draw(graphs(min_n, max_n))
    ws = draw(st.lists(st.integers(low, high), min_size=g.n, max_size=g.n))
    return WeightedGraph(g, tuple(ws))


def brute_mwc_set(wg: WeightedGraph) -> tuple:
    """Exhaustive maximum weight clique with a witness set."""
    g, w = wg.graph, wg.weights
    best, best_set = 0, frozenset()
    for mask in range(1 << g.n):
        vs = bits_list(mask)
        if not is_clique(g, vs):
            continue
        value = sum(w[v] for v in vs)
        if value > best:
            best, best_set = value, frozenset(vs)
    return best, best_set


def brute_mwss_set(wg: WeightedGraph) -> tuple:
    """Exhaustive maximum weight stable set with a witness set."""
    g, w = wg.graph, wg.weights
    best, best_set = 0, frozenset()
    for mask in range(1 << g.n):
        vs = bits_list(mask)
        if not is_stable_set(g, vs):
            continue
        value = sum(w[v] for v in vs)
        if value > best:
            best, best_set = value, frozenset(vs)
    return best, best_set


def exact_coloring(g: Graph) -> Coloring:
    """Optimal proper coloring by backtracking on top of the brute
    chromatic number."""
    k = brute_chi(g)
    colors = [0] * g.n

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        cap = min(k, max(colors[:v], default=0) + 1)
        for c in range(1, cap + 1):
            if all(colors[u] != c for u in range(v) if g.has_edge(u, v)):
                colors[v] = c
                if rec(v + 1):
                    return True
                colors[v] = 0
        return False

    assert rec(0)
    return Coloring(tuple(colors), len(set(colors)))


def recognize_hyperantihole(g: Graph) -> Optional[list[int]]:
    """Parts of g as masks, in antihole cyclic order, when g is an expansion
    of an antihole of length >= 4, else None: the reference that the
    generator and ring tests check hyperantiholes with.

    For length >= 5 the true-twin classes are the parts and the complement
    of the quotient, the subgraph their least vertices induce, must be a
    single cycle. Length 4 degenerates: the expansion is two disjoint
    cliques on >= 2 vertices each, and any split of the two cliques into
    two parts apiece works.
    """
    comps = masked_components(g, g.full_mask())
    if len(comps) == 2:
        a, b = comps
        if a.bit_count() >= 2 and b.bit_count() >= 2:
            if all(m & ~g.closed_mask(v) == 0 for m in (a, b) for v in iter_bits(m)):
                low_a, low_b = a & -a, b & -b
                return [low_a, low_b, a ^ low_a, b ^ low_b]
        return None

    classes, reps = true_twin_partition(g)
    order = _single_cycle_order(complement(g), mask_of(reps))
    if order is None or len(order) < 5:
        return None
    part_of = dict(zip(reps, classes))
    return [part_of[v] for v in canonical_cycle(order)]


def differential_graphs():
    """Random graphs up to 16 vertices, small class members and chordal
    graphs up to 40 vertices, each with whether it was built chordal."""
    rng = random.Random(2010)
    for _ in range(2000):
        yield rand_graph(rng, rng.randrange(1, 17), rng.uniform(0.05, 0.9)), False
    for seed in range(25):
        for cls in ("gut", "gu", "gt", "gutcap"):
            yield gen_class_member(seed, cls, pieces=rng.randrange(1, 5), max_n=rng.randrange(8, 31)), False
    for seed in range(80):
        yield gen_chordal(seed, rng.randrange(1, 41), rng.random()), True
