"""Seeded random generators for rings, hyperholes, chordal graphs, and
members of the four classes built by gluing basic pieces along cliques.

Everything is deterministic given the seed. Generated basic graphs land in
their intended family by construction and the constructions assert the
cheap certificates (good partition, elimination order) on the way out.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .chordal import simplicial_order
from .decomposition import glue
from .detectors import C6BAR, find_cap, find_long_hole, find_small_obstruction
from .graphs import Graph, iter_bits, stable_triple
from .rings import GoodPartition, verify_good_partition


# ---------------------------------------------------------------------------
# small builders


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def join_graphs(a: Graph, b: Graph) -> Graph:
    """Disjoint copies of a and b plus every edge in between; b's vertices
    are shifted up by a.n."""
    edges = list(a.edges())
    edges.extend((u + a.n, v + a.n) for u, v in b.edges())
    edges.extend((u, v + a.n) for u in range(a.n) for v in range(b.n))
    return Graph(a.n + b.n, edges)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    bounds = [0]
    for s in sizes:
        if s < 1:
            raise ValueError("part sizes must be positive")
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            edges.extend(
                (u, v)
                for u in range(bounds[i], bounds[i + 1])
                for v in range(bounds[j], bounds[j + 1])
            )
    return Graph(n, edges)


def _validate_parts(k: int, sizes: Sequence[int], k_min: int) -> None:
    if k < k_min:
        raise ValueError(f"need at least {k_min} parts")
    if len(sizes) != k:
        raise ValueError("one size per part required")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")


def _part_ranges(sizes: Sequence[int]) -> list[list[int]]:
    parts = []
    start = 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    return parts


# ---------------------------------------------------------------------------
# basic shapes


def gen_ring(seed: int, k: int, sizes: Sequence[int]) -> tuple[Graph, GoodPartition]:
    """Random ring with the given part sizes.

    Between consecutive parts the adjacency is a random staircase: part i's
    j-th vertex sees a prefix of part i+1, the prefix lengths shrink with j
    and start at the whole part. Prefixes on both sides keep every closed
    neighborhood chain nested, and every prefix is nonempty so the top
    vertices stay complete to both neighbor parts.
    """
    rng = random.Random(seed)
    _validate_parts(k, sizes, 4)
    parts = _part_ranges(sizes)
    edges = []
    for p in parts:
        edges.extend((u, v) for u in p for v in p if u < v)
    for i in range(k):
        j = (i + 1) % k
        rest = sorted((rng.randint(1, sizes[j]) for _ in range(sizes[i] - 1)), reverse=True)
        for row, reach in enumerate([sizes[j]] + rest):
            edges.extend((parts[i][row], parts[j][col]) for col in range(reach))
    g = Graph(sum(sizes), edges)
    partition = GoodPartition(tuple(tuple(p) for p in parts))
    assert verify_good_partition(g, partition.parts)
    return g, partition


def gen_hyperhole(seed: int, k: int, sizes: Sequence[int]) -> Graph:
    """Hyperhole with the given part sizes: consecutive parts complete."""
    del seed  # the shape is determined by k and sizes
    _validate_parts(k, sizes, 4)
    parts = _part_ranges(sizes)
    edges = []
    for p in parts:
        edges.extend((u, v) for u in p for v in p if u < v)
    for i in range(k):
        q = parts[(i + 1) % k]
        edges.extend((u, v) for u in parts[i] for v in q)
    return Graph(sum(sizes), edges)


def gen_hyperantihole(seed: int, k: int, sizes: Sequence[int]) -> Graph:
    """Hyperantihole with the given part sizes: parts at cyclic distance
    two or more are complete, consecutive parts anticomplete."""
    del seed
    _validate_parts(k, sizes, 4)
    parts = _part_ranges(sizes)
    edges = []
    for p in parts:
        edges.extend((u, v) for u in p for v in p if u < v)
    for i in range(k):
        for j in range(i + 1, k):
            if min(j - i, k - (j - i)) >= 2:
                edges.extend((u, v) for u in parts[i] for v in parts[j])
    return Graph(sum(sizes), edges)


def gen_chordal(seed: int, n: int, density: float = 0.5) -> Graph:
    """Random chordal graph by simplicial growth: each new vertex attaches
    to part of an existing clique. density 0 gives a tree, density 1 the
    complete graph."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    pool: list[list[int]] = [[0]]
    for v in range(1, n):
        slot = rng.randrange(len(pool))
        base = pool[slot]
        size = 1 + round(density * (len(base) - 1))
        anchor = sorted(rng.sample(base, size))
        edges.extend((u, v) for u in anchor)
        if size == len(base):
            pool[slot] = anchor + [v]
        else:
            pool.append(anchor + [v])
    g = Graph(n, edges)
    assert simplicial_order(g) is not None
    return g


# ---------------------------------------------------------------------------
# basic-family samplers


def rand_sizes(rng: random.Random, k: int, budget: int) -> list[int]:
    """k random part sizes, each at least one, summing to at most budget."""
    sizes = [1] * k
    for _ in range(rng.randrange(0, max(1, budget - k + 1))):
        sizes[rng.randrange(k)] += 1
    return sizes


def _child_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _sample_bu(rng: random.Random, max_n: int) -> Graph:
    """Member of the gu basic family: a long hole joined to a clique, or a
    complete multipartite graph with parts of size one or two."""
    if max_n == 1:
        return complete_graph(1)
    if max_n >= 6 and rng.random() < 0.6:
        ell = rng.randrange(5, min(9, max_n) + 1)
        t = rng.randrange(0, min(3, max_n - ell) + 1)
        g = cycle_graph(ell)
        return join_graphs(g, complete_graph(t)) if t else g
    budget = rng.randrange(2, max(3, min(9, max_n) + 1))
    sizes = []
    while budget > 0:
        s = 2 if budget >= 2 and rng.random() < 0.5 else 1
        sizes.append(s)
        budget -= s
    return complete_multipartite(sizes)


def _sample_bt(rng: random.Random, max_n: int) -> Graph:
    """Member of the gt basic family: complete graph, ring, or
    7-hyperantihole."""
    roll = rng.random()
    if roll < 0.25 or max_n < 7:
        if roll < 0.5 and max_n >= 4:
            k = rng.randrange(4, min(7, max_n) + 1)
            g, _ = gen_ring(_child_seed(rng), k, rand_sizes(rng, k, max_n))
            return g
        return complete_graph(rng.randrange(1, min(6, max_n) + 1))
    if roll < 0.65:
        k = rng.randrange(4, min(7, max_n) + 1)
        g, _ = gen_ring(_child_seed(rng), k, rand_sizes(rng, k, max_n))
        return g
    return gen_hyperantihole(_child_seed(rng), 7, rand_sizes(rng, 7, max_n))


def _sample_alpha2_piece(rng: random.Random, max_n: int) -> Graph:
    """Dense graph with no three pairwise nonadjacent vertices, no
    five-hole, and no six-antihole, by rejection."""
    for _ in range(300):
        n = rng.randrange(1, min(7, max_n) + 1)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.75
        ]
        g = Graph(n, edges)
        if stable_triple(g, g.full_mask()) is not None:
            continue
        if find_long_hole(g) is not None:
            continue
        if find_small_obstruction(g, C6BAR) is not None:
            continue
        return g
    return complete_graph(min(2, max_n))


def _sample_but(rng: random.Random, max_n: int) -> Graph:
    """Member of the gut basic family: a long ring joined to a clique, a
    chordal graph (these have no long holes and none of the small
    obstructions), or a join of stability-two pieces."""
    roll = rng.random()
    if roll < 0.35 and max_n >= 5:
        k = rng.randrange(5, min(8, max_n) + 1)
        ring, _ = gen_ring(_child_seed(rng), k, rand_sizes(rng, k, max_n - 1))
        t = rng.randrange(0, max(1, min(3, max_n - ring.n) + 1))
        return join_graphs(ring, complete_graph(t)) if t else ring
    if roll < 0.7:
        return gen_chordal(_child_seed(rng), rng.randrange(1, max_n + 1), rng.random())
    g: Optional[Graph] = None
    for _ in range(rng.randrange(1, 3)):
        room = max_n - (g.n if g else 0)
        if room < 1:
            break
        if room >= 5 and rng.random() < 0.5:
            piece = gen_hyperhole(_child_seed(rng), 5, rand_sizes(rng, 5, room))
        else:
            piece = _sample_alpha2_piece(rng, room)
        g = piece if g is None else join_graphs(g, piece)
    return g if g is not None else complete_graph(1)


def _staircase_cobipartite(rng: random.Random, max_n: int) -> Graph:
    """Two cliques with staircase adjacency in between: both sides' closed
    neighborhoods are nested, so no four-hole can appear and the graph is
    chordal as well as cobipartite."""
    p = rng.randrange(1, max(2, max_n))
    q = rng.randrange(0, max_n - p + 1)
    edges = [(u, v) for u in range(p) for v in range(u + 1, p)]
    edges.extend((p + u, p + v) for u in range(q) for v in range(u + 1, q))
    reach = sorted((rng.randrange(0, q + 1) for _ in range(p)), reverse=True)
    for row in range(p):
        edges.extend((row, p + col) for col in range(reach[row]))
    g = Graph(p + q, edges)
    assert simplicial_order(g) is not None
    return g


def _sample_bch(rng: random.Random, max_n: int) -> Graph:
    """Member of the gutcap basic family: a hyperhole of length at least
    six joined to a clique, or a join of 5-hyperholes and chordal
    cobipartite pieces."""
    if max_n >= 6 and rng.random() < 0.45:
        k = rng.randrange(6, min(9, max_n) + 1)
        hole = gen_hyperhole(_child_seed(rng), k, rand_sizes(rng, k, max_n - 1))
        t = rng.randrange(0, max(1, min(3, max_n - hole.n) + 1))
        return join_graphs(hole, complete_graph(t)) if t else hole
    g: Optional[Graph] = None
    for _ in range(rng.randrange(1, 4)):
        room = max_n - (g.n if g else 0)
        if room < 1:
            break
        if room >= 5 and rng.random() < 0.5:
            piece = gen_hyperhole(_child_seed(rng), 5, rand_sizes(rng, 5, room))
        else:
            piece = _staircase_cobipartite(rng, room)
        g = piece if g is None else join_graphs(g, piece)
    return g if g is not None else complete_graph(1)


_PIECE_SAMPLERS = {
    "gu": _sample_bu,
    "gt": _sample_bt,
    "gut": _sample_but,
    "gutcap": _sample_bch,
}


# ---------------------------------------------------------------------------
# gluing


def _random_clique(rng: random.Random, g: Graph, want: int) -> list[int]:
    """Greedy random clique of size at most want (at least one vertex)."""
    v = rng.randrange(g.n)
    clique = [v]
    common = g.adj[v]
    while len(clique) < want and common:
        pick = rng.choice(list(iter_bits(common)))
        clique.append(pick)
        common &= g.adj[pick]
    return clique


def _clique_of_size(rng: random.Random, g: Graph, size: int) -> Optional[list[int]]:
    for _ in range(30):
        c = _random_clique(rng, g, size)
        if len(c) >= size:
            return c[:size]
    return None


def gen_class_member(seed: int, cls: str, pieces: int = 2, max_n: int = 14) -> Graph:
    """Random member of a class, glued from basic pieces along cliques of
    size at most three.

    Gluing two members along a clique never creates a theta, pyramid,
    prism, or wheel (none of those has a clique cutset), so membership is
    preserved for gut, gu, and gt. Caps do have clique cutsets, so for
    gutcap each glue is retried until the result stays cap-free.
    """
    if cls not in _PIECE_SAMPLERS:
        raise ValueError(f"unknown class {cls!r}")
    if pieces < 1:
        raise ValueError("need at least one piece")
    if max_n < 1:
        raise ValueError("need max_n of at least one")
    rng = random.Random(seed)
    sampler = _PIECE_SAMPLERS[cls]
    g = sampler(rng, max_n)
    for _ in range(pieces - 1):
        if g.n >= max_n:
            break
        for _ in range(40):
            piece = sampler(rng, max(1, max_n - g.n + 3))
            size = rng.randrange(1, 4)
            first = _clique_of_size(rng, g, size)
            second = _clique_of_size(rng, piece, size) if first else None
            if first is None or second is None:
                first = [rng.randrange(g.n)]
                second = [rng.randrange(piece.n)]
            glued = glue(g, piece, first, second)
            if glued.n > max_n:
                continue
            if cls == "gutcap" and find_cap(glued) is not None:
                continue
            g = glued
            break
    return g
