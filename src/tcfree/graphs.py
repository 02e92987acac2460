"""Core graph type and elementary structural queries.

Vertices are dense integers 0..n-1. Adjacency is one Python int bitmask per
vertex, which keeps neighborhood containment tests (the hot path of the
domination, twin, and separator computations) cheap. Graphs are immutable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


class Graph:
    """Simple undirected graph without loops."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    # a list first: tuple() of a generator reallocates as it grows, churn
    # that fragments the heap over many calls
    return _graph_from_masks(g.n, [(full & ~g.adj[v]) & ~(1 << v) for v in range(g.n)])


def _graph_from_masks(n: int, adj: Sequence[int]) -> Graph:
    out = Graph.__new__(Graph)
    out.n = n
    out.adj = tuple(adj)
    return out


def component_of(g: Graph, v: int, mask: int) -> int:
    """The connected component holding v of g restricted to the vertices in
    mask, as a mask; v must lie in mask."""
    adj = g.adj
    comp = frontier = 1 << v
    while frontier:
        grow = 0
        while frontier:
            b = frontier & -frontier
            grow |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp


def masked_components(g: Graph, mask: int) -> list[int]:
    """Connected components of g restricted to the vertices in mask, as masks.

    Ordered by least vertex.
    """
    comps = []
    rest = mask
    while rest:
        comp = component_of(g, (rest & -rest).bit_length() - 1, rest)
        comps.append(comp)
        rest &= ~comp
    return comps


def anticomponents(g: Graph, mask: Optional[int] = None) -> list[int]:
    """Connected components of the complement of the subgraph that mask
    induces, all of g when omitted, as masks ordered by least vertex: one
    flood over nonneighbors, each vertex entering the frontier once."""
    rest = g.full_mask() if mask is None else mask
    comps = []
    while rest:
        comp = frontier = rest & -rest
        rest ^= comp
        while frontier:
            grow = 0
            for u in iter_bits(frontier):
                grow |= rest & ~g.adj[u]
            rest ^= grow
            comp |= grow
            frontier = grow
        comps.append(comp)
    return comps


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph plus the map from new index to original vertex."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced subgraph of the empty set is not defined")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError("vertex out of range")
    # each kept vertex's bit in g to its bit in the subgraph; the loop walks
    # only the kept neighbours
    bit = {1 << v: 1 << i for i, v in enumerate(vs)}
    kept = mask_of(vs)
    adj = []
    for v in vs:
        row = 0
        rest = g.adj[v] & kept
        while rest:
            low = rest & -rest
            row |= bit[low]
            rest ^= low
        adj.append(row)
    return _graph_from_masks(len(vs), adj), vs


def true_twin_partition(g: Graph, mask: Optional[int] = None) -> tuple[list[int], list[int]]:
    """Partition into true twin classes, as masks, and the least vertex of
    each class, for the subgraph that mask induces, all of g when omitted.

    Two vertices are true twins when their closed neighborhoods coincide;
    classes are cliques and the quotient has an edge exactly between classes
    that are complete to each other. Classes are ordered by least vertex, so
    the quotient is the subgraph those least vertices induce and the list of
    them maps quotient vertices back to g.
    """
    if mask is None:
        mask = g.full_mask()
    groups: dict[int, int] = {}
    for v in iter_bits(mask):
        key = g.closed_mask(v) & mask
        groups[key] = groups.get(key, 0) | 1 << v
    # the vertices come in increasing order, so the groups are ordered by
    # least vertex
    classes = list(groups.values())
    return classes, [(c & -c).bit_length() - 1 for c in classes]


def stable_triple(g: Graph, mask: int) -> Optional[tuple[int, int, int]]:
    """Lexicographically least stable triple inside mask, or None."""
    for v1 in iter_bits(mask):
        for v2 in iter_bits(mask & ~g.adj[v1] & ~((1 << (v1 + 1)) - 1)):
            rest = mask & ~g.adj[v1] & ~g.adj[v2] & ~((1 << (v2 + 1)) - 1)
            if rest:
                return v1, v2, (rest & -rest).bit_length() - 1
    return None


def is_clique_mask(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if mask & ~g.closed_mask(v):
            return False
    return True


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    return is_clique_mask(g, mask_of(vertices))


def is_stable_set(g: Graph, vertices: Iterable[int]) -> bool:
    mask = mask_of(vertices)
    for v in iter_bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def shortest_path(g: Graph, src: int, dst: int, allowed: Optional[int] = None) -> Optional[list[int]]:
    """Shortest src-dst path using only vertices in allowed (a mask).

    src and dst must themselves lie in allowed. BFS explores least vertices
    first so the result is deterministic. Returns None when disconnected.
    """
    if allowed is None:
        allowed = g.full_mask()
    if not (allowed >> src & 1 and allowed >> dst & 1):
        return None
    if src == dst:
        return [src]
    parent = {src: -1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in iter_bits(g.adj[u] & allowed):
            if v in parent:
                continue
            parent[v] = u
            if v == dst:
                path = [v]
                while parent[path[-1]] != -1:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(v)
    return None


@dataclass(frozen=True)
class WeightedGraph:
    graph: Graph
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.graph.n:
            raise ValueError("need exactly one weight per vertex")


@dataclass(frozen=True)
class Coloring:
    """Proper coloring; colors are positive integers, count their number."""

    colors: tuple[int, ...]
    count: int


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    if len(coloring.colors) != g.n:
        return False
    if coloring.count != len(set(coloring.colors)):
        return False
    for u, v in g.edges():
        if coloring.colors[u] == coloring.colors[v]:
            return False
    return True
