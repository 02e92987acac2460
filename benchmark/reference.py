"""Reference computations that the benchmark checks the program against.

Nothing here imports tcfree. Graphs are vertex counts plus one adjacency
bitmask per vertex (0-based); weights are exact Fractions read from the file
text, so a float rounding inside the program shows up as a mismatch instead
of cancelling out.

Contents:

- the text format: a parser and a writer of its own;
- Bron-Kerbosch with pivoting for the maximal cliques, and the maximum
  weight clique taken over them;
- clique, stable-set and proper-colouring checks;
- the paper's chromatic bounds;
- constructors for the Truemper configurations and caps planted into
  members, and a checker that a certificate's vertices induce the
  configuration it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class RefGraph:
    n: int
    adj: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


# ---------------------------------------------------------------------------
# text format


def parse_text(text: str) -> RefGraph:
    """Read ``p n m`` / ``e u v`` / ``w v weight`` records (1-based)."""
    n = 0
    edges: list[tuple[int, int]] = []
    weights: dict[int, Fraction] = {}
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if toks[0] == "p":
            n = int(toks[1])
        elif toks[0] == "e":
            edges.append((int(toks[1]) - 1, int(toks[2]) - 1))
        elif toks[0] == "w":
            weights[int(toks[1]) - 1] = Fraction(toks[2])
    return RefGraph(n, adjacency(n, edges), tuple(weights.get(v, Fraction(1)) for v in range(n)))


def format_text(n: int, edges: Iterable[tuple[int, int]], weights: Optional[Sequence[str]] = None) -> str:
    """Text format with 1-based labels; weights are written verbatim."""
    edge_list = sorted((min(u, v), max(u, v)) for u, v in edges)
    lines = [f"p {n} {len(edge_list)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edge_list)
    if weights is not None:
        lines.extend(f"w {v + 1} {w}" for v, w in enumerate(weights))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cliques


def maximal_cliques(adj: Sequence[int]) -> list[int]:
    """Every maximal clique, as bitmasks (Bron-Kerbosch, pivot chosen to
    maximise |P & N(u)|)."""
    out: list[int] = []
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        pivot = max(bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in bits(p & ~adj[pivot]):
            stack.append((r | 1 << v, p & adj[v], x & adj[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return out


def max_weight_clique(g: RefGraph) -> Fraction:
    """Largest clique weight; the empty clique counts, so never negative.
    Every clique lies in a maximal one and dropping its nonpositive
    vertices keeps it a clique, so the best is a positive part of one."""
    best = Fraction(0)
    for clique in maximal_cliques(g.adj):
        best = max(best, sum((g.weights[v] for v in bits(clique) if g.weights[v] > 0), Fraction(0)))
    return best


def clique_number(g: RefGraph) -> int:
    return max(c.bit_count() for c in maximal_cliques(g.adj))


def is_clique(adj: Sequence[int], vertices: Iterable[int]) -> bool:
    vs = list(vertices)
    m = mask_of(vs)
    return len(set(vs)) == len(vs) and all(m & ~adj[v] & ~(1 << v) == 0 for v in vs)


def is_stable(adj: Sequence[int], vertices: Iterable[int]) -> bool:
    vs = list(vertices)
    m = mask_of(vs)
    return len(set(vs)) == len(vs) and all(adj[v] & m == 0 for v in vs)


def is_proper_colouring(g: RefGraph, colours: Sequence[int]) -> bool:
    return len(colours) == g.n and all(colours[u] != colours[v] for u, v in g.edges())


def chi_bound(cls: str, omega: int) -> int:
    """Upper bound on the chromatic number proved in the paper."""
    if cls == "gu":
        return omega + 1
    if cls == "gutcap":
        return (3 * omega) // 2
    raise ValueError(f"no colouring bound for {cls!r}")


# ---------------------------------------------------------------------------
# planted configurations


@dataclass(frozen=True)
class Config:
    """A configuration on local labels 0..n-1."""

    kind: str
    n: int
    edges: tuple[tuple[int, int], ...]


def _path(start: int, end: int, length: int, fresh: int) -> tuple[list[tuple[int, int]], int]:
    """Edges of a start-end path with `length` edges, interior vertices
    numbered from fresh; returns the edges and the next fresh label."""
    chain = [start] + list(range(fresh, fresh + length - 1)) + [end]
    return list(zip(chain, chain[1:])), fresh + length - 1


def theta(lengths: Sequence[int]) -> Config:
    """Two nonadjacent vertices joined by three paths of >= 2 edges."""
    if len(lengths) != 3 or min(lengths) < 2:
        raise ValueError("a theta needs three paths of at least two edges")
    edges: list[tuple[int, int]] = []
    fresh = 2
    for length in lengths:
        part, fresh = _path(0, 1, length, fresh)
        edges += part
    return Config("Theta", fresh, tuple(edges))


def pyramid(lengths: Sequence[int]) -> Config:
    """An apex joined to the corners of a triangle by three paths, at most
    one of them a single edge."""
    if len(lengths) != 3 or min(lengths) < 1 or sorted(lengths)[1] < 2:
        raise ValueError("a pyramid needs three paths, at most one of them a single edge")
    edges = [(1, 2), (1, 3), (2, 3)]
    fresh = 4
    for corner, length in zip((1, 2, 3), lengths):
        part, fresh = _path(0, corner, length, fresh)
        edges += part
    return Config("Pyramid", fresh, tuple(edges))


def prism(lengths: Sequence[int]) -> Config:
    """Two triangles joined corner to corner by three paths."""
    if len(lengths) != 3 or min(lengths) < 1:
        raise ValueError("a prism needs three paths of at least one edge")
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    fresh = 6
    for i, length in enumerate(lengths):
        part, fresh = _path(i, 3 + i, length, fresh)
        edges += part
    return Config("Prism", fresh, tuple(edges))


def wheel(kind: str, k: int, attach: Iterable[int]) -> Config:
    """Hole 0..k-1 plus the hub k adjacent to the rim positions in attach."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k, i) for i in sorted(set(attach))]
    return Config(kind, k + 1, tuple(edges))


# ---------------------------------------------------------------------------
# certificate checks


def _is_hole(adj: Sequence[int], order: Sequence[int]) -> bool:
    k = len(order)
    if k < 4 or len(set(order)) != k:
        return False
    where = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        rim = [where[u] for u in bits(adj[v]) if u in where]
        if sorted(rim) != sorted({(i - 1) % k, (i + 1) % k}):
            return False
    return True


def _hub_positions(adj: Sequence[int], rim: Sequence[int], hub: int) -> list[int]:
    return [i for i, v in enumerate(rim) if adj[hub] >> v & 1]


def consecutive(positions: list[int], k: int) -> bool:
    return any(all((s + d) % k in positions for d in range(len(positions))) for s in positions)


def _path_shape(adj: Sequence[int], paths: Sequence[Sequence[int]], extra: Sequence[tuple[int, int]]) -> bool:
    """The paths are induced, internally disjoint, and the union induces
    exactly their edges plus extra."""
    union = {v for p in paths for v in p}
    want = {frozenset(e) for p in paths for e in zip(p, p[1:])} | {frozenset(e) for e in extra}
    have = {frozenset((u, v)) for u in union for v in union if u < v and adj[u] >> v & 1}
    interiors = [v for p in paths for v in p[1:-1]]
    return want == have and len(interiors) == len(set(interiors))


def _triangle(adj: Sequence[int], t: Sequence[int]) -> bool:
    return len(set(t)) == 3 and is_clique(adj, t)


def induces(adj: Sequence[int], kind: str, vertices: Sequence[int], center: Optional[int] = None, paths=None) -> bool:
    """True when the certificate's vertices induce the configuration it
    names. Labels are 0-based."""
    if kind in ("UniversalWheel", "TwinWheel", "ProperWheel", "Cap", "W54"):
        if center is None or center in vertices or not _is_hole(adj, vertices):
            return False
        k = len(vertices)
        pos = _hub_positions(adj, vertices, center)
        t = len(pos)
        if kind == "UniversalWheel":
            return t == k
        if kind == "TwinWheel":
            return t == 3 and consecutive(pos, k)
        if kind == "ProperWheel":
            return 3 <= t < k and not (t == 3 and consecutive(pos, k))
        if kind == "Cap":
            return t == 2 and consecutive(pos, k)
        return k == 5 and t == 4
    if kind in ("Hole", "LongHole"):
        return _is_hole(adj, vertices) and (kind == "Hole" or len(vertices) >= 5)
    if kind == "K23":
        if len(set(vertices)) != 5:
            return False
        left, right = vertices[:2], vertices[2:]
        return is_stable(adj, left) and is_stable(adj, right) and all(adj[u] >> v & 1 for u in left for v in right)
    if kind == "C6Bar":
        if len(set(vertices)) != 6:
            return False
        a, b = vertices[:3], vertices[3:]
        return (
            _triangle(adj, a)
            and _triangle(adj, b)
            and all((adj[a[i]] >> b[j] & 1) == (i == j) for i in range(3) for j in range(3))
        )
    if kind in ("Theta", "Pyramid", "Prism"):
        if paths is None or len(paths) != 3 or any(len(p) < 2 for p in paths):
            return False
        starts = [p[0] for p in paths]
        ends = [p[-1] for p in paths]
        if sorted({v for p in paths for v in p}) != sorted(vertices):
            return False
        if kind == "Theta":
            ok = len(set(starts)) == 1 and len(set(ends)) == 1 and starts[0] != ends[0]
            ok = ok and all(len(p) >= 3 for p in paths)
            return ok and _path_shape(adj, paths, [])
        if kind == "Pyramid":
            ok = len(set(starts)) == 1 and len(set(ends)) == 3 and starts[0] not in ends
            ok = ok and sum(len(p) == 2 for p in paths) <= 1
            tri = [(ends[i], ends[j]) for i in range(3) for j in range(i + 1, 3)]
            return ok and _path_shape(adj, paths, tri)
        ok = len(set(starts)) == 3 and len(set(ends)) == 3 and not set(starts) & set(ends)
        tri = [(t[i], t[j]) for t in (starts, ends) for i in range(3) for j in range(i + 1, 3)]
        return ok and _path_shape(adj, paths, tri)
    return False
