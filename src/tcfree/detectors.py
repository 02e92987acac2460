"""Detection of holes, caps, and the small fixed obstructions.

Certificates name the witness structure explicitly so they can be re-checked
against the graph; every detector returns a certificate that passes
check_certificate. Searches enumerate candidates in a fixed order and
canonicalize rims, so outputs are deterministic.

No search scans vertex subsets: find_cap floods one mask per triangle, and
K23, C6BAR and W54 copies grow from anchor vertices by mask intersections.

Long holes, caps, K23, C6BAR and W54 have no two true twins, and true twins
stay twins in every induced subgraph, so a graph contains one exactly when
its true-twin quotient does. The class recognizers therefore run the global
searches on the quotient of the whole graph (classes._twin_quotient_search),
which is the graph itself when no two vertices are twins, and the gut leaf
test runs find_long_hole on the quotient of each anticomponent of two or
more vertices, the one its ring test reads too. The K23 search and the gut
leaf's stable-set test share graphs.stable_triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, is_clique, iter_bits, mask_of, shortest_path, stable_triple

HOLE = "Hole"
LONG_HOLE = "LongHole"
THETA = "Theta"
PYRAMID = "Pyramid"
PRISM = "Prism"
UNIVERSAL_WHEEL = "UniversalWheel"
TWIN_WHEEL = "TwinWheel"
PROPER_WHEEL = "ProperWheel"
CAP = "Cap"
K23 = "K23"
C6BAR = "C6Bar"
W54 = "W54"

THREE_PATH_KINDS = (THETA, PYRAMID, PRISM)
WHEEL_KINDS = (UNIVERSAL_WHEEL, TWIN_WHEEL, PROPER_WHEEL)


@dataclass(frozen=True)
class Certificate:
    """Witness for one configuration.

    vertices: rim in cyclic order for holes/wheels/caps, the fixed layout for
    the small obstructions, and the sorted vertex union for the three-path
    configurations. center: wheel hub or cap attachment. paths: the three
    paths of a theta/pyramid/prism, each listed endpoint to endpoint.
    """

    kind: str
    vertices: tuple[int, ...]
    center: Optional[int] = None
    paths: Optional[tuple[tuple[int, ...], ...]] = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "vertices": list(self.vertices)}
        if self.center is not None:
            out["center"] = self.center
        if self.paths is not None:
            out["paths"] = [list(p) for p in self.paths]
        return out


def canonical_cycle(order: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Rotate and reflect a cyclic vertex order to start at the minimum
    vertex, continuing toward its smaller neighbor."""
    k = len(order)
    i = min(range(k), key=lambda j: order[j])
    fwd = [order[(i + j) % k] for j in range(k)]
    bwd = [order[(i - j) % k] for j in range(k)]
    return tuple(fwd) if fwd[1] <= bwd[1] else tuple(bwd)


def _check_range(g: Graph, vertices) -> None:
    for v in vertices:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")


def _is_hole_order(g: Graph, verts: tuple[int, ...], min_len: int) -> bool:
    k = len(verts)
    if k < min_len or len(set(verts)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(verts[i], verts[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


def _rim_positions(verts: tuple[int, ...], g: Graph, x: int) -> list[int]:
    return [i for i, v in enumerate(verts) if g.has_edge(x, v)]


def _consecutive_cyclic(positions: list[int], k: int) -> bool:
    t = len(positions)
    if t == 0:
        return False
    pos = set(positions)
    for start in positions:
        if all((start + d) % k in pos for d in range(t)):
            return True
    return False


def _edge_set_of_paths(paths, extra_edges) -> set[frozenset[int]]:
    es = set(extra_edges)
    for p in paths:
        for a, b in zip(p, p[1:]):
            es.add(frozenset((a, b)))
    return es


def _induced_edges(g: Graph, vertices) -> set[frozenset[int]]:
    vs = sorted(set(vertices))
    out = set()
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if g.has_edge(u, v):
                out.add(frozenset((u, v)))
    return out


def _check_three_path(g: Graph, cert: Certificate) -> bool:
    if cert.paths is None or len(cert.paths) != 3:
        return False
    paths = cert.paths
    if any(len(p) < 2 for p in paths):
        return False
    starts = [p[0] for p in paths]
    ends = [p[-1] for p in paths]
    union: list[int] = [v for p in paths for v in p]

    if cert.kind == THETA:
        # two branch vertices joined by three internally disjoint paths,
        # every path with at least one internal vertex
        if len(set(starts)) != 1 or len(set(ends)) != 1:
            return False
        a, b = starts[0], ends[0]
        if a == b or g.has_edge(a, b):
            return False
        if any(len(p) < 3 for p in paths):
            return False
        interiors = [p[1:-1] for p in paths]
        expected_count = 2 + sum(len(i) for i in interiors)
        extra: list[frozenset[int]] = []
    elif cert.kind == PYRAMID:
        # apex joined to an intact triangle, at most one unsubdivided path
        if len(set(starts)) != 1:
            return False
        a = starts[0]
        if len(set(ends)) != 3 or a in ends:
            return False
        if not is_clique(g, ends):
            return False
        if sum(1 for p in paths if len(p) == 2) > 1:
            return False
        interiors = [p[1:-1] for p in paths]
        expected_count = 4 + sum(len(i) for i in interiors)
        extra = [frozenset((ends[i], ends[j])) for i in range(3) for j in range(i + 1, 3)]
    elif cert.kind == PRISM:
        # two intact triangles joined by three disjoint paths
        if len(set(starts)) != 3 or len(set(ends)) != 3:
            return False
        if set(starts) & set(ends):
            return False
        if not (is_clique(g, starts) and is_clique(g, ends)):
            return False
        interiors = [p[1:-1] for p in paths]
        expected_count = 6 + sum(len(i) for i in interiors)
        extra = [frozenset((t[i], t[j])) for t in (starts, ends) for i in range(3) for j in range(i + 1, 3)]
    else:
        return False

    if len(set(union)) != expected_count:
        return False
    if tuple(sorted(set(union))) != cert.vertices:
        return False
    return _edge_set_of_paths(paths, extra) == _induced_edges(g, union)


def check_certificate(g: Graph, cert: Certificate) -> bool:
    """Re-validate a certificate against the graph. Out-of-range vertices are
    an error; a structural mismatch just returns False."""
    _check_range(g, cert.vertices)
    if cert.center is not None:
        _check_range(g, (cert.center,))
    if cert.paths is not None:
        for p in cert.paths:
            _check_range(g, p)

    kind = cert.kind
    verts = cert.vertices
    if kind == HOLE:
        return _is_hole_order(g, verts, 4)
    if kind == LONG_HOLE:
        return _is_hole_order(g, verts, 5)
    if kind in THREE_PATH_KINDS:
        return _check_three_path(g, cert)
    if kind in WHEEL_KINDS or kind == CAP or kind == W54:
        if cert.center is None or cert.center in verts:
            return False
        if not _is_hole_order(g, verts, 4):
            return False
        k = len(verts)
        pos = _rim_positions(verts, g, cert.center)
        t = len(pos)
        if kind == UNIVERSAL_WHEEL:
            return t == k
        if kind == TWIN_WHEEL:
            return t == 3 and _consecutive_cyclic(pos, k)
        if kind == PROPER_WHEEL:
            if t < 3 or t == k:
                return False
            return not (t == 3 and _consecutive_cyclic(pos, k))
        if kind == CAP:
            return t == 2 and _consecutive_cyclic(pos, k)
        if kind == W54:
            return k == 5 and t == 4
    if kind == K23:
        if len(verts) != 5 or len(set(verts)) != 5:
            return False
        u1, u2, v1, v2, v3 = verts
        if g.has_edge(u1, u2):
            return False
        if any(g.has_edge(a, b) for a, b in ((v1, v2), (v1, v3), (v2, v3))):
            return False
        return all(g.has_edge(u, v) for u in (u1, u2) for v in (v1, v2, v3))
    if kind == C6BAR:
        if len(verts) != 6 or len(set(verts)) != 6:
            return False
        a = verts[:3]
        b = verts[3:]
        if not (is_clique(g, a) and is_clique(g, b)):
            return False
        return all(g.has_edge(a[i], b[j]) == (i == j) for i in range(3) for j in range(3))
    raise ValueError(f"unknown certificate kind {kind!r}")


def find_long_hole(g: Graph) -> Optional[Certificate]:
    """First long hole (length >= 5) in a fixed search order, or None.

    Looks for an induced path a-b-c-d and then an a-d path avoiding the rest
    of N[b] and N[c]; the shortest such path closes a chordless cycle of
    length at least five through b and c.
    """
    full = g.full_mask()
    for b in range(g.n):
        for c in iter_bits(g.adj[b]):
            block = (g.closed_mask(b) | g.closed_mask(c))
            for a in iter_bits(g.adj[b] & ~g.closed_mask(c)):
                for d in iter_bits(g.adj[c] & ~g.closed_mask(a) & ~g.adj[b]):
                    if d == b:
                        continue
                    allowed = (full & ~block) | (1 << a) | (1 << d)
                    path = shortest_path(g, a, d, allowed)
                    if path is None:
                        continue
                    rim = [b, c] + path[::-1]
                    return Certificate(LONG_HOLE, canonical_cycle(rim))
    return None


def find_cap(g: Graph) -> Optional[Certificate]:
    """First cap in a fixed search order, or None.

    For each triangle {c, x, y} let A = N(x) - N[y] - N[c] and
    B = N(y) - N[x] - N[c]. A hole through the edge xy to which c attaches
    at exactly {x, y} exists when an edge joins A to B or a component of
    G - (N[x] | N[y] | N[c]) has neighbours in both, which one mask flood
    per triangle tests. On the first triangle that passes, the rim closes
    through the least a in A that has a neighbour in B (the least one) or
    else a shortest path to some b in B (the first such b).
    """
    full = g.full_mask()
    closed = [g.closed_mask(v) for v in range(g.n)]
    for c in range(g.n):
        for x in iter_bits(g.adj[c]):
            # holds every cand_a of x: without it no y can pass
            x_side = g.adj[x] & ~closed[c]
            if not x_side:
                continue
            above_x = ~((1 << (x + 1)) - 1)
            for y in iter_bits(g.adj[c] & g.adj[x] & above_x):
                cand_a = x_side & ~closed[y]
                cand_b = g.adj[y] & ~closed[x] & ~closed[c]
                if not (cand_a and cand_b):
                    continue
                outside = full & ~(closed[c] | closed[x] | closed[y])
                if not _linked(g, cand_a, cand_b, outside):
                    continue
                for av in iter_bits(cand_a):
                    direct = cand_b & g.adj[av]
                    if direct:
                        return Certificate(CAP, canonical_cycle([x, y, _low(direct), av]), center=c)
                    for bv in iter_bits(cand_b & ~g.adj[av]):
                        path = shortest_path(g, av, bv, outside | (1 << av) | (1 << bv))
                        if path is not None:
                            return Certificate(CAP, canonical_cycle([x, y] + path[::-1]), center=c)
    return None


def _linked(g: Graph, a_side: int, b_side: int, outside: int) -> bool:
    """Whether a vertex of a_side is adjacent to b_side or reaches a
    neighbour of b_side through vertices of outside."""
    seen = frontier = a_side
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= g.adj[v]
        if grow & b_side:
            return True
        frontier = grow & outside & ~seen
        seen |= frontier
    return False


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _second_neighbourhood(g: Graph, v: int) -> int:
    """Mask of the vertices with a common neighbour with v (v included
    when it has a neighbour)."""
    out = 0
    for u in iter_bits(g.adj[v]):
        out |= g.adj[u]
    return out


def _find_c6bar(g: Graph) -> Optional[Certificate]:
    """The prism is vertex-transitive, so the least vertex s of a copy lies
    on a triangle s < p < q whose vertices have private neighbours t, u, w
    above s forming the other triangle. The first s with a copy holds the
    least one, listed as (s, p, q, t, u, w)."""
    adj = g.adj
    best: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    for s in range(g.n):
        above = ~((1 << (s + 1)) - 1)
        for p in iter_bits(adj[s] & above):
            # hold every t_side and u_side of the edge sp
            s_side = adj[s] & ~adj[p] & above & ~(1 << p)
            p_side = adj[p] & ~adj[s] & above
            if not (s_side and p_side):
                continue
            for q in iter_bits(adj[s] & adj[p] & ~((1 << (p + 1)) - 1)):
                t_side = s_side & ~adj[q]
                u_side = p_side & ~adj[q]
                w_side = adj[q] & ~adj[s] & ~adj[p] & above
                if not (t_side and u_side and w_side):
                    continue
                # every copy on this triangle is elementwise above the floor
                floor = tuple(sorted((s, p, q, _low(t_side), _low(u_side), _low(w_side))))
                if best is not None and floor >= best[0]:
                    continue
                for t in iter_bits(t_side):
                    for u in iter_bits(u_side & adj[t]):
                        for w in iter_bits(w_side & adj[t] & adj[u]):
                            key = tuple(sorted((s, p, q, t, u, w)))
                            if best is None or key < best[0]:
                                best = (key, (s, p, q, t, u, w))
        if best is not None:
            return Certificate(C6BAR, best[1])
    return None


def _find_w54(g: Graph) -> Optional[Certificate]:
    """A hub c, a rim vertex v5 outside N[c], its rim neighbours v1 < v4 in
    N(c) and the path v1 v2 v3 v4 with v2, v3 in N(c) - N(v5). The hub is
    the only vertex of degree four, so the least vertex set fixes the
    certificate."""
    adj = g.adj
    best: Optional[tuple[tuple[int, ...], int, tuple[int, ...]]] = None
    for c in range(g.n):
        # v5 needs two common neighbours with c
        for v5 in iter_bits(_second_neighbourhood(g, c) & ~g.closed_mask(c)):
            ends = adj[c] & adj[v5]
            mids = adj[c] & ~adj[v5]
            if ends.bit_count() < 2 or mids.bit_count() < 2:
                continue
            # every copy on (c, v5) is elementwise above the floor
            two_ends = (_low(ends), _low(ends & (ends - 1)))
            two_mids = (_low(mids), _low(mids & (mids - 1)))
            floor = tuple(sorted((c, v5) + two_ends + two_mids))
            if best is not None and floor >= best[0]:
                continue
            for v1 in iter_bits(ends):
                for v4 in iter_bits(ends & ~adj[v1] & ~((1 << (v1 + 1)) - 1)):
                    for v2 in iter_bits(mids & adj[v1] & ~adj[v4]):
                        for v3 in iter_bits(mids & adj[v2] & adj[v4] & ~adj[v1]):
                            key = tuple(sorted((c, v1, v2, v3, v4, v5)))
                            if best is None or key < best[0]:
                                best = (key, c, (v1, v2, v3, v4, v5))
    return None if best is None else Certificate(W54, canonical_cycle(best[2]), center=best[1])


def find_small_obstruction(g: Graph, kind: str) -> Optional[Certificate]:
    """Lexicographically least copy of one fixed obstruction, or None: K23
    by its (u1, u2, v1, v2, v3) layout, C6BAR and W54 by sorted vertex set."""
    if kind == K23:
        for u1 in range(g.n):
            # u2 needs three common neighbours with u1
            above = ~((1 << (u1 + 1)) - 1)
            for u2 in iter_bits(_second_neighbourhood(g, u1) & ~g.adj[u1] & above):
                common = g.adj[u1] & g.adj[u2]
                if common.bit_count() < 3:
                    continue
                triple = stable_triple(g, common)
                if triple is not None:
                    return Certificate(K23, (u1, u2) + triple)
        return None
    if kind == C6BAR:
        return _find_c6bar(g)
    if kind == W54:
        return _find_w54(g)
    raise ValueError(f"unknown small obstruction kind {kind!r}")


@dataclass(frozen=True)
class HoleExpansion:
    """For a hole H: per rim vertex its twin set (the vertex plus everything
    attaching to H exactly as it does), and the set of vertices complete
    to H."""

    hole: tuple[int, ...]
    twin_sets: tuple[frozenset[int], ...]
    universal: frozenset[int]


def hole_expansion(g: Graph, hole: Certificate) -> HoleExpansion:
    if hole.kind not in (HOLE, LONG_HOLE):
        raise ValueError("hole certificate required")
    if not check_certificate(g, hole):
        raise ValueError("invalid hole certificate")
    verts = hole.vertices
    k = len(verts)
    hole_mask = mask_of(verts)
    targets = []
    for i in range(k):
        targets.append((1 << verts[(i - 1) % k]) | (1 << verts[i]) | (1 << verts[(i + 1) % k]))
    twin_sets = [set() for _ in range(k)]
    universal = set()
    for v in range(g.n):
        trace = g.closed_mask(v) & hole_mask
        if v not in verts and trace == hole_mask:
            universal.add(v)
            continue
        for i in range(k):
            if trace == targets[i]:
                twin_sets[i].add(v)
                break
    return HoleExpansion(verts, tuple(frozenset(s) for s in twin_sets), frozenset(universal))
