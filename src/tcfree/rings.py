"""Rings, hyperholes, and weighted cycle coloring.

A ring is a graph whose vertex set splits into k >= 4 cyclically arranged
nonempty cliques X_1..X_k such that each X_i can be ordered by decreasing
closed neighborhood, its top vertex seeing exactly X_{i-1} u X_i u X_{i+1}.
Hyperholes are the special case where consecutive parts are complete to each
other; they are exactly the rings without caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Optional, Sequence

from .chordal import is_chordal, simplicial_order
from .detectors import canonical_cycle
from .graphs import (
    Graph,
    is_clique_mask,
    iter_bits,
    mask_of,
    masked_components,
    true_twin_partition,
)


@dataclass(frozen=True)
class GoodPartition:
    """Ring partition: parts in cyclic order, each part ordered by
    decreasing closed neighborhood (the dominant vertex first)."""

    parts: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.parts)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "parts": [list(p) for p in self.parts]}


def verify_good_partition(g: Graph, parts: Sequence[Sequence[int]]) -> bool:
    """Check the ring conditions for a cyclic sequence of parts: nonempty
    cliques partitioning the graph, anticomplete except between cyclic
    neighbors, a vertex in each part complete to both neighbor parts, and
    closed neighborhoods within a part totally ordered by inclusion.

    Raises ValueError when parts is not a partition of the vertex set; a
    structural failure of the ring conditions just returns False.
    """
    masks = [mask_of(p) for p in parts]
    if any(m == 0 for m in masks):
        raise ValueError("empty part")
    union = 0
    total = 0
    for m in masks:
        union |= m
        total += m.bit_count()
    if union != g.full_mask() or total != g.n:
        raise ValueError("parts do not partition the vertex set")

    k = len(masks)
    if k < 4:
        return False
    if not all(is_clique_mask(g, m) for m in masks):
        return False
    for i in range(k):
        reach = 0
        for v in iter_bits(masks[i]):
            reach |= g.adj[v]
        for j in range(i + 1, k):
            dist = min(j - i, k - (j - i))
            if dist >= 2 and reach & masks[j]:
                return False
    for i in range(k):
        side = masks[(i - 1) % k] | masks[(i + 1) % k]
        if not any(side & ~g.adj[v] == 0 for v in iter_bits(masks[i])):
            return False
    return all(_dominance_order(g, m) is not None for m in masks)


def _dominance_order(g: Graph, mask: int) -> Optional[tuple[int, ...]]:
    """Vertices of mask by decreasing closed neighborhood, or None when the
    neighborhoods are not totally ordered by inclusion."""
    vs = sorted(iter_bits(mask), key=lambda v: (-g.degree(v), v))
    for a, b in zip(vs, vs[1:]):
        if g.closed_mask(b) & ~g.closed_mask(a):
            return None
    return tuple(vs)


def recognize_ring(g: Graph) -> Optional[GoodPartition]:
    """A good partition when g is a ring, else None.

    The dominant vertex x of highest degree pins down its own part as the
    vertices whose closed neighborhood x covers. Each subsequent part is
    forced as the unseen neighborhood of the previous part's dominant
    vertex, walking around the cycle in one of two directions.
    """
    n = g.n
    if n < 4:
        return None
    full = g.full_mask()
    if len(masked_components(g, full)) != 1 or is_chordal(g):
        return None

    x = 0
    for v in range(1, n):
        if g.degree(v) > g.degree(x):
            x = v
    cx = g.closed_mask(x)
    x1_mask = mask_of(v for v in range(n) if g.closed_mask(v) & ~cx == 0)
    x1_order = _dominance_order(g, x1_mask)
    if x1_order is None or x1_mask == full:
        return None
    if simplicial_order(g, full & ~x1_mask) is None:
        return None
    u1 = x1_order[0]

    for x2_mask in masked_components(g, g.adj[u1] & ~x1_mask):
        got = _extend_ring(g, x1_mask, x1_order, x2_mask)
        if got is not None:
            return got
    return None


def _extend_ring(g: Graph, x1_mask: int, x1_order: tuple[int, ...], x2_mask: int) -> Optional[GoodPartition]:
    orders = [x1_order]
    used = x1_mask
    cur_mask = x2_mask
    while cur_mask:
        cur_order = _dominance_order(g, cur_mask)
        if cur_order is None:
            return None
        orders.append(cur_order)
        used |= cur_mask
        cur_mask = g.adj[cur_order[0]] & ~used
    if len(orders) < 4 or used != g.full_mask() or not verify_good_partition(g, orders):
        return None
    return GoodPartition(tuple(orders))


def _single_cycle_order(g: Graph, mask: Optional[int] = None) -> Optional[list[int]]:
    """Vertex order, from the least vertex, when the subgraph that mask
    induces, all of g when omitted, is one chordless cycle of length >= 4,
    else None."""
    mask = g.full_mask() if mask is None else mask
    n = mask.bit_count()
    if n < 4 or any((g.adj[v] & mask).bit_count() != 2 for v in iter_bits(mask)):
        return None
    # with every degree 2, a walk from the least vertex that has not
    # returned within n - 1 steps visits all n on one chordless cycle
    first = (mask & -mask).bit_length() - 1
    order = [first]
    prev, cur = -1, first
    for _ in range(n - 1):
        nxt = next(u for u in iter_bits(g.adj[cur] & mask) if u != prev)
        if nxt == first:
            return None
        prev, cur = cur, nxt
        order.append(cur)
    return order


def recognize_hyperhole(g: Graph, mask: Optional[int] = None) -> Optional[list[int]]:
    """Parts as masks of g, in the cyclic order canonical_cycle gives their
    least vertices, when the subgraph that mask induces, all of g when
    omitted, is a hyperhole (an expansion of a hole by nonempty cliques),
    else None. The true-twin classes of a hyperhole are exactly its parts,
    so the least vertices of the classes must induce a hole."""
    classes, reps = true_twin_partition(g, mask)
    order = _single_cycle_order(g, mask_of(reps))
    if order is None:
        return None
    part_of = dict(zip(reps, classes))
    return [part_of[v] for v in canonical_cycle(order)]


def weighted_cycle_color(k: int, mults: Sequence[int]) -> tuple[list[tuple[int, ...]], int]:
    """Color sets for the k-cycle where vertex i needs mults[i] colors and
    adjacent vertices' sets are disjoint, using the fewest colors possible.

    The count is the largest adjacent-pair demand N, raised for odd k to
    ceil(total / floor(k/2)) when that is bigger. Vertex i receives a cyclic
    interval of colors mod N; gaps inserted between consecutive intervals
    make the walk around the cycle return exactly to its start, and each gap
    stays small enough that neighboring intervals never collide.
    """
    if k < 3 or len(mults) != k:
        raise ValueError("need k >= 3 and one multiplicity per vertex")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive")
    total = sum(mults)
    n_colors = max(mults[i] + mults[(i + 1) % k] for i in range(k))
    t = k // 2
    if k % 2 == 1:
        n_colors = max(n_colors, ceil(total / t))

    spare = n_colors * t - total
    gaps = []
    for i in range(k):
        slack = n_colors - mults[i] - mults[(i + 1) % k]
        gap = min(slack, spare)
        gaps.append(gap)
        spare -= gap
    assert spare == 0

    sets: list[tuple[int, ...]] = []
    start = 0
    for i in range(k):
        sets.append(tuple((start + j) % n_colors + 1 for j in range(mults[i])))
        start += mults[i] + gaps[i]
    return sets, n_colors


def _path_mwss(ws: list) -> tuple:
    """Max weight independent set on a path, skipping nonpositive weights;
    returns (value, chosen index set)."""
    n = len(ws)
    best = [0] * (n + 1)
    take = [False] * n
    for i in range(n - 1, -1, -1):
        best[i] = best[i + 1]
        if ws[i] > 0:
            grab = ws[i] + (best[i + 2] if i + 2 <= n else 0)
            if grab > best[i]:
                best[i] = grab
                take[i] = True
    chosen = []
    i = 0
    while i < n:
        if take[i]:
            chosen.append(i)
            i += 2
        else:
            i += 1
    return best[0], chosen


def _cycle_mwss(ws: list) -> tuple:
    """Max weight independent set on a cycle; returns (value, index set)."""
    k = len(ws)
    if k == 0:
        return 0, []
    if k <= 2:
        i = max(range(k), key=lambda j: ws[j])
        return (ws[i], [i]) if ws[i] > 0 else (0, [])
    val_a, idx_a = _path_mwss(ws[1:])
    cand_a = (val_a, [i + 1 for i in idx_a])
    if ws[0] > 0:
        val_b, idx_b = _path_mwss(ws[2 : k - 1])
        cand_b = (ws[0] + val_b, [0] + [i + 2 for i in idx_b])
    else:
        cand_b = (0, [])
    return cand_a if cand_a[0] >= cand_b[0] else cand_b
