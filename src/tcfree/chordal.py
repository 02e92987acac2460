"""Chordal graph routines: recognition, coloring, cliques, stable sets.

All four run off a perfect elimination order of the subgraph on a vertex
mask. One maximum cardinality search builds it and, in the same pass, checks
that each vertex's later neighbors form a clique (Tarjan and Yannakakis
1984), so a non-chordal input is rejected, never silently mishandled.
"""

from __future__ import annotations

from typing import Optional

from .graphs import Coloring, Graph, WeightedGraph, bits_list, iter_bits, mask_of


class NotChordalError(ValueError):
    """Raised when a chordal-only routine receives a non-chordal graph."""


def simplicial_order(g: Graph, mask: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """A perfect elimination order (first position eliminated first) of the
    subgraph induced by mask, all of g when omitted, or None when that
    subgraph is not chordal."""
    if mask is None:
        mask = g.full_mask()
    # one mask of unnumbered vertices per weight; a pick raises each
    # unnumbered neighbor one level, scanning down from the top so that no
    # vertex moves twice
    adj = g.adj
    level = [0] * (mask.bit_count() + 1)
    level[0] = mask
    top = 0
    unnumbered = mask
    visit: list[int] = []
    while unnumbered:
        # the least vertex of largest weight
        low = level[top] & -level[top]
        best = low.bit_length() - 1
        # its neighbors picked before it must form a clique
        earlier = adj[best] & (mask ^ unnumbered)
        rest = earlier
        while rest:
            bit = rest & -rest
            if earlier & ~adj[bit.bit_length() - 1] != bit:
                return None
            rest ^= bit
        visit.append(best)
        level[top] ^= low
        unnumbered ^= low
        nbrs = adj[best] & unnumbered
        j = top
        while nbrs:
            moved = nbrs & level[j]
            if moved:
                level[j] ^= moved
                level[j + 1] |= moved
                nbrs ^= moved
            j -= 1
        if level[top + 1]:
            top += 1
        while top and not level[top]:
            top -= 1
    return tuple(reversed(visit))


def is_simplicial_order(g: Graph, order, mask: Optional[int] = None) -> bool:
    """Whether order lists the vertices of mask, all of g when omitted, so
    that each vertex's later neighbors in mask form a clique. Checks only the
    earliest later neighbor's coverage, which suffices for a full order."""
    if mask is None:
        mask = g.full_mask()
    if sorted(order) != bits_list(mask):
        return False
    pos = {v: i for i, v in enumerate(order)}
    later = mask
    for v in order:
        later &= ~(1 << v)
        nbrs = g.adj[v] & later
        if nbrs == 0:
            continue
        w = min(iter_bits(nbrs), key=lambda u: pos[u])
        if nbrs & ~(1 << w) & ~g.adj[w]:
            return False
    return True


def is_chordal(g: Graph) -> bool:
    return simplicial_order(g) is not None


def _require_order(g: Graph, mask: int) -> tuple[int, ...]:
    order = simplicial_order(g, mask)
    if order is None:
        raise NotChordalError("graph is not chordal")
    return order


def _chordal_colors(g: Graph, mask: int) -> tuple[dict[int, int], int]:
    """An optimal coloring of the subgraph induced by mask, as the colors
    of mask's vertices only and their count. Greedy in reverse elimination
    order uses exactly as many colors as the largest clique."""
    order = _require_order(g, mask)
    colors: dict[int, int] = {}
    done = 0
    for v in reversed(order):
        used = 0
        for u in iter_bits(g.adj[v] & done):
            used |= 1 << (colors[u] - 1)
        # the least color not used: the lowest zero bit of used
        colors[v] = (~used & (used + 1)).bit_length()
        done |= 1 << v
    return colors, max(colors.values(), default=0)


def chordal_color(g: Graph, mask: Optional[int] = None) -> Coloring:
    """Optimal coloring of the subgraph induced by mask, all of g when
    omitted; vertices outside mask get color 0."""
    colors, count = _chordal_colors(g, g.full_mask() if mask is None else mask)
    out = [0] * g.n
    for v, c in colors.items():
        out[v] = c
    return Coloring(tuple(out), count)


def chordal_mwc(wg: WeightedGraph, mask: Optional[int] = None) -> tuple:
    """Maximum weight clique as (weight, vertices) in the subgraph induced by
    mask, all of wg's graph when omitted. The empty clique counts, so the
    value is never negative. Nonpositive-weight vertices are dropped; on
    what remains every candidate is a vertex plus all its later neighbors in
    an elimination order."""
    g, w = wg.graph, wg.weights
    if mask is None:
        mask = g.full_mask()
    order = _require_order(g, mask)
    live = mask_of(v for v in order if w[v] > 0)
    best = 0
    best_set: frozenset[int] = frozenset()
    later = mask
    for v in order:
        later &= ~(1 << v)
        if not live >> v & 1:
            continue
        cand = g.adj[v] & later & live
        value = w[v] + sum(w[u] for u in iter_bits(cand))
        if value > best:
            best = value
            best_set = frozenset([v]) | frozenset(iter_bits(cand))
    return best, best_set


def chordal_mwss(wg: WeightedGraph, mask: Optional[int] = None) -> tuple:
    """Maximum weight stable set as (weight, vertices) in the subgraph
    induced by mask, all of wg's graph when omitted."""
    if mask is None:
        mask = wg.graph.full_mask()
    return _mwss_in_order(wg, _require_order(wg.graph, mask), mask)


def _mwss_in_order(wg: WeightedGraph, order: tuple[int, ...], mask: int) -> tuple:
    """chordal_mwss on mask, given a perfect elimination order of a superset
    of mask; the order restricted to mask is one of mask, so the vertices
    outside mask are skipped.

    Forward pass over the order charges each vertex's residual weight
    against its later closed neighborhood and marks the vertices that still
    carried positive residual; a backward greedy over the marked vertices
    is then optimal. Nonpositive-weight vertices never help and are ignored
    up front.
    """
    g, w = wg.graph, wg.weights
    residual = list(w)
    marked = []
    later = mask
    for v in order:
        if not later >> v & 1:
            continue
        later &= ~(1 << v)
        if residual[v] <= 0:
            continue
        charge = residual[v]
        marked.append(v)
        residual[v] = 0
        for u in iter_bits(g.adj[v] & later):
            residual[u] -= charge
    chosen = 0
    for v in reversed(marked):
        if not g.adj[v] & chosen:
            chosen |= 1 << v
    value = sum(w[v] for v in iter_bits(chosen))
    return value, frozenset(iter_bits(chosen))
