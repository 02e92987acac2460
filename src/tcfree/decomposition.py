"""Clique cutset decomposition and the solver framework built on it.

A clique cutset splits G into (A, B, C): C a clique, no edges between the
nonempty sides A and B. The partition is extreme when G[A u C] has no clique
cutset of its own; decomposing by extreme partitions gives a chain-shaped
tree whose leaves (atoms) are solved directly, and whose answers combine:
coloring by palette permutation across the cutset, maximum weight clique by
taking the best leaf, maximum weight stable set by reweighting the cutset
with its marginal value against the A side. build_tree computes the tree
once; the three solvers walk it. Leaves that are joins of simpler pieces
get their leaf solvers from Join.

Cutset candidates come from a minimal triangulation (maximum cardinality
search with fill edges, reachability tested by minimax weight): every
clique minimal separator of G survives as some vertex's later neighborhood
in a perfect elimination order of the triangulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import (
    Coloring,
    Graph,
    WeightedGraph,
    bits_list,
    induced_subgraph,
    is_clique,
    is_clique_mask,
    iter_bits,
    mask_of,
    masked_components,
)

LeafMwssSolver = Callable[[WeightedGraph], tuple]
LeafMwcSolver = Callable[[WeightedGraph], tuple]
LeafColorer = Callable[[Graph], Coloring]


def _mcsm(g: Graph, mask: int) -> tuple[list[int], dict[int, int]]:
    """Maximum cardinality search with fill-in on the induced subgraph.
    Returns an elimination order of mask (eliminated first comes first) and
    per-vertex fill adjacency masks; graph plus fill is chordal and the fill
    is inclusion-minimal.

    A vertex u is reachable from the chosen v when some path through
    not-yet-chosen vertices keeps every interior weight below u's weight;
    minimax distances computed Dijkstra-style decide that, with direct
    neighbors at distance -1.
    """
    unnumbered = mask
    remaining = bits_list(mask)
    weight = dict.fromkeys(remaining, 0)
    fills = dict.fromkeys(remaining, 0)
    selection: list[int] = []
    while remaining:
        # the least vertex of largest weight: max keeps the first maximum
        v = max(remaining, key=weight.__getitem__)
        remaining.remove(v)
        selection.append(v)
        unnumbered &= ~(1 << v)

        dist: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        for u in iter_bits(g.adj[v] & unnumbered):
            dist[u] = -1
            heapq.heappush(heap, (-1, u))
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, d):
                continue
            step = max(d, weight[u])
            for y in iter_bits(g.adj[u] & unnumbered):
                if step < dist.get(y, g.n + 1):
                    dist[y] = step
                    heapq.heappush(heap, (step, y))
        for u, d in dist.items():
            if d < weight[u]:
                weight[u] += 1
                if not g.has_edge(u, v):
                    fills[u] |= 1 << v
                    fills[v] |= 1 << u
    return list(reversed(selection)), fills


def _cut_in_mask(g: Graph, mask: int) -> Optional[tuple[int, int, int]]:
    """Some clique cutset partition (A, B, C) of the induced subgraph on
    mask, as masks, or None when it is an atom. Not necessarily extreme."""
    if mask == 0 or mask & (mask - 1) == 0:
        return None
    comps = masked_components(g, mask)
    if len(comps) > 1:
        a = comps[0]
        return a, mask & ~a, 0
    peo, fills = _mcsm(g, mask)
    later = mask
    for v in peo:
        later &= ~(1 << v)
        c_mask = (g.adj[v] | fills[v]) & later
        if not is_clique_mask(g, c_mask):
            continue
        rest = mask & ~c_mask
        comps = masked_components(g, rest)
        if len(comps) < 2:
            continue
        a = next(cm for cm in comps if cm >> v & 1)
        return a, rest & ~a, c_mask
    return None


def _extreme_cut_in_mask(g: Graph, mask: int) -> Optional[tuple[int, int, int]]:
    """Clique cutset partition (A, B, C) of the subgraph on mask with
    G[A u C] an atom, or None.

    Starting from any partition, a cutset inside A u C refines it: the old
    cutset minus the new one is a clique, hence lies wholly on one side of
    the new split; orienting that side toward B keeps C' separating A' from
    everything else, and A u C strictly shrinks, so the loop ends.
    """
    cut = _cut_in_mask(g, mask)
    if cut is None:
        return None
    a, b, c = cut
    while True:
        inner = _cut_in_mask(g, a | c)
        if inner is None:
            return a, b, c
        a2, b2, c2 = inner
        if c & ~c2 & a2:
            a2, b2 = b2, a2
        a, b, c = a2, b | b2, c2


def find_clique_cutset(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """Any clique cutset partition (A, B, C) of g, or None when g has no
    clique cutset. A disconnected graph yields an empty cutset."""
    cut = _cut_in_mask(g, g.full_mask())
    if cut is None:
        return None
    a, b, c = cut
    return frozenset(iter_bits(a)), frozenset(iter_bits(b)), frozenset(iter_bits(c))


@dataclass(frozen=True)
class TreeNode:
    id: int
    kind: str  # "leaf" or "internal"
    vertices: tuple[int, ...]
    cutset: Optional[tuple[int, ...]]
    children: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "vertices": list(self.vertices),
            "cutset": None if self.cutset is None else list(self.cutset),
            "children": list(self.children),
        }


@dataclass(frozen=True)
class DecompositionTree:
    nodes: tuple[TreeNode, ...]
    root: int

    def leaves(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.kind == "leaf"]

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def to_json_dict(self) -> dict:
        return {"root": self.root, "nodes": [nd.to_json_dict() for nd in self.nodes]}


def build_tree(g: Graph) -> DecompositionTree:
    """Extreme clique cutset decomposition tree. Internal nodes carry the
    cutset; their first child is the atom on A u C, the second the rest.
    At most 2n - 1 nodes for n vertices."""
    nodes: list[TreeNode] = []

    def rec(mask: int) -> int:
        cut = _extreme_cut_in_mask(g, mask)
        if cut is None:
            nodes.append(TreeNode(len(nodes), "leaf", tuple(iter_bits(mask)), None, ()))
            return len(nodes) - 1
        a, b, c = cut
        left = rec(a | c)
        right = rec(b | c)
        nodes.append(
            TreeNode(len(nodes), "internal", tuple(iter_bits(mask)), tuple(iter_bits(c)), (left, right))
        )
        return len(nodes) - 1

    root = rec(g.full_mask())
    return DecompositionTree(tuple(nodes), root)


def find_extreme_clique_cut(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """An extreme clique cutset partition (A, B, C): additionally G[A u C]
    has no clique cutset. None when g is an atom. Read off the root of the
    decomposition tree."""
    tree = build_tree(g)
    root = tree.node(tree.root)
    if root.kind == "leaf":
        return None
    atom, rest = (tree.node(i) for i in root.children)
    c = frozenset(root.cutset)
    return frozenset(atom.vertices) - c, frozenset(rest.vertices) - c, c


def atom_masks(g: Graph) -> list[int]:
    """Vertex masks of the atoms of the extreme decomposition."""
    return [mask_of(nd.vertices) for nd in build_tree(g).leaves()]


def glue(g1: Graph, g2: Graph, clique1: Sequence[int], clique2: Sequence[int]) -> Graph:
    """Paste g2 onto g1, identifying clique2[i] with clique1[i]. The result
    keeps g1's labels; unmatched g2 vertices follow in ascending g2 order
    starting at g1.n. Both vertex lists must name cliques of equal size."""
    if len(clique1) != len(clique2):
        raise ValueError("cliques differ in size")
    if len(set(clique1)) != len(clique1) or len(set(clique2)) != len(clique2):
        raise ValueError("repeated vertex in glue clique")
    if not is_clique(g1, clique1) or not is_clique(g2, clique2):
        raise ValueError("glue vertex set is not a clique")
    m2 = {v: clique1[i] for i, v in enumerate(clique2)}
    nxt = g1.n
    for v in range(g2.n):
        if v not in m2:
            m2[v] = nxt
            nxt += 1
    edges = list(g1.edges())
    edges.extend((m2[u], m2[v]) for u, v in g2.edges())
    return Graph(nxt, edges)


def _leaf_weighted(g: Graph, weights: Sequence, vertices: Sequence[int], leaf: Callable) -> tuple:
    """Run a leaf solver on the induced subgraph and translate back."""
    if not vertices:
        return 0, frozenset()
    sub, verts = induced_subgraph(g, vertices)
    value, chosen = leaf(WeightedGraph(sub, tuple(weights[v] for v in verts)))
    return value, frozenset(verts[i] for i in chosen)


def solve_mwc(wg: WeightedGraph, tree: DecompositionTree, leaf: LeafMwcSolver) -> tuple:
    """Maximum weight clique over the decomposition tree of wg's graph:
    every clique lives inside some atom, so the best atom answer wins."""
    best = 0
    best_set: frozenset[int] = frozenset()
    for node in tree.leaves():
        value, chosen = _leaf_weighted(wg.graph, wg.weights, node.vertices, leaf)
        if value > best:
            best, best_set = value, chosen
    return best, best_set


def solve_coloring(g: Graph, tree: DecompositionTree, leaf_color: LeafColorer) -> Coloring:
    """Optimal coloring over the decomposition tree of g. Each side is
    colored recursively; the atom side's palette is permuted to agree with
    the other side on the cutset clique, so the union stays proper and the
    color count is the larger of the two."""

    def rec(node: TreeNode) -> tuple[dict[int, int], int]:
        if node.kind == "leaf":
            sub, verts = induced_subgraph(g, node.vertices)
            col = leaf_color(sub)
            return dict(zip(verts, col.colors)), col.count
        left, n_left = rec(tree.node(node.children[0]))
        right, n_right = rec(tree.node(node.children[1]))
        total = max(n_left, n_right)
        perm: dict[int, int] = {}
        taken = set()
        for v in node.cutset:
            perm[left[v]] = right[v]
            taken.add(right[v])
        free = iter(x for x in range(1, total + 1) if x not in taken)
        for x in range(1, n_left + 1):
            if x not in perm:
                perm[x] = next(free)
        merged = dict(right)
        for v, col in left.items():
            merged[v] = perm[col]
        return merged, total

    assignment, count = rec(tree.node(tree.root))
    return Coloring(tuple(assignment[v] for v in range(g.n)), count)


def solve_mwss(wg: WeightedGraph, tree: DecompositionTree, leaf: LeafMwssSolver) -> tuple:
    """Maximum weight stable set over the decomposition tree of wg's graph.

    At an internal node with cutset C, A is the atom child minus C and the
    other child holds B u C. Each cutset vertex c is reweighted to its
    marginal value against A: the best stable set of A u {c} minus the best
    of A alone. The reduced problem on B u C (with B's weights intact) then
    carries the full optimum; its answer is completed with the matching
    A-side witness. Cutset vertices whose marginal value is zero are dropped
    from the returned set so they never constrain the A side for nothing.
    """
    g = wg.graph

    def rec(node: TreeNode, weights: list) -> tuple:
        if node.kind == "leaf":
            return _leaf_weighted(g, weights, node.vertices, leaf)
        atom, rest = (tree.node(i) for i in node.children)
        c = mask_of(node.cutset)
        a = mask_of(atom.vertices) & ~c
        alpha_a, wit_a = _leaf_weighted(g, weights, bits_list(a), leaf)
        new_weights = list(weights)
        gain: dict[int, tuple] = {}
        for cv in node.cutset:
            with_cv, wit_cv = _leaf_weighted(g, weights, bits_list(a & ~g.adj[cv]), leaf)
            with_cv += weights[cv]
            marginal = with_cv - alpha_a
            gain[cv] = (marginal, wit_cv)
            new_weights[cv] = marginal
        value_b, chosen_b = rec(rest, new_weights)
        chosen_b = frozenset(v for v in chosen_b if not (c >> v & 1) or gain[v][0] > 0)
        tail = [v for v in chosen_b if c >> v & 1]
        if tail:
            side = gain[tail[0]][1]
        else:
            side = wit_a
        return alpha_a + value_b, chosen_b | side

    return rec(tree.node(tree.root), list(wg.weights))


@dataclass(frozen=True)
class JoinPiece:
    """One piece of a leaf that is the join of its pieces: its vertices in
    the leaf's labels, and solvers for the subgraph the piece induces."""

    vertices: tuple[int, ...]
    mwc: LeafMwcSolver
    mwss: LeafMwssSolver
    color: LeafColorer


@dataclass(frozen=True)
class Join:
    """Leaf solvers for leaves whose pieces, in the order `pieces` lists
    them, are pairwise complete to each other. A clique takes the best
    clique of every piece, a stable set lives inside one piece (the first
    best wins), and no two pieces can share a color, so their palettes are
    stacked in piece order."""

    pieces: Callable[[Graph], list[JoinPiece]]

    def mwc(self, wg: WeightedGraph) -> tuple:
        total = 0
        chosen: frozenset[int] = frozenset()
        for piece in self.pieces(wg.graph):
            value, part = _leaf_weighted(wg.graph, wg.weights, piece.vertices, piece.mwc)
            total += value
            chosen |= part
        return total, chosen

    def mwss(self, wg: WeightedGraph) -> tuple:
        best = 0
        best_set: frozenset[int] = frozenset()
        for piece in self.pieces(wg.graph):
            value, part = _leaf_weighted(wg.graph, wg.weights, piece.vertices, piece.mwss)
            if value > best:
                best, best_set = value, part
        return best, best_set

    def color(self, g: Graph) -> Coloring:
        colors = [0] * g.n
        offset = 0
        for piece in self.pieces(g):
            h, verts = induced_subgraph(g, piece.vertices)
            col = piece.color(h)
            for v, c in zip(verts, col.colors):
                colors[v] = offset + c
            offset += col.count
        return Coloring(tuple(colors), offset)
