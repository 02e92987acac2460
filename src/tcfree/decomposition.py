"""Clique cutset decomposition and the solver framework built on it.

A clique cutset splits G into (A, B, C): C a clique, no edges between the
nonempty sides A and B. The atoms of G are its maximal vertex sets that
induce subgraphs without a clique cutset; they are unique (Leimer 1993).
build_tree splits them off one at a time, which gives a chain-shaped tree
whose leaves are exactly the atoms and whose answers combine: coloring by
palette permutation across the cutset, maximum weight clique by taking the
best leaf, maximum weight stable set by reweighting the cutset with its
marginal value against the A side. build_tree computes the tree once, each
node's vertex set a mask, and the three solvers walk it reading the masks.

The solvers take one prebuilt leaf solver per leaf, leaves[i] for leaf node
i, and every leaf solver works in the labels of the whole graph: a clique
solver answers on its whole atom, a colorer colors the vertices of its atom
only, and a stable-set solver answers on the subset of its atom named by
its mask argument. A leaf that is the join of basic graphs (its
anticomponents) gets its leaf solvers from Join, which combines the
pieces' own.

The cutsets come from one minimal triangulation, maximum cardinality search
with fill edges (MCS-M+, each pick's raises decided by one flood over the
weight levels, O(n^2) mask operations per pass): every clique minimal
separator of G is the later neighborhood of a generator of the search, a
vertex whose weight did not grow past the previous pick's (Tarjan,
"Decomposition by clique separators", 1985; Berry, Pogorelcnik and Simonet,
"An introduction to clique minimal separator decomposition", 2010). The
pass records each split at the generator's pick, where that neighborhood
is the generator's neighbors among the vertices numbered so far in G plus
fill, a clique of G exactly when no fill edge lies inside it; build_tree
only walks the splits back and floods each atom's component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .graphs import Coloring, Graph, WeightedGraph, bits_list, component_of, is_clique

LeafMwcSolver = Callable[[WeightedGraph], tuple]
LeafColorer = Callable[[Graph], tuple[dict[int, int], int]]
"""Called as leaf(g); returns (colors, count): an optimal coloring of the
leaf's atom, as a dict from each vertex of the atom to its color, 1 to
count. Vertices outside the atom are left out, so a leaf costs its size."""
LeafMwssSolver = Callable[..., tuple]
"""Called as leaf(wg, mask=m) with m a subset of the leaf's atom, possibly
empty; returns (weight, vertices) of a maximum weight stable set of the
subgraph that m induces, in wg's labels. solve_mwss asks it for A and for
A minus N(c), each cutset vertex c, with the weights of that chain node."""


def _mcsm(g: Graph, mask: int) -> tuple[list[int], list[int], int, list[tuple[int, int]]]:
    """Maximum cardinality search with fill-in on the induced subgraph,
    MCS-M+ in the terms of Berry, Pogorelcnik and Simonet. Returns an
    elimination order of mask (eliminated first comes first), the fill
    adjacency mask of each vertex of g, the mask of generators (the vertices
    picked with a weight no greater than that of the previous pick), and
    the splits: (v, cutset) in pick order for each generator v whose cutset
    is a clique of g. The cutset is v's later neighborhood in graph plus
    fill, which is chordal with an inclusion-minimal fill; it is a minimal
    separator, and a clique of g unless a fill edge lies inside it. Both
    ends of such an edge were picked before v, so the test at v's pick looks
    at the cutset's vertices with a fill edge, until at most one is left.

    The unnumbered vertices are kept in one mask per weight, and each pick
    is the least vertex of the highest nonempty level. The minimax rule
    raises an unnumbered u of weight j when some path from the pick v to u
    runs through unnumbered vertices all of weight below j, that is, when u
    touches the component of v in v plus the levels below j. So one flood
    from v decides every raise of a pick: walking the levels upward, the
    vertices of level j that touch the flood are raised, and the flood grows
    from them through the levels walked. Each vertex enters the flood at
    most once, so a pick costs O(n) mask operations and a pass O(n^2).

    The walk stops once every unnumbered vertex, or every unnumbered
    neighbor of the flood, is walked: on a path numbered from one end, every
    pick stops after level 0. On a long cycle the far end of the path left
    over sits unraised at the pick's weight until the flood reaches it, so
    every pick still floods every unnumbered vertex, Theta(n^2) mask
    operations per pass.
    """
    adj = g.adj
    fills = [0] * g.n
    filled = 0  # the vertices with a fill edge
    level = [0] * (mask.bit_count() + 1)
    level[0] = mask
    top = 0
    unnumbered = mask
    selection: list[int] = []
    generators = 0
    splits: list[tuple[int, int]] = []
    previous = -1  # so the first pick is no generator
    while unnumbered:
        low = level[top] & -level[top]
        v = low.bit_length() - 1
        selection.append(v)
        level[top] ^= low
        unnumbered ^= low
        if top <= previous:
            generators |= low
            cutset = adj[v] & (mask ^ unnumbered) | fills[v]
            test = cutset & filled
            while test & (test - 1):
                b = test & -test
                if fills[b.bit_length() - 1] & cutset:
                    break
                test ^= b
            else:
                splits.append((v, cutset))
        previous = top

        # flood: the component of v in v plus the levels walked so far;
        # walked: v and those levels, raised vertices included; pending: the
        # flood's unnumbered neighbors not walked yet, raised at their level
        flood = walked = low
        pending = adj[v] & unnumbered
        raised_all = 0
        for j in range(top + 1):
            members = level[j]
            walked |= members
            raised = pending & members
            if raised:
                pending ^= raised
                level[j] = members ^ raised
                level[j + 1] |= raised
                raised_all |= raised
                if not unnumbered & ~walked:
                    break
                frontier = raised
                reach = 0  # the neighbors of the flood's growth
                dry = walked & ~flood & ~raised  # walked, not flooded yet
                while frontier:
                    while frontier:
                        b = frontier & -frontier
                        reach |= adj[b.bit_length() - 1]
                        frontier ^= b
                    frontier = reach & dry
                    dry ^= frontier
                flood = walked & ~dry
                pending |= reach & unnumbered & ~walked
            if not pending:
                break
        if level[top + 1]:
            top += 1
        while top and not level[top]:
            top -= 1
        fill = raised_all & ~adj[v]
        if fill:
            fills[v] |= fill
            filled |= fill | low
            while fill:
                b = fill & -fill
                fills[b.bit_length() - 1] |= low
                fill ^= b
    return list(reversed(selection)), fills, generators, splits


class TreeNode(NamedTuple):
    """A node of a build_tree chain, its vertex set a mask: an atom, or an
    internal node with its cutset in increasing order and children (atom, rest)."""

    id: int
    kind: str  # "leaf" or "internal"
    mask: int
    cutset: Optional[tuple[int, ...]]
    children: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(bits_list(self.mask))


class DecompositionTree(NamedTuple):
    nodes: tuple[TreeNode, ...]
    root: int

    def leaves(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.kind == "leaf"]

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]


def build_tree(g: Graph) -> DecompositionTree:
    """Clique cutset decomposition tree whose leaves are exactly the atoms:
    the maximal vertex sets that induce subgraphs without a clique cutset.

    One MCS-M+ pass records the splits: each generator v whose later
    neighborhood S in the triangulation is a clique of g, tested from the
    fill at v's pick. Walking them back from the last pick, each splits off
    the atom C u S, where C is the component of what is left minus S that
    holds v; what is left at the end is the last atom (Tarjan,
    "Decomposition by clique separators", 1985; Berry, Pogorelcnik and
    Simonet, "An introduction to clique minimal separator decomposition",
    2010).

    The tree is a chain: each internal node carries the cutset S, its first
    child is the atom and its second the rest. Leaves come first in the
    node list, then the internal nodes from the innermost out, so the root
    is last. At most 2n - 1 nodes for n vertices."""
    rest = g.full_mask()
    leaves: list[int] = []
    cutsets: list[int] = []
    for v, cutset in reversed(_mcsm(g, rest)[3]):
        comp = component_of(g, v, rest & ~cutset)
        leaves.append(comp | cutset)
        cutsets.append(cutset)
        rest &= ~comp
    leaves.append(rest)
    nodes = [TreeNode(i, "leaf", m, None, ()) for i, m in enumerate(leaves)]
    child = len(leaves) - 1
    for i in reversed(range(len(cutsets))):
        rest |= leaves[i]
        # from a list: tuple() of a generator regrows, and that churn raises peak memory
        nodes.append(TreeNode(len(nodes), "internal", rest, tuple(bits_list(cutsets[i])), (i, child)))
        child = len(nodes) - 1
    return DecompositionTree(tuple(nodes), child)


def atom_masks(g: Graph) -> list[int]:
    """Vertex masks of the atoms, in the order build_tree lists them."""
    return [nd.mask for nd in build_tree(g).leaves()]


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


def solve_mwc(wg: WeightedGraph, tree: DecompositionTree, leaves: Sequence[LeafMwcSolver]) -> tuple:
    """Maximum weight clique over the decomposition tree of wg's graph:
    every clique lives inside some atom, so the best atom answer wins."""
    best = 0
    best_set: frozenset[int] = frozenset()
    for leaf in leaves:
        value, chosen = leaf(wg)
        if value > best:
            best, best_set = value, chosen
    return best, best_set


def _chain(tree: DecompositionTree) -> tuple[list[TreeNode], TreeNode]:
    """The internal nodes of a build_tree chain from the root down, and its
    last leaf."""
    internal = []
    node = tree.node(tree.root)
    while node.kind != "leaf":
        internal.append(node)
        node = tree.node(node.children[1])
    return internal, node


def solve_coloring(g: Graph, tree: DecompositionTree, leaves: Sequence[LeafColorer]) -> Coloring:
    """Optimal coloring over the decomposition tree of g. Walking the chain
    from its last leaf up, each atom is colored and its palette permuted to
    agree with the side below on the cutset clique, so the union stays
    proper and the color count is the larger of the two."""

    internal, last = _chain(tree)
    right, total = leaves[last.id](g)
    for node in reversed(internal):
        left, n_left = leaves[node.children[0]](g)
        total = max(n_left, total)
        perm: dict[int, int] = {}
        taken = set()
        for v in node.cutset:
            perm[left[v]] = right[v]
            taken.add(right[v])
        free = iter(x for x in range(1, total + 1) if x not in taken)
        for x in range(1, n_left + 1):
            if x not in perm:
                perm[x] = next(free)
        for v, col in left.items():
            right[v] = perm[col]
    # a list first, as in build_tree
    return Coloring(tuple([right[v] for v in range(g.n)]), total)


def solve_mwss(wg: WeightedGraph, tree: DecompositionTree, leaves: Sequence[LeafMwssSolver]) -> tuple:
    """Maximum weight stable set over the decomposition tree of wg's graph.

    At an internal node with cutset C, A is the atom child minus C and the
    other child holds B u C. Each cutset vertex c is reweighted to its
    marginal value against A: the best stable set of A u {c} minus the best
    of A alone. The reduced problem on B u C (with B's weights intact) then
    carries the full optimum; its answer is completed with the matching
    A-side witness. Cutset vertices whose marginal value is zero are dropped
    from the returned set so they never constrain the A side for nothing.
    The chain is walked down to reweight and back up to complete; the atom's
    leaf solver answers for A and for A minus N(c) by mask. One copy of the
    weights serves the walk: each marginal overwrites its cutset vertex's
    weight once computed, which no later call on A reads, A excluding C.
    """
    g = wg.graph
    internal, last = _chain(tree)
    weights = list(wg.weights)
    wg = WeightedGraph(g, weights)
    sides = []
    for node in internal:
        leaf = leaves[node.children[0]]
        a = tree.node(node.children[0]).mask & ~tree.node(node.children[1]).mask
        alpha_a, wit_a = leaf(wg, mask=a)
        gain: dict[int, tuple] = {}
        for cv in node.cutset:
            with_cv, wit_cv = leaf(wg, mask=a & ~g.adj[cv])
            weights[cv] = marginal = with_cv + weights[cv] - alpha_a
            gain[cv] = (marginal, wit_cv)
        sides.append((alpha_a, wit_a, gain))
    value, found = leaves[last.id](wg, mask=last.mask)
    chosen = set(found)
    for alpha_a, wit_a, gain in reversed(sides):
        # a stable set meets the cutset clique in at most one vertex, so the
        # walk stops at the first cutset vertex chosen
        side = wit_a
        for cv, (marginal, wit_cv) in gain.items():
            if cv in chosen:
                if marginal > 0:
                    side = wit_cv
                else:
                    chosen.remove(cv)
                break
        value += alpha_a
        chosen |= side
    return value, frozenset(chosen)


@dataclass(frozen=True)
class Join:
    """Leaf solvers for a leaf whose pieces, in the order listed, are
    pairwise complete to each other. Each piece has a vertex mask and leaf
    solvers mwc, mwss and color on it (classes.Piece, a basic graph). A
    clique takes the best clique of every piece, a stable set lives inside
    one piece (the first best wins), and no two pieces can share a color,
    so their palettes are stacked in piece order."""

    pieces: tuple

    def mwc(self, wg: WeightedGraph) -> tuple:
        total = 0
        chosen: frozenset[int] = frozenset()
        for piece in self.pieces:
            value, part = piece.mwc(wg)
            total += value
            chosen |= part
        return total, chosen

    def mwss(self, wg: WeightedGraph, mask: int) -> tuple:
        best = 0
        best_set: frozenset[int] = frozenset()
        for piece in self.pieces:
            if piece.mask & mask:
                value, part = piece.mwss(wg, mask=piece.mask & mask)
                if value > best:
                    best, best_set = value, part
        return best, best_set

    def color(self, g: Graph) -> tuple[dict[int, int], int]:
        colors: dict[int, int] = {}
        offset = 0
        for piece in self.pieces:
            part, count = piece.color(g)
            for v, c in part.items():
                colors[v] = offset + c
            offset += count
        return colors, offset
