"""Clique cutset decomposition and the three solver frameworks.

The frameworks are exercised with exhaustive leaf solvers on arbitrary
random graphs: whatever the tree looks like, combining exact leaf answers
must reproduce the global exact answer.
"""

import heapq
import random

from hypothesis import given

from conftest import (
    brute_mwc_set,
    brute_mwss_set,
    differential_graphs,
    exact_coloring,
    graphs,
    rand_graph,
    weighted_graphs,
)
from tcfree.decomposition import (
    DecompositionTree,
    TreeNode,
    _mcsm,
    atom_masks,
    build_tree,
    glue,
    solve_coloring,
    solve_mwc,
    solve_mwss,
)
from tcfree.generators import complete_graph, complete_multipartite, cycle_graph, gen_class_member, path_graph
from tcfree.graphs import (
    Graph,
    WeightedGraph,
    bits_list,
    component_of,
    induced_subgraph,
    is_clique,
    is_clique_mask,
    is_proper_coloring,
    is_stable_set,
    iter_bits,
    mask_of,
    masked_components,
)
from tcfree.oracles import brute_alpha_w, brute_chi, brute_clique_cutset_exists, brute_omega_w


# The MCS-M kernel _mcsm had before it kept one mask per weight level: a
# Dijkstra-style minimax search per pick, kept as the reference the level
# kernel is checked against.


def _ref_mcsm(g, mask):
    """(order, fills, generators) of MCS-M+ on the subgraph induced by mask:
    u is raised when some path from the pick through unnumbered vertices
    keeps every interior weight below u's weight."""
    unnumbered = mask
    remaining = bits_list(mask)
    weight = dict.fromkeys(remaining, 0)
    fills = [0] * g.n
    selection = []
    generators = 0
    previous = -1
    while remaining:
        v = max(remaining, key=weight.__getitem__)
        if weight[v] <= previous:
            generators |= 1 << v
        previous = weight[v]
        remaining.remove(v)
        selection.append(v)
        unnumbered &= ~(1 << v)

        dist = {}
        heap = []
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
    return list(reversed(selection)), fills, generators


def _sparse_graphs(rng):
    """Paths (numbered in order, from the middle and shuffled), stars and
    long cycles: the graphs on which _mcsm's level walk stops early, or
    cannot."""
    for n in (2, 3, 9, 40, 97):
        yield path_graph(n)
        yield Graph(n, [((i + n // 2) % n, (i + 1 + n // 2) % n) for i in range(n - 1)])
        perm = rng.sample(range(n), n)
        yield Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
        yield complete_multipartite([1, n])
        yield complete_multipartite([n, 1])
        if n >= 3:
            yield cycle_graph(n)


def test_mcsm_matches_the_minimax_reference():
    rng = random.Random(2004)
    graphs = [g for g, _ in differential_graphs()] + list(_sparse_graphs(random.Random(97)))
    for g in graphs:
        for mask in (g.full_mask(), rng.randrange(1 << g.n), rng.randrange(1 << g.n)):
            assert _mcsm(g, mask)[:3] == _ref_mcsm(g, mask), (g.adj, mask)


# The tree build_tree made before _mcsm recorded the splits at each pick: a
# second walk over the elimination order, each generator's cutset taken from
# a per-vertex mask of the vertices after it and tested with is_clique_mask.


def _ref_build_tree(g):
    """(tree, generators whose cutset is not a clique) of the two-phase walk."""
    rest = g.full_mask()
    order, fills, generators = _ref_mcsm(g, rest)
    leaves, cutsets, rejected = [], [], 0
    later = rest
    for v in order:
        later &= ~(1 << v)
        if not generators >> v & 1:
            continue
        cutset = (g.adj[v] | fills[v]) & later
        if not is_clique_mask(g, cutset):
            rejected += 1
            continue
        comp = component_of(g, v, rest & ~cutset)
        leaves.append(comp | cutset)
        cutsets.append(cutset)
        rest &= ~comp
    leaves.append(rest)
    nodes = [TreeNode(i, "leaf", m, None, ()) for i, m in enumerate(leaves)]
    child = len(leaves) - 1
    for i in reversed(range(len(cutsets))):
        rest |= leaves[i]
        nodes.append(TreeNode(len(nodes), "internal", rest, tuple(iter_bits(cutsets[i])), (i, child)))
        child = len(nodes) - 1
    return DecompositionTree(tuple(nodes), child), rejected


def test_build_tree_matches_the_two_phase_walk():
    members = [
        gen_class_member(seed, cls, pieces=n // 4, max_n=n)
        for seed in range(3)
        for cls in ("gut", "gu", "gt", "gutcap")
        for n in (30, 60, 120)
    ]
    graphs = [g for g, _ in differential_graphs()] + list(_sparse_graphs(random.Random(97))) + members
    rejected = 0
    for g in graphs:
        ref, ref_rejected = _ref_build_tree(g)
        assert build_tree(g) == ref, g.adj
        rejected += ref_rejected
    # the fill test turns down generators, so it is exercised
    assert rejected > 0


# The cut search build_tree ran before it took the atoms from one MCS-M
# pass, kept as the reference the single pass is checked against.


def _ref_cut_in_mask(g, mask):
    """Some clique cutset partition (A, B, C) of the induced subgraph on
    mask, as masks, or None when it is an atom. Not necessarily extreme."""
    if mask == 0 or mask & (mask - 1) == 0:
        return None
    comps = masked_components(g, mask)
    if len(comps) > 1:
        a = comps[0]
        return a, mask & ~a, 0
    peo, fills, _, _ = _mcsm(g, mask)
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


def _ref_extreme_cut_in_mask(g, mask):
    """Clique cutset partition (A, B, C) of the subgraph on mask with
    G[A u C] an atom, or None: a cutset inside A u C refines any partition,
    with the side holding the old cutset's remainder oriented toward B."""
    cut = _ref_cut_in_mask(g, mask)
    if cut is None:
        return None
    a, b, c = cut
    while True:
        inner = _ref_cut_in_mask(g, a | c)
        if inner is None:
            return a, b, c
        a2, b2, c2 = inner
        if c & ~c2 & a2:
            a2, b2 = b2, a2
        a, b, c = a2, b | b2, c2


def _ref_recursive_tree(g):
    nodes = []

    def rec(mask):
        cut = _ref_extreme_cut_in_mask(g, mask)
        if cut is None:
            nodes.append(TreeNode(len(nodes), "leaf", mask, None, ()))
            return len(nodes) - 1
        a, b, c = cut
        left = rec(a | c)
        right = rec(b | c)
        nodes.append(TreeNode(len(nodes), "internal", mask, tuple(iter_bits(c)), (left, right)))
        return len(nodes) - 1

    root = rec(g.full_mask())
    return DecompositionTree(tuple(nodes), root)


def test_build_tree_leaves_are_the_reference_maximal_leaves():
    for g, chordal in differential_graphs():
        tree = build_tree(g)
        ref = _ref_recursive_tree(g)
        leaves = [nd.mask for nd in tree.leaves()]
        ref_leaves = {nd.mask for nd in ref.leaves()}
        maximal = {m for m in ref_leaves if not any(m != o and m & ~o == 0 for o in ref_leaves)}
        assert len(set(leaves)) == len(leaves), g.adj
        assert set(leaves) == maximal, g.adj
        for node in tree.nodes:
            if node.kind == "leaf":
                continue
            atom, rest = (tree.node(i).mask for i in node.children)
            assert node.mask == atom | rest, g.adj
            assert node.vertices == tuple(iter_bits(node.mask))
            c = mask_of(node.cutset)
            assert atom & rest == c
            a, b = atom & ~c, rest & ~c
            assert a and b and is_clique_mask(g, c)
            assert all(g.adj[v] & b == 0 for v in iter_bits(a))
        if chordal:
            assert (tree.root, tree.nodes) == (ref.root, ref.nodes), g.adj


@given(graphs(max_n=9))
def test_build_tree_invariants(g):
    tree = build_tree(g)
    assert len(tree.nodes) <= 2 * g.n - 1
    root = tree.node(tree.root)
    assert sorted(root.vertices) == list(range(g.n))
    assert (root.kind == "internal") == (brute_clique_cutset_exists(g) is not None)
    for node in tree.nodes:
        if node.kind == "leaf":
            sub, _ = induced_subgraph(g, node.vertices)
            assert brute_clique_cutset_exists(sub) is None
            assert node.children == ()
        else:
            assert node.cutset is not None
            assert is_clique(g, node.cutset)
            kids = [tree.node(c) for c in node.children]
            assert len(kids) >= 2
            covered = set()
            for kid in kids:
                covered |= set(kid.vertices)
            assert covered == set(node.vertices)


@given(graphs(max_n=9))
def test_tree_reglues_to_original(g):
    tree = build_tree(g)
    edges = set()
    for leaf in tree.leaves():
        vs = leaf.vertices
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if g.has_edge(u, v):
                    edges.add((min(u, v), max(u, v)))
    assert edges == set(g.edges())


@given(graphs(max_n=9))
def test_atom_masks_cover_graph(g):
    masks = atom_masks(g)
    acc = 0
    for mask in masks:
        sub, _ = induced_subgraph(g, bits_list(mask))
        assert brute_clique_cutset_exists(sub) is None
        acc |= mask
    assert acc == g.full_mask()


def test_glue_relabels_second_graph():
    g1 = cycle_graph(4)
    g2 = complete_graph(3)
    glued = glue(g1, g2, [0, 1], [0, 1])
    assert glued.n == 5
    assert glued.has_edge(0, 1)
    assert glued.has_edge(0, 4) and glued.has_edge(1, 4)
    # the clique overlap separates the two sides
    assert brute_clique_cutset_exists(glued) is not None


def test_glue_then_decompose_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        g1 = rand_graph(rng, rng.randrange(3, 7), 0.7)
        g2 = rand_graph(rng, rng.randrange(3, 7), 0.7)
        # grow a clique in each to glue along
        c1 = [max(range(g1.n), key=g1.degree)]
        c2 = [max(range(g2.n), key=g2.degree)]
        glued = glue(g1, g2, c1, c2)
        assert glued.n == g1.n + g2.n - 1
        tree = build_tree(glued)
        for leaf in tree.leaves():
            sub, _ = induced_subgraph(glued, leaf.vertices)
            assert brute_clique_cutset_exists(sub) is None


# Exact leaf solvers under the leaf-solver contract: brute force on the
# subgraph of the atom (or of the stable-set mask, which must lie inside the
# atom), answered in the whole graph's labels.


def _brute_on(wg, vertices, brute):
    if not vertices:
        return 0, frozenset()
    sub, verts = induced_subgraph(wg.graph, vertices)
    value, chosen = brute(WeightedGraph(sub, tuple(wg.weights[v] for v in verts)))
    return value, frozenset(verts[i] for i in chosen)


def _exact_mwc_leaves(tree):
    return [lambda wg, atom=nd.vertices: _brute_on(wg, atom, brute_mwc_set) for nd in tree.leaves()]


def _padded_mwss_set(wg):
    """A maximum weight stable set that also takes every zero-weight vertex
    it can: the leaf-solver contract allows it, and solve_mwss must then
    drop cutset vertices whose marginal value is zero."""
    g, w = wg.graph, wg.weights
    best = max(
        (bits_list(m) for m in range(1 << g.n) if is_stable_set(g, bits_list(m))),
        key=lambda vs: (sum(w[v] for v in vs), len(vs)),
    )
    return sum(w[v] for v in best), frozenset(best)


def _exact_mwss_leaves(tree, brute=brute_mwss_set):
    def leaf(atom):
        def solve(wg, mask):
            assert mask & ~atom == 0
            return _brute_on(wg, bits_list(mask), brute)

        return solve

    return [leaf(nd.mask) for nd in tree.leaves()]


def _exact_color_leaves(tree):
    def leaf(atom):
        def solve(g):
            sub, verts = induced_subgraph(g, atom)
            col = exact_coloring(sub)
            return dict(zip(verts, col.colors)), col.count

        return solve

    return [leaf(nd.vertices) for nd in tree.leaves()]


@given(weighted_graphs(max_n=8))
def test_solve_mwc_with_exact_leaves(wg):
    tree = build_tree(wg.graph)
    value, chosen = solve_mwc(wg, tree, _exact_mwc_leaves(tree))
    assert is_clique(wg.graph, chosen)
    assert sum(wg.weights[v] for v in chosen) == value
    assert value == brute_omega_w(wg)


@given(weighted_graphs(max_n=8))
def test_solve_mwss_with_exact_leaves(wg):
    tree = build_tree(wg.graph)
    for brute in (brute_mwss_set, _padded_mwss_set):
        value, chosen = solve_mwss(wg, tree, _exact_mwss_leaves(tree, brute))
        assert is_stable_set(wg.graph, chosen)
        assert sum(wg.weights[v] for v in chosen) == value
        assert value == brute_alpha_w(wg)


@given(graphs(max_n=8))
def test_solve_coloring_with_exact_leaves(g):
    tree = build_tree(g)
    col = solve_coloring(g, tree, _exact_color_leaves(tree))
    assert is_proper_coloring(g, col)
    assert col.count == brute_chi(g)


def test_solve_mwss_reweighting_across_cutsets():
    # chain of cliques glued along single vertices stresses the marginal
    # reweighting: cutset vertices look attractive on both sides
    rng = random.Random(7)
    for _ in range(15):
        g = complete_graph(3)
        for _ in range(3):
            piece = complete_graph(rng.randrange(2, 4))
            g = glue(g, piece, [rng.randrange(g.n)], [0])
        ws = tuple(rng.randrange(-3, 9) for _ in range(g.n))
        wg = WeightedGraph(g, ws)
        tree = build_tree(wg.graph)
        value, chosen = solve_mwss(wg, tree, _exact_mwss_leaves(tree))
        assert is_stable_set(g, chosen)
        assert value == brute_alpha_w(wg)
        assert sum(ws[v] for v in chosen) == value
