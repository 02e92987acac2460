"""Clique cutset decomposition and the three solver frameworks.

The frameworks are exercised with exhaustive leaf solvers on arbitrary
random graphs: whatever the tree looks like, combining exact leaf answers
must reproduce the global exact answer.
"""

import random

from hypothesis import given

from conftest import (
    brute_mwc_set,
    brute_mwss_set,
    exact_coloring,
    graphs,
    rand_graph,
    weighted_graphs,
)
from tcfree.decomposition import (
    atom_masks,
    build_tree,
    find_clique_cutset,
    find_extreme_clique_cut,
    glue,
    solve_coloring,
    solve_mwc,
    solve_mwss,
)
from tcfree.generators import complete_graph, cycle_graph
from tcfree.graphs import (
    WeightedGraph,
    bits_list,
    induced_subgraph,
    is_clique,
    is_proper_coloring,
    is_stable_set,
)
from tcfree.oracles import brute_alpha_w, brute_chi, brute_clique_cutset_exists, brute_omega_w


@given(graphs(max_n=8))
def test_find_clique_cutset_matches_brute(g):
    found = find_clique_cutset(g)
    assert (found is not None) == (brute_clique_cutset_exists(g) is not None)
    if found is not None:
        side_a, side_b, cut = found
        assert is_clique(g, cut)
        assert side_a and side_b
        assert not (side_a & side_b)
        assert side_a | side_b | cut == frozenset(range(g.n))
        assert all(not g.has_edge(u, v) for u in side_a for v in side_b)


@given(graphs(max_n=8))
def test_extreme_cut_atom_side_is_cutset_free(g):
    found = find_extreme_clique_cut(g)
    if found is None:
        return
    side_a, side_b, cut = found
    atom, _ = induced_subgraph(g, sorted(side_a | cut))
    assert find_clique_cutset(atom) is None


@given(graphs(max_n=9))
def test_build_tree_invariants(g):
    tree = build_tree(g)
    assert len(tree.nodes) <= 2 * g.n - 1
    root = tree.node(tree.root)
    assert sorted(root.vertices) == list(range(g.n))
    for node in tree.nodes:
        if node.kind == "leaf":
            sub, _ = induced_subgraph(g, node.vertices)
            assert find_clique_cutset(sub) is None
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
        assert find_clique_cutset(sub) is None
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
    assert find_clique_cutset(glued) is not None


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
            assert find_clique_cutset(sub) is None


@given(weighted_graphs(max_n=8))
def test_solve_mwc_with_exact_leaves(wg):
    value, chosen = solve_mwc(wg, build_tree(wg.graph), lambda sub: brute_mwc_set(sub))
    assert is_clique(wg.graph, chosen)
    assert sum(wg.weights[v] for v in chosen) == value
    assert value == brute_omega_w(wg)


@given(weighted_graphs(max_n=8))
def test_solve_mwss_with_exact_leaves(wg):
    value, chosen = solve_mwss(wg, build_tree(wg.graph), lambda sub: brute_mwss_set(sub))
    assert is_stable_set(wg.graph, chosen)
    assert sum(wg.weights[v] for v in chosen) == value
    assert value == brute_alpha_w(wg)


@given(graphs(max_n=8))
def test_solve_coloring_with_exact_leaves(g):
    col = solve_coloring(g, build_tree(g), exact_coloring)
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
        value, chosen = solve_mwss(wg, build_tree(wg.graph), lambda sub: brute_mwss_set(sub))
        assert is_stable_set(g, chosen)
        assert value == brute_alpha_w(wg)
        assert sum(ws[v] for v in chosen) == value
