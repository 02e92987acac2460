"""Chordal recognition and the three linear-time solvers."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_mwc_set, brute_mwss_set, differential_graphs, graphs, rand_graph
from tcfree.chordal import (
    NotChordalError,
    _mwss_in_order,
    chordal_color,
    chordal_mwc,
    chordal_mwss,
    is_chordal,
    is_simplicial_order,
    simplicial_order,
)
from tcfree.classes import HYPERHOLE, Piece
from tcfree.generators import cycle_graph, gen_chordal, gen_hyperhole, path_graph
from tcfree.graphs import (
    Coloring,
    Graph,
    WeightedGraph,
    bits_list,
    induced_subgraph,
    is_clique,
    is_proper_coloring,
    is_stable_set,
    iter_bits,
    mask_of,
)
from tcfree.oracles import brute_alpha_w, brute_chi, brute_omega_w, is_chordal_brute
from tcfree.rings import recognize_hyperhole


def _ref_simplicial_order(g, mask):
    """The maximum cardinality search simplicial_order ran before it kept one
    mask per weight level: a scan of the unnumbered vertices for the least of
    largest weight at each pick, kept as its reference."""
    remaining = bits_list(mask)
    weight = dict.fromkeys(remaining, 0)
    unnumbered = mask
    visit = []
    while remaining:
        best = max(remaining, key=weight.__getitem__)
        remaining.remove(best)
        visit.append(best)
        unnumbered &= ~(1 << best)
        for u in iter_bits(g.adj[best] & unnumbered):
            weight[u] += 1
    order = tuple(reversed(visit))
    return order if is_simplicial_order(g, order, mask) else None


def test_simplicial_order_matches_the_scan_reference():
    rng = random.Random(1976)
    for g, _ in differential_graphs():
        masks = [g.full_mask(), rng.randrange(1 << g.n), rng.randrange(1 << g.n)]
        masks.extend(g.closed_mask(v) for v in range(g.n))
        for mask in masks:
            assert simplicial_order(g, mask) == _ref_simplicial_order(g, mask), (g.adj, mask)


@given(graphs(max_n=8))
def test_simplicial_order_matches_brute(g):
    order = simplicial_order(g)
    assert (order is not None) == is_chordal_brute(g)
    assert is_chordal(g) == (order is not None)
    if order is not None:
        assert sorted(order) == list(range(g.n))
        assert is_simplicial_order(g, order)


def test_invalid_order_rejected():
    p4 = path_graph(4)
    # eliminating the middle vertex first leaves its two nonadjacent
    # neighbors later in the order
    assert not is_simplicial_order(p4, (1, 0, 2, 3))
    assert is_simplicial_order(p4, simplicial_order(p4))
    with pytest.raises(NotChordalError, match="not chordal"):
        chordal_color(cycle_graph(5))
    with pytest.raises(NotChordalError, match="not chordal"):
        chordal_mwc(WeightedGraph(cycle_graph(5), (1,) * 5))


def test_supplied_valid_order_used():
    p4 = path_graph(4)
    assert is_simplicial_order(p4, (0, 3, 1, 2))
    col = chordal_color(p4)
    assert is_proper_coloring(p4, col) and col.count == 2
    value, _ = chordal_mwss(WeightedGraph(p4, (2, 1, 1, 2)))
    assert value == 4


def test_kernels_do_not_reverify_their_order(monkeypatch):
    # the search checks its order as it builds it; is_simplicial_order is the
    # independent checker and no kernel calls it
    def fail(*args, **kwargs):
        raise AssertionError("is_simplicial_order called")

    monkeypatch.setattr("tcfree.chordal.is_simplicial_order", fail)
    rng = random.Random(1984)
    seen = set()
    for trial in range(300):
        n = rng.randrange(1, 12)
        g = gen_chordal(rng.randrange(2**30), n, rng.random()) if trial % 2 else rand_graph(rng, n, rng.random())
        wg = WeightedGraph(g, tuple(rng.randrange(-4, 10) for _ in range(n)))
        for mask in (None, rng.randrange(1, 1 << n)):
            sub, _ = induced_subgraph(g, bits_list(g.full_mask() if mask is None else mask))
            chordal_mask = is_chordal_brute(sub)
            seen.add(chordal_mask)
            assert (simplicial_order(g, mask) is not None) == chordal_mask
            if mask is None:
                assert is_chordal(g) == chordal_mask
            for kernel, arg in ((chordal_mwc, wg), (chordal_mwss, wg), (chordal_color, g)):
                if chordal_mask:
                    kernel(arg, mask=mask)
                else:
                    with pytest.raises(NotChordalError):
                        kernel(arg, mask=mask)
    assert seen == {False, True}


@given(st.integers(0, 2**30), st.integers(1, 11), st.floats(0, 1))
def test_chordal_color_is_optimal(seed, n, density):
    g = gen_chordal(seed, n, density)
    col = chordal_color(g)
    assert is_proper_coloring(g, col)
    assert col.count == brute_chi(g)
    # for chordal graphs the chromatic number meets the clique number
    assert col.count == brute_omega_w(WeightedGraph(g, (1,) * g.n))


@given(st.integers(0, 2**30), st.integers(1, 10), st.data())
def test_chordal_mwc_matches_brute(seed, n, data):
    g = gen_chordal(seed, n, 0.6)
    ws = tuple(data.draw(st.integers(-4, 9)) for _ in range(n))
    wg = WeightedGraph(g, ws)
    value, chosen = chordal_mwc(wg)
    assert is_clique(g, chosen)
    assert sum(ws[v] for v in chosen) == value
    assert value == brute_omega_w(wg)


@given(st.integers(0, 2**30), st.integers(1, 10), st.data())
def test_chordal_mwss_matches_brute(seed, n, data):
    g = gen_chordal(seed, n, 0.4)
    ws = tuple(data.draw(st.integers(-4, 9)) for _ in range(n))
    wg = WeightedGraph(g, ws)
    value, chosen = chordal_mwss(wg)
    assert is_stable_set(g, chosen)
    assert sum(ws[v] for v in chosen) == value
    assert value == brute_alpha_w(wg)


def test_witness_sets_match_brute_witnesses():
    g = gen_chordal(11, 9, 0.5)
    wg = WeightedGraph(g, (4, -2, 3, 0, 5, 1, -1, 2, 3))
    assert chordal_mwc(wg)[0] == brute_mwc_set(wg)[0]
    assert chordal_mwss(wg)[0] == brute_mwss_set(wg)[0]


def test_mask_kernels_match_copied_subgraphs():
    # the kernels on a vertex mask answer exactly what they answer on the
    # induced subgraph, mapped back: same order, values and sets
    rng = random.Random(1212)
    for trial in range(600):
        n = rng.randrange(1, 15)
        if trial % 2:
            g = rand_graph(rng, n, rng.uniform(0.1, 0.9))
        else:
            g = gen_chordal(rng.randrange(2**30), n, rng.random())
        mask = rng.randrange(1, 1 << n)
        sub, verts = induced_subgraph(g, bits_list(mask))
        wg = WeightedGraph(g, tuple(rng.randrange(-4, 10) for _ in range(n)))
        sub_wg = WeightedGraph(sub, tuple(wg.weights[v] for v in verts))
        sub_order = simplicial_order(sub)
        if sub_order is None:
            assert simplicial_order(g, mask) is None
            for kernel, arg in ((chordal_mwc, wg), (chordal_mwss, wg), (chordal_color, g)):
                with pytest.raises(NotChordalError):
                    kernel(arg, mask=mask)
            continue
        order = simplicial_order(g, mask)
        assert order == tuple(verts[i] for i in sub_order)
        assert is_simplicial_order(g, order, mask)
        assert not is_simplicial_order(g, order, mask ^ (1 << rng.randrange(n)))
        for kernel in (chordal_mwc, chordal_mwss):
            value, chosen = kernel(sub_wg)
            assert kernel(wg, mask=mask) == (value, frozenset(verts[i] for i in chosen))
        col = chordal_color(sub)
        colors = [0] * n
        for v, c in zip(verts, col.colors):
            colors[v] = c
        assert chordal_color(g, mask=mask) == Coloring(tuple(colors), col.count)

    # a hyperhole Piece's mwss on a mask: a hyperhole that keeps a vertex of
    # every part is solved exactly as its copy with the parts relabelled; one
    # that loses a whole part is chordal, and the chordal kernel on the copy
    # gives the same value
    for trial in range(300):
        k = rng.randrange(4, 8)
        h = gen_hyperhole(0, k, [rng.randrange(1, 4) for _ in range(k)])
        perm = rng.sample(range(h.n), h.n)
        g = Graph(h.n, [(perm[u], perm[v]) for u, v in h.edges()])
        parts = recognize_hyperhole(g)
        piece = Piece(HYPERHOLE, tuple(parts))
        wg = WeightedGraph(g, tuple(rng.randrange(-4, 10) for _ in range(g.n)))
        mask = rng.randrange(1, 1 << g.n)
        sub, verts = induced_subgraph(g, bits_list(mask))
        sub_wg = WeightedGraph(sub, tuple(wg.weights[v] for v in verts))
        pos = {v: i for i, v in enumerate(verts)}
        sub_parts = [tuple(pos[v] for v in iter_bits(p & mask)) for p in parts]
        value, chosen = piece.mwss(wg, mask)
        if all(sub_parts):
            sub_value, sub_chosen = Piece(HYPERHOLE, tuple(mask_of(p) for p in sub_parts)).mwss(sub_wg, sub.full_mask())
            assert (value, chosen) == (sub_value, frozenset(verts[i] for i in sub_chosen))
        else:
            assert value == chordal_mwss(sub_wg)[0]
            assert chosen <= set(verts) and is_stable_set(g, chosen)
            assert sum(wg.weights[v] for v in chosen) == value


def test_mwss_in_a_superset_order_matches_chordal_mwss():
    # a perfect elimination order of a chordal graph, restricted to any
    # subset, is one of that subset: the kernel on a superset's order
    # answers the subset's problem and chooses nothing outside it
    rng = random.Random(2100)
    for trial in range(400):
        n = rng.randrange(1, 21)
        g = gen_chordal(rng.randrange(2**30), n, rng.random())
        sup = rng.randrange(1 << n)
        order = simplicial_order(g, sup)
        wg = WeightedGraph(g, tuple(rng.randrange(-4, 10) for _ in range(n)))
        for sub in (sup, 0, sup & rng.randrange(1 << n), sup & rng.randrange(1 << n)):
            value, chosen = _mwss_in_order(wg, order, sub)
            assert mask_of(chosen) & ~sub == 0 and is_stable_set(g, chosen), (trial, sub)
            assert sum(wg.weights[v] for v in chosen) == value
            assert value == chordal_mwss(wg, mask=sub)[0], (trial, g.adj, sub)
            if sub:
                sub_g, verts = induced_subgraph(g, bits_list(sub))
                assert value == brute_alpha_w(WeightedGraph(sub_g, tuple(wg.weights[v] for v in verts))), (trial, sub)
