"""Ring and hyperhole recognition, coloring, and optimization."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, recognize_hyperantihole
from tcfree.chordal import is_chordal
from tcfree.classes import HYPERHOLE, Piece
from tcfree.detectors import PROPER_WHEEL, PRISM, PYRAMID, THETA, UNIVERSAL_WHEEL, canonical_cycle, find_cap
from tcfree.generators import (
    complete_graph,
    cycle_graph,
    gen_hyperantihole,
    gen_hyperhole,
    gen_ring,
    path_graph,
)
from tcfree.graphs import Coloring, Graph, WeightedGraph, induced_subgraph, is_proper_coloring, iter_bits
from tcfree.oracles import (
    brute_alpha_w,
    brute_chi,
    brute_cycle_weighted_chromatic,
    brute_is_ring,
    brute_omega_w,
    enumerate_holes,
    truemper_present,
)
from tcfree.rings import (
    _single_cycle_order,
    recognize_hyperhole,
    recognize_ring,
    verify_good_partition,
    weighted_cycle_color,
)

ring_params = st.tuples(
    st.integers(0, 2**30),
    st.integers(4, 7),
    st.lists(st.integers(1, 3), min_size=4, max_size=7),
)


@given(ring_params)
def test_generated_rings_are_recognized(params):
    seed, k, sizes = params
    sizes = (sizes * k)[:k]
    g, partition = gen_ring(seed, k, sizes)
    assert verify_good_partition(g, partition.parts)
    found = recognize_ring(g)
    assert found is not None
    assert found.k == k
    assert verify_good_partition(g, found.parts)
    # parts must induce the same cyclic arrangement up to symmetry
    assert sorted(len(p) for p in found.parts) == sorted(sizes)


@given(graphs(min_n=3, max_n=7))
def test_recognize_ring_matches_brute(g):
    mine = recognize_ring(g)
    brute = brute_is_ring(g)
    assert (mine is not None) == (brute is not None)
    if mine is not None:
        assert verify_good_partition(g, mine.parts)


def test_ring_rejections():
    assert recognize_ring(path_graph(5)) is None
    assert recognize_ring(complete_graph(4)) is None
    assert recognize_ring(cycle_graph(3)) is None
    pendant = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)])
    assert recognize_ring(pendant) is None


def test_ring_structure_lemmas():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randrange(4, 7)
        sizes = [rng.randrange(1, 3) for _ in range(k)]
        g, partition = gen_ring(rng.randrange(2**30), k, sizes)
        if g.n > 10:
            continue
        # every hole has length exactly k
        for rim in enumerate_holes(g, min_len=4):
            assert len(rim) == k
        # removing any whole part leaves a chordal graph
        for part in partition.parts:
            keep = [v for v in range(g.n) if v not in part]
            sub, _ = induced_subgraph(g, keep)
            assert is_chordal(sub)
        # no three-path configuration, no proper or universal wheel
        present = truemper_present(g)
        assert not present & {THETA, PYRAMID, PRISM, PROPER_WHEEL, UNIVERSAL_WHEEL}


def test_recognize_hyperhole():
    g = gen_hyperhole(0, 5, (2, 1, 3, 1, 2))
    parts = recognize_hyperhole(g)
    assert parts is not None and len(parts) == 5
    assert sorted(p.bit_count() for p in parts) == [1, 1, 2, 2, 3]
    # masks of g partitioning it, consecutive parts complete and the others
    # anticomplete, listed as canonical_cycle lists their least vertices
    assert sum(parts) == g.full_mask()
    for i, j in combinations(range(5), 2):
        complete = min(j - i, 5 - (j - i)) == 1
        for u in iter_bits(parts[i]):
            assert g.adj[u] & parts[j] == (parts[j] if complete else 0)
    least = [(p & -p).bit_length() - 1 for p in parts]
    assert tuple(least) == canonical_cycle(least)
    # a ring that is not a hyperhole is rejected
    staircase = Graph(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 1)]
    )
    if recognize_ring(staircase) is not None:
        assert recognize_hyperhole(staircase) is None
    assert recognize_hyperhole(complete_graph(4)) is None


def test_single_cycle_order_finds_exactly_the_spanning_holes():
    # near-2-regular graphs: disjoint cycles over a shuffled vertex set with
    # an edge sometimes added or dropped, plus plain random graphs
    rng = random.Random(2017)
    found = 0
    for trial in range(3000):
        n = rng.randrange(1, 10)
        if trial % 4 == 0:
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        else:
            vs = rng.sample(range(n), n)
            edges = set()
            start = 0
            while n - start >= 3:
                size = rng.randrange(3, n - start + 1)
                cycle = vs[start : start + size]
                edges.update(frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1]))
                start += size
            pairs = [frozenset((u, v)) for u in range(n) for v in range(u + 1, n)]
            if pairs and rng.random() < 0.3:
                edges ^= {rng.choice(pairs)}
            g = Graph(n, [tuple(e) for e in edges])
        order = _single_cycle_order(g)
        spanning = any(len(h) == n for h in enumerate_holes(g))
        assert (order is not None) == spanning, g.adj
        if order is not None:
            found += 1
            assert sorted(order) == list(range(n))
            assert all(g.has_edge(u, v) for u, v in zip(order, order[1:] + order[:1]))
    assert found > 100


@given(ring_params)
def test_hyperhole_iff_ring_without_cap(params):
    seed, k, sizes = params
    sizes = (sizes * k)[:k]
    g, _ = gen_ring(seed, k, sizes)
    is_hyper = recognize_hyperhole(g) is not None
    assert is_hyper == (find_cap(g) is None)


def test_recognize_hyperantihole():
    g = gen_hyperantihole(0, 7, (1, 2, 1, 1, 2, 1, 1))
    parts = recognize_hyperantihole(g)
    assert parts is not None and len(parts) == 7
    # length four means two anticomplete cliques
    g4 = gen_hyperantihole(0, 4, (2, 1, 2, 1))
    parts4 = recognize_hyperantihole(g4)
    assert parts4 is not None and len(parts4) == 4
    assert recognize_hyperantihole(cycle_graph(6)) is None
    assert recognize_hyperantihole(complete_graph(5)) is None


@given(
    st.integers(3, 7),
    st.data(),
)
def test_weighted_cycle_color_matches_brute(k, data):
    mults = [data.draw(st.integers(1, 12 // k + 2)) for _ in range(k)]
    if sum(mults) > 12:
        mults = [1] * k
    sets, count = weighted_cycle_color(k, mults)
    assert count == brute_cycle_weighted_chromatic(k, mults)
    assert len(sets) == k
    for i in range(k):
        assert len(sets[i]) == mults[i]
        assert len(set(sets[i])) == mults[i]
        assert all(1 <= c <= count for c in sets[i])
        assert not set(sets[i]) & set(sets[(i + 1) % k])


def test_weighted_cycle_color_validation():
    with pytest.raises(ValueError, match="positive"):
        weighted_cycle_color(4, (1, 0, 1, 1))
    with pytest.raises(ValueError):
        weighted_cycle_color(2, (1, 1))
    with pytest.raises(ValueError):
        weighted_cycle_color(4, (1, 1, 1))


def _hyperhole_piece(g: Graph) -> Piece:
    return Piece(HYPERHOLE, tuple(recognize_hyperhole(g)))


@given(st.integers(0, 2**30), st.integers(4, 6), st.data())
def test_hyperhole_color_optimal_and_bounded(seed, k, data):
    sizes = [data.draw(st.integers(1, 2)) for _ in range(k)]
    g = gen_hyperhole(seed, k, sizes)
    if g.n > 10:
        return
    colors, count = _hyperhole_piece(g).color(g)
    col = Coloring(tuple(colors[v] for v in range(g.n)), count)
    assert is_proper_coloring(g, col)
    assert col.count == brute_chi(g)
    omega = brute_omega_w(WeightedGraph(g, (1,) * g.n))
    assert col.count <= 3 * omega // 2


@given(st.integers(0, 2**30), st.integers(4, 6), st.data())
def test_hyperhole_mwc_mwss_match_brute(seed, k, data):
    sizes = [data.draw(st.integers(1, 2)) for _ in range(k)]
    g = gen_hyperhole(seed, k, sizes)
    ws = tuple(data.draw(st.integers(-4, 9)) for _ in range(g.n))
    wg = WeightedGraph(g, ws)
    piece = _hyperhole_piece(g)
    value, clique = piece.mwc(wg)
    assert value == brute_omega_w(wg)
    assert sum(ws[v] for v in clique) == value
    value, stable = piece.mwss(wg, g.full_mask())
    assert value == brute_alpha_w(wg)
    assert sum(ws[v] for v in stable) == value
