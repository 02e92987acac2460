"""Seeded generators: determinism and landing in the advertised family."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import recognize_hyperantihole
from tcfree.chordal import simplicial_order
from tcfree.classes import recognize_gt, recognize_gu, recognize_gut, recognize_gutcap
from tcfree.detectors import find_cap
from tcfree.generators import (
    gen_chordal,
    gen_class_member,
    gen_hyperantihole,
    gen_hyperhole,
    gen_ring,
)
from tcfree.graphs import Graph, complement, iter_bits
from tcfree.oracles import is_chordal_brute
from tcfree.rings import (
    recognize_hyperhole,
    recognize_ring,
    verify_good_partition,
)

_RECOGNIZERS = {
    "gut": recognize_gut,
    "gu": recognize_gu,
    "gt": recognize_gt,
    "gutcap": recognize_gutcap,
}


@st.composite
def part_sizes(draw, k_min=4, k_max=7, s_max=3):
    k = draw(st.integers(k_min, k_max))
    sizes = tuple(draw(st.integers(1, s_max)) for _ in range(k))
    return k, sizes


@given(st.integers(0, 2**30), part_sizes())
def test_gen_ring_lands_in_family(seed, ks):
    k, sizes = ks
    g, partition = gen_ring(seed, k, sizes)
    assert g.n == sum(sizes)
    assert verify_good_partition(g, partition.parts)
    found = recognize_ring(g)
    assert found is not None
    assert len(found.parts) == k
    assert Counter(len(p) for p in found.parts) == Counter(sizes)

    again, partition2 = gen_ring(seed, k, sizes)
    assert list(again.edges()) == list(g.edges())
    assert partition2 == partition


@given(st.integers(0, 2**30), part_sizes())
def test_gen_hyperhole_parts(seed, ks):
    k, sizes = ks
    g = gen_hyperhole(seed, k, sizes)
    parts = recognize_hyperhole(g)
    assert parts is not None
    assert Counter(p.bit_count() for p in parts) == Counter(sizes)
    # a hyperhole is a ring whose staircases are complete
    assert recognize_ring(g) is not None
    assert find_cap(g) is None


@given(st.integers(0, 2**30), part_sizes(k_min=5))
def test_gen_hyperantihole_parts(seed, ks):
    k, sizes = ks
    g = gen_hyperantihole(seed, k, sizes)
    parts = recognize_hyperantihole(g)
    assert parts is not None
    assert Counter(p.bit_count() for p in parts) == Counter(sizes)
    m = len(parts)
    for i in range(m):
        for j in range(i + 1, m):
            expect = min(j - i, m - (j - i)) >= 2
            for u in iter_bits(parts[i]):
                assert g.adj[u] & parts[j] == (parts[j] if expect else 0)


def test_hyperantihole_singleton_parts_complement_cycle():
    g = gen_hyperantihole(0, 7, (1,) * 7)
    assert recognize_hyperhole(complement(g)) is not None


@given(st.integers(0, 2**30), st.integers(1, 12), st.floats(0.0, 1.0))
def test_gen_chordal_is_chordal(seed, n, density):
    g = gen_chordal(seed, n, density)
    assert g.n == n
    assert simplicial_order(g) is not None
    if n <= 9:
        assert is_chordal_brute(g)
    again = gen_chordal(seed, n, density)
    assert list(again.edges()) == list(g.edges())


def test_gen_chordal_density_endpoints():
    for seed in range(10):
        tree = gen_chordal(seed, 9, 0.0)
        assert sum(1 for _ in tree.edges()) == 8
        full = gen_chordal(seed, 9, 1.0)
        assert sum(1 for _ in full.edges()) == 36


@given(
    st.integers(0, 2**30),
    st.sampled_from(("gut", "gu", "gt", "gutcap")),
    st.integers(1, 3),
)
def test_gen_class_member_in_class(seed, cls, pieces):
    g = gen_class_member(seed, cls, pieces=pieces, max_n=12)
    assert 1 <= g.n <= 12
    assert _RECOGNIZERS[cls](g).member
    assert recognize_gut(g).member  # every class sits inside gut
    if cls == "gutcap":
        assert find_cap(g) is None
    again = gen_class_member(seed, cls, pieces=pieces, max_n=12)
    assert list(again.edges()) == list(g.edges())


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValueError, match="at least 4 parts"):
        gen_ring(0, 3, (1, 1, 1))
    with pytest.raises(ValueError, match="one size per part"):
        gen_ring(0, 5, (1, 1, 1))
    with pytest.raises(ValueError, match="positive"):
        gen_hyperhole(0, 4, (1, 0, 1, 1))
    with pytest.raises(ValueError, match="at least one vertex"):
        gen_chordal(0, 0)
    with pytest.raises(ValueError, match="density"):
        gen_chordal(0, 5, 1.5)
    with pytest.raises(ValueError, match="unknown class"):
        gen_class_member(0, "gx")
    with pytest.raises(ValueError, match="at least one piece"):
        gen_class_member(0, "gu", pieces=0)
    with pytest.raises(ValueError, match="max_n of at least one"):
        gen_class_member(0, "gu", max_n=0)


def test_gen_class_member_stays_within_small_max_n():
    for cls in ("gut", "gu", "gt", "gutcap"):
        for max_n in range(1, 5):
            for seed in range(100):
                g = gen_class_member(seed, cls, max_n=max_n)
                assert 1 <= g.n <= max_n, (cls, max_n, seed)


def test_staircase_cobipartite_shape():
    from tcfree.generators import _staircase_cobipartite

    for seed in range(30):
        g = _staircase_cobipartite(random.Random(seed), 10)
        assert simplicial_order(g) is not None
        comp = complement(g)
        assert _is_bipartite(comp)


def _is_bipartite(g: Graph) -> bool:
    side = [None] * g.n
    for s in range(g.n):
        if side[s] is not None:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in range(g.n):
                if g.has_edge(u, v):
                    if side[v] is None:
                        side[v] = side[u] ^ 1
                        queue.append(v)
                    elif side[v] == side[u]:
                        return False
    return True
