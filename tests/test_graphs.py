"""Graph container, masks, twins, anticomponents."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from tcfree.graphs import (
    Coloring,
    Graph,
    WeightedGraph,
    anticomponents,
    bits_list,
    complement,
    induced_subgraph,
    is_clique,
    is_proper_coloring,
    is_stable_set,
    iter_bits,
    mask_of,
    masked_components,
    shortest_path,
    stable_triple,
    true_twin_partition,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.closed_mask(0) == 0b0011
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_mask_helpers():
    assert bits_list(0b10110) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001
    assert list(iter_bits(0)) == []


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g
    assert g.m + complement(g).m == g.n * (g.n - 1) // 2


@given(graphs(), st.integers(0, 10_000))
def test_induced_subgraph_edges(g, pick):
    vs = sorted(v for v in range(g.n) if pick >> v & 1) or [0]
    sub, verts = induced_subgraph(g, vs)
    assert verts == vs
    assert sub.n == len(vs)
    for i, j in combinations(range(sub.n), 2):
        assert sub.has_edge(i, j) == g.has_edge(verts[i], verts[j])


@given(graphs(), st.integers(0, 2**8 - 1))
def test_anticomponents_are_complement_components(g, pick):
    # a random mask, the empty one and the whole graph
    for mask in (g.full_mask() & pick, 0, g.full_mask()):
        assert anticomponents(g, mask) == masked_components(complement(g), mask)
    assert anticomponents(g) == masked_components(complement(g), g.full_mask())


@given(graphs())
def test_masked_components_cover_mask(g):
    mask = g.full_mask() & 0b10110111
    parts = masked_components(g, mask)
    if mask == 0:
        assert parts == []
        return
    acc = 0
    for part in parts:
        assert part & mask == part
        assert acc & part == 0
        acc |= part
    assert acc == mask


@given(graphs(min_n=2), st.integers(0, 255))
def test_true_twin_partition(g, bits):
    for mask in (None, g.full_mask() & ~bits):
        within = g.full_mask() if mask is None else mask
        classes, reps = true_twin_partition(g, mask)
        # disjoint nonempty masks covering the vertices, by least vertex
        assert sum(classes) == within and all(classes)
        assert sum(c.bit_count() for c in classes) == within.bit_count()
        assert reps == [min(iter_bits(c)) for c in classes] == sorted(reps)
        # each class is every vertex with its closed neighborhood in mask
        for c, r in zip(classes, reps):
            assert c == mask_of(v for v in iter_bits(within) if g.closed_mask(v) & within == g.closed_mask(r) & within)


@given(graphs(), st.integers(0, 255))
def test_stable_triple_is_the_least_stable_triple(g, bits):
    mask = g.full_mask() & ~bits
    expected = next(
        (t for t in combinations(bits_list(mask), 3) if is_stable_set(g, t)),
        None,
    )
    assert stable_triple(g, mask) == expected


def test_dominates_and_set_predicates():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    assert is_clique(g, [0, 1, 2])
    assert not is_clique(g, [0, 1, 3])
    assert is_stable_set(g, [0, 3])
    assert not is_stable_set(g, [0, 1])


def _bfs_dist(g, src, dst, allowed):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in iter_bits(g.adj[u]):
                if allowed >> v & 1 and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist.get(dst)


@given(graphs(min_n=2), st.data())
def test_shortest_path_is_shortest(g, data):
    src = data.draw(st.integers(0, g.n - 1))
    dst = data.draw(st.integers(0, g.n - 1))
    path = shortest_path(g, src, dst)
    expected = _bfs_dist(g, src, dst, g.full_mask())
    if expected is None:
        assert path is None
    else:
        assert path is not None
        assert path[0] == src and path[-1] == dst
        assert len(path) == expected + 1
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


def test_shortest_path_respects_allowed_mask():
    g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    allowed = mask_of([0, 2, 3])
    path = shortest_path(g, 0, 3, allowed)
    assert path == [0, 2, 3]


def test_weighted_graph_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        WeightedGraph(g, (1,))


def test_coloring_checks():
    g = Graph(3, [(0, 1), (1, 2)])
    assert is_proper_coloring(g, Coloring((1, 2, 1), 2))
    assert not is_proper_coloring(g, Coloring((1, 1, 2), 2))
    assert not is_proper_coloring(g, Coloring((1, 2, 1), 3))  # inconsistent count
