"""Certificate checking and the polynomial detectors."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, rand_graph
from tcfree.detectors import (
    C6BAR,
    CAP,
    HOLE,
    K23,
    LONG_HOLE,
    PRISM,
    PROPER_WHEEL,
    PYRAMID,
    THETA,
    TWIN_WHEEL,
    UNIVERSAL_WHEEL,
    W54,
    Certificate,
    canonical_cycle,
    check_certificate,
    find_cap,
    find_long_hole,
    find_small_obstruction,
    hole_expansion,
)
from tcfree import detectors
from tcfree.generators import complete_graph, cycle_graph, gen_class_member, join_graphs
from tcfree.graphs import Graph, complement, iter_bits, mask_of, shortest_path
from tcfree.oracles import enumerate_holes


def wheel(k: int, hub_neighbors) -> Graph:
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k, v) for v in hub_neighbors]
    return Graph(k + 1, edges)


def test_canonical_cycle_invariance():
    base = canonical_cycle((2, 5, 1, 7, 4))
    order = [2, 5, 1, 7, 4]
    for shift in range(5):
        rotated = order[shift:] + order[:shift]
        assert canonical_cycle(rotated) == base
        assert canonical_cycle(rotated[::-1]) == base


def test_check_certificate_hole_kinds():
    c5 = cycle_graph(5)
    rim = canonical_cycle((0, 1, 2, 3, 4))
    assert check_certificate(c5, Certificate(HOLE, rim))
    assert check_certificate(c5, Certificate(LONG_HOLE, rim))
    c4 = cycle_graph(4)
    rim4 = canonical_cycle((0, 1, 2, 3))
    assert check_certificate(c4, Certificate(HOLE, rim4))
    assert not check_certificate(c4, Certificate(LONG_HOLE, rim4))
    # chord breaks the hole
    chorded = Graph(5, list(c5.edges()) + [(0, 2)])
    assert not check_certificate(chorded, Certificate(HOLE, rim))


def test_check_certificate_wheels_and_cap():
    g = wheel(6, [0, 1, 3])
    rim = canonical_cycle(range(6))
    assert check_certificate(g, Certificate(PROPER_WHEEL, rim, center=6))
    assert not check_certificate(g, Certificate(TWIN_WHEEL, rim, center=6))
    assert not check_certificate(g, Certificate(UNIVERSAL_WHEEL, rim, center=6))

    tw = wheel(5, [4, 0, 1])
    rim5 = canonical_cycle(range(5))
    assert check_certificate(tw, Certificate(TWIN_WHEEL, rim5, center=5))

    uw = wheel(5, range(5))
    assert check_certificate(uw, Certificate(UNIVERSAL_WHEEL, rim5, center=5))

    cap = wheel(6, [2, 3])
    assert check_certificate(cap, Certificate(CAP, rim, center=6))
    assert not check_certificate(cap, Certificate(CAP, rim, center=5))


def test_check_certificate_three_path_kinds():
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    theta = Certificate(
        THETA, tuple(range(5)), paths=((0, 2, 1), (0, 3, 1), (0, 4, 1))
    )
    assert check_certificate(k23, theta)

    prism = Graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    cert = Certificate(PRISM, tuple(range(6)), paths=((0, 3), (1, 4), (2, 5)))
    assert check_certificate(prism, cert)

    pyramid = Graph(6, [(3, 4), (4, 5), (3, 5), (0, 3), (0, 1), (1, 4), (0, 2), (2, 5)])
    cert = Certificate(PYRAMID, tuple(range(6)), paths=((0, 3), (0, 1, 4), (0, 2, 5)))
    assert check_certificate(pyramid, cert)
    # two length-one legs would make two triangles share an edge, not a pyramid
    bad = Certificate(PYRAMID, tuple(range(6)), paths=((0, 3), (0, 4), (0, 2, 5)))
    assert not check_certificate(pyramid, bad)


def test_check_certificate_small_obstructions():
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert check_certificate(k23, Certificate(K23, tuple(range(5))))
    assert not check_certificate(complete_graph(5), Certificate(K23, tuple(range(5))))

    # triangles listed first, matched pairwise by position
    c6bar = complement(cycle_graph(6))
    assert check_certificate(c6bar, Certificate(C6BAR, (0, 2, 4, 3, 5, 1)))
    assert not check_certificate(c6bar, Certificate(C6BAR, tuple(range(6))))

    w54 = wheel(5, [0, 1, 2, 3])
    assert check_certificate(w54, Certificate(W54, canonical_cycle(range(5)), center=5))


def _has_long_hole_brute(g: Graph) -> bool:
    return next(enumerate_holes(g, min_len=5), None) is not None


@given(graphs(max_n=8))
def test_find_long_hole_matches_enumeration(g):
    cert = find_long_hole(g)
    assert (cert is not None) == _has_long_hole_brute(g)
    if cert is not None:
        assert cert.kind == LONG_HOLE
        assert check_certificate(g, cert)


def _has_cap_brute(g: Graph) -> bool:
    for rim in enumerate_holes(g, min_len=4):
        k = len(rim)
        rim_set = set(rim)
        for c in range(g.n):
            if c in rim_set:
                continue
            hits = [i for i in range(k) if g.has_edge(c, rim[i])]
            if len(hits) != 2:
                continue
            i, j = hits
            if (i + 1) % k == j or (j + 1) % k == i:
                return True
    return False


@given(graphs(max_n=8))
def test_find_cap_matches_enumeration(g):
    cert = find_cap(g)
    assert (cert is not None) == _has_cap_brute(g)
    if cert is not None:
        assert cert.kind == CAP
        assert check_certificate(g, cert)


def _induced_copy_exists(g: Graph, target: Graph) -> bool:
    for sub in combinations(range(g.n), target.n):
        for perm in permutations(sub):
            if all(
                g.has_edge(perm[i], perm[j]) == target.has_edge(i, j)
                for i, j in combinations(range(target.n), 2)
            ):
                return True
    return False


@pytest.mark.parametrize(
    "kind,target",
    [
        (K23, Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])),
        (C6BAR, complement(cycle_graph(6))),
        (W54, wheel(5, [0, 1, 2, 3])),
    ],
)
def test_find_small_obstruction_matches_brute(kind, target):
    rng = random.Random(kind)
    for trial in range(120):
        g = rand_graph(rng, rng.randrange(4, 8), rng.uniform(0.2, 0.9))
        cert = find_small_obstruction(g, kind)
        assert (cert is not None) == _induced_copy_exists(g, target), (kind, trial)
        if cert is not None:
            assert check_certificate(g, cert)
    # the target itself and a padded version must be found
    assert find_small_obstruction(target, kind) is not None
    padded = join_graphs(target, complete_graph(1))
    grown = Graph(padded.n + 1, list(padded.edges()))
    assert find_small_obstruction(grown, kind) is not None


# Reference scans: the subset and per-attachment searches the anchored
# detectors replaced. Their certificates pin the lexicographically-least and
# first-in-order contracts.


def _scan_k23(g: Graph):
    for u1, u2 in combinations(range(g.n), 2):
        if g.has_edge(u1, u2):
            continue
        common = [v for v in range(g.n) if g.has_edge(u1, v) and g.has_edge(u2, v)]
        for triple in combinations(common, 3):
            if not any(g.has_edge(a, b) for a, b in combinations(triple, 2)):
                return Certificate(K23, (u1, u2) + triple)
    return None


def _scan_c6bar(g: Graph):
    for subset in combinations(range(g.n), 6):
        mask = mask_of(subset)
        if any((g.adj[v] & mask).bit_count() != 3 for v in subset):
            continue
        s0 = subset[0]
        nbrs = [v for v in subset if g.has_edge(s0, v)]
        for p, q in combinations(nbrs, 2):
            if not g.has_edge(p, q):
                continue
            t1 = (s0, p, q)
            t2 = tuple(v for v in subset if v not in t1)
            if not all(g.has_edge(a, b) for a, b in combinations(t2, 2)):
                continue
            match = [[b for b in t2 if g.has_edge(a, b)] for a in t1]
            if all(len(m) == 1 for m in match) and len({m[0] for m in match}) == 3:
                return Certificate(C6BAR, t1 + tuple(m[0] for m in match))
    return None


def _scan_w54(g: Graph):
    for subset in combinations(range(g.n), 6):
        for c in subset:
            rim = [v for v in subset if v != c]
            rim_mask = mask_of(rim)
            if (g.adj[c] & rim_mask).bit_count() != 4:
                continue
            if any((g.adj[v] & rim_mask).bit_count() != 2 for v in rim):
                continue
            # a 2-regular graph on five vertices is a five-cycle
            order = [rim[0]]
            while len(order) < 5:
                order.append(next(u for u in iter_bits(g.adj[order[-1]] & rim_mask) if u not in order))
            return Certificate(W54, canonical_cycle(order), center=c)
    return None


def _scan_cap(g: Graph):
    full = g.full_mask()
    for c in range(g.n):
        for x in iter_bits(g.adj[c]):
            for y in iter_bits(g.adj[c] & g.adj[x] & ~((1 << (x + 1)) - 1)):
                keep = full & ~(g.closed_mask(c) & ~(1 << x) & ~(1 << y))
                for a, b0 in ((x, y), (y, x)):
                    cand_a = g.adj[a] & keep & ~g.closed_mask(b0)
                    cand_b = g.adj[b0] & keep & ~g.closed_mask(a)
                    for av in iter_bits(cand_a):
                        direct = cand_b & g.adj[av]
                        if direct:
                            bv = (direct & -direct).bit_length() - 1
                            return Certificate(CAP, canonical_cycle([a, b0, bv, av]), center=c)
                        blocked = (g.closed_mask(a) | g.closed_mask(b0)) & ~(1 << av)
                        for bv in iter_bits(cand_b & ~g.adj[av]):
                            path = shortest_path(g, av, bv, keep & ~(blocked & ~(1 << bv)))
                            if path is not None:
                                return Certificate(CAP, canonical_cycle([a, b0] + path[::-1]), center=c)
    return None


def test_anchored_searches_match_reference_scans():
    rng = random.Random(20171)
    found = {K23: 0, C6BAR: 0, W54: 0, CAP: 0}
    for trial in range(2000):
        g = rand_graph(rng, rng.randrange(4, 12), rng.uniform(0.2, 0.9))
        for kind, got, want in (
            (K23, find_small_obstruction(g, K23), _scan_k23(g)),
            (C6BAR, find_small_obstruction(g, C6BAR), _scan_c6bar(g)),
            (W54, find_small_obstruction(g, W54), _scan_w54(g)),
            (CAP, find_cap(g), _scan_cap(g)),
        ):
            assert got == want, (kind, trial, list(g.edges()))
            found[kind] += got is not None
    # enough copies turn up to pin the certificates, not only their presence
    assert all(count >= 100 for count in found.values()), found


def test_find_cap_runs_no_path_search_on_a_member(monkeypatch):
    g = gen_class_member(3, "gutcap", 30, 120)
    calls = []
    monkeypatch.setattr(detectors, "shortest_path", lambda *a: calls.append(a))
    assert find_cap(g) is None
    assert calls == []


def test_hole_expansion_classifies_attachments():
    # C6 rim, one twin of rim vertex 0, one universal vertex, one cap vertex
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 5), (6, 0), (6, 1)]  # twin of 0
    edges += [(7, v) for v in range(6)]  # universal
    edges += [(8, 2), (8, 3)]  # cap attachment, lands in no set
    g = Graph(9, edges)
    hole = Certificate(HOLE, canonical_cycle(range(6)))
    exp = hole_expansion(g, hole)
    assert exp.hole == canonical_cycle(range(6))
    by_rim = {exp.hole[i]: exp.twin_sets[i] for i in range(6)}
    assert by_rim[0] == {0, 6}
    assert by_rim[3] == {3}
    assert exp.universal == {7}
    assert not any(8 in s for s in exp.twin_sets)
    with pytest.raises(ValueError):
        hole_expansion(g, Certificate(CAP, canonical_cycle(range(6)), center=8))
    with pytest.raises(ValueError):
        hole_expansion(g, Certificate(HOLE, canonical_cycle((0, 1, 2, 3, 4))))
