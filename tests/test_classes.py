"""Class recognizers, class solvers, and the double star cutset."""

import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import differential_graphs, rand_graph
from tcfree import classes, decomposition, graphs
from tcfree.chordal import is_chordal, simplicial_order
from tcfree.classes import (
    CLASS_IDS,
    NotInClassError,
    Recognition,
    color_gu,
    color_gutcap,
    double_star_cutset_from_cap,
    mwc_gt,
    mwc_gu,
    mwc_gutcap,
    mwc_mwss_gu,
    mwc_mwss_gutcap,
    mwss_gt,
    mwss_gu,
    mwss_gutcap,
    recognize_bu_h,
    recognize_gt,
    recognize_gu,
    recognize_gut,
    recognize_gutcap,
)
from tcfree.decomposition import build_tree, glue
from tcfree.detectors import (
    C6BAR,
    CAP,
    K23,
    LONG_HOLE,
    PRISM,
    PROPER_WHEEL,
    PYRAMID,
    THETA,
    TWIN_WHEEL,
    UNIVERSAL_WHEEL,
    W54,
    find_cap,
    find_long_hole,
    find_small_obstruction,
)
from tcfree.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gen_class_member,
    gen_hyperantihole,
    gen_ring,
    join_graphs,
    path_graph,
)
from tcfree.graphs import (
    Graph,
    WeightedGraph,
    anticomponents,
    bits_list,
    complement,
    induced_subgraph,
    is_clique,
    is_clique_mask,
    is_proper_coloring,
    is_stable_set,
    iter_bits,
    mask_of,
    masked_components,
    true_twin_partition,
)
from tcfree.oracles import (
    brute_alpha_w,
    brute_chi,
    brute_omega_w,
    enumerate_holes,
    iter_all_graphs,
    truemper_present,
)
from tcfree.rings import (
    _single_cycle_order,
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


def membership_by_definition(g: Graph) -> dict[str, bool]:
    present = truemper_present(g)
    gut = not (present & {THETA, PYRAMID, PRISM, PROPER_WHEEL})
    return {
        "gut": gut,
        "gu": gut and TWIN_WHEEL not in present,
        "gt": gut and UNIVERSAL_WHEEL not in present,
        "gutcap": gut and CAP not in present,
    }


def test_recognizers_exhaustive_small():
    for g in iter_all_graphs(4):
        expected = membership_by_definition(g)
        for cls, rec in _RECOGNIZERS.items():
            assert rec(g).member == expected[cls], (cls, list(g.edges()))
    for g in iter_all_graphs(5):
        expected = membership_by_definition(g)
        for cls, rec in _RECOGNIZERS.items():
            assert rec(g).member == expected[cls], (cls, list(g.edges()))


def test_recognizers_random_medium():
    rng = random.Random(17)
    for _ in range(120):
        g = rand_graph(rng, rng.randrange(6, 9), rng.uniform(0.25, 0.85))
        expected = membership_by_definition(g)
        for cls, rec in _RECOGNIZERS.items():
            got = rec(g)
            assert got.member == expected[cls], (cls, list(g.edges()))
            assert bool(got) == got.member


def test_recognition_reports():
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    rec = recognize_gut(k23)
    assert not rec.member
    assert rec.certificate is not None and rec.certificate.kind == "K23"
    d = rec.to_json_dict()
    assert d["member"] is False and "certificate" in d

    member = recognize_gu(cycle_graph(7))
    assert member.member and member.certificate is None


def test_recognize_gut_has_no_subset_scan():
    # six-vertex subset scans for C6BAR and W54 would take minutes here
    g = gen_class_member(3, "gut", 15, 60)
    t0 = time.perf_counter()
    assert recognize_gut(g).member
    assert time.perf_counter() - t0 < 10.0


def _twin_expansion(rng: random.Random, g: Graph) -> Graph:
    """g with each vertex blown up into a clique of 1-3 true twins, the
    labels shuffled."""
    sizes = [rng.randint(1, 3) for _ in range(g.n)]
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    it = iter(labels)
    copies = [[next(it) for _ in range(size)] for size in sizes]
    edges = [(a, b) for c in copies for i, a in enumerate(c) for b in c[i + 1 :]]
    edges += [(a, b) for u, v in g.edges() for a in copies[u] for b in copies[v]]
    return Graph(len(labels), edges)


def test_twin_quotient_searches_match_direct_searches():
    rng = random.Random(2017)
    found = {K23: 0, C6BAR: 0, W54: 0, CAP: 0, LONG_HOLE: 0}
    for trial in range(1000):
        # every other base graph is dense enough for C6BAR to turn up
        if trial % 2:
            base = rand_graph(rng, rng.randrange(8, 12), rng.uniform(0.55, 0.7))
        else:
            base = rand_graph(rng, rng.randrange(4, 10), rng.uniform(0.2, 0.9))
        g = _twin_expansion(rng, base)
        search = classes._twin_quotient_search(g)
        for kind, got, want in (
            (K23, search(find_small_obstruction, K23), find_small_obstruction(g, K23)),
            (C6BAR, search(find_small_obstruction, C6BAR), find_small_obstruction(g, C6BAR)),
            (W54, search(find_small_obstruction, W54), find_small_obstruction(g, W54)),
            (CAP, search(find_cap), find_cap(g)),
            (LONG_HOLE, search(find_long_hole), find_long_hole(g)),
        ):
            assert got == want, (kind, trial, list(g.edges()))
            found[kind] += got is not None
    assert all(count >= 100 for count in found.values()), found


def test_gut_and_gutcap_recognize_a_large_clique_quickly():
    g = complete_graph(300)
    for recognize in (recognize_gut, recognize_gutcap):
        t0 = time.perf_counter()
        assert recognize(g).member
        assert time.perf_counter() - t0 < 1.0, recognize.__name__


def test_recognize_bu_h_pieces():
    # holes are hyperholes with one vertex per part, in cyclic order from
    # the least vertex; K1, K2bar and path unions are chordal pieces
    def pieces(g):
        got = recognize_bu_h(g)
        return None if got is None else [(piece.family, piece.parts) for piece in got]

    assert pieces(cycle_graph(5)) == [(classes.HYPERHOLE, tuple(1 << v for v in range(5)))]
    assert pieces(cycle_graph(6)) == [(classes.HYPERHOLE, tuple(1 << v for v in range(6)))]
    assert pieces(join_graphs(cycle_graph(7), complete_graph(2))) == [
        (classes.HYPERHOLE, tuple(1 << v for v in range(7))),
        (classes.CHORDAL, (1 << 7,)),
        (classes.CHORDAL, (1 << 8,)),
    ]
    assert pieces(complete_multipartite([2, 2, 1])) == [
        (classes.CHORDAL, (0b11,)),
        (classes.CHORDAL, (0b1100,)),
        (classes.CHORDAL, (0b10000,)),
    ]
    paths = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    assert pieces(paths) == [(classes.CHORDAL, (0b1111111,))]
    assert pieces(join_graphs(paths, complete_graph(1))) == [(classes.CHORDAL, (0b1111111,)), (classes.CHORDAL, (1 << 7,))]

    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert recognize_bu_h(k23) is None
    house = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)])
    assert recognize_bu_h(house) is None
    bull = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    assert recognize_bu_h(bull) is None


@given(st.integers(0, 2**30), st.data())
def test_gu_solvers_match_brute(seed, data):
    g = gen_class_member(seed, "gu", pieces=2, max_n=11)
    ws = tuple(data.draw(st.integers(-4, 9)) for _ in range(g.n))
    wg = WeightedGraph(g, ws)
    (cv, clique), (sv, stable) = mwc_mwss_gu(wg)
    assert is_clique(g, clique) and sum(ws[v] for v in clique) == cv
    assert is_stable_set(g, stable) and sum(ws[v] for v in stable) == sv
    assert cv == brute_omega_w(wg)
    assert sv == brute_alpha_w(wg)
    col = color_gu(g)
    assert is_proper_coloring(g, col)
    assert col.count == brute_chi(g)


@given(st.integers(0, 2**30), st.data())
def test_gutcap_solvers_match_brute(seed, data):
    g = gen_class_member(seed, "gutcap", pieces=2, max_n=11)
    ws = tuple(data.draw(st.integers(-4, 9)) for _ in range(g.n))
    wg = WeightedGraph(g, ws)
    (cv, clique), (sv, stable) = mwc_mwss_gutcap(wg)
    assert is_clique(g, clique) and sum(ws[v] for v in clique) == cv
    assert is_stable_set(g, stable) and sum(ws[v] for v in stable) == sv
    assert cv == brute_omega_w(wg)
    assert sv == brute_alpha_w(wg)
    col = color_gutcap(g)
    assert is_proper_coloring(g, col)
    assert col.count == brute_chi(g)


@given(st.integers(0, 2**30), st.data())
def test_gt_solvers_match_brute(seed, data):
    g = gen_class_member(seed, "gt", pieces=2, max_n=11)
    ws = tuple(data.draw(st.integers(-4, 9)) for _ in range(g.n))
    wg = WeightedGraph(g, ws)
    cv, clique = mwc_gt(wg)
    sv, stable = mwss_gt(wg)
    assert is_clique(g, clique) and sum(ws[v] for v in clique) == cv
    assert is_stable_set(g, stable) and sum(ws[v] for v in stable) == sv
    assert cv == brute_omega_w(wg)
    assert sv == brute_alpha_w(wg)


def _gt_basic_graph(rng: random.Random) -> tuple[str, Graph]:
    """A random gt basic graph of at most 18 vertices and its family: a
    ring with k from 4 to 8 parts blown up into twin classes of 1-3
    vertices, a 7-hyperantihole, or a complete graph."""
    roll = rng.random()
    if roll < 0.6:
        while True:
            k = rng.randint(4, 8)
            ring, _ = gen_ring(rng.randrange(2**30), k, [rng.randint(1, 2) for _ in range(k)])
            g = _twin_expansion(rng, ring)
            if g.n <= 18:
                return classes.RING, g
    if roll < 0.85:
        return classes.ANTIHOLE, gen_hyperantihole(0, 7, [rng.randint(1, 2) for _ in range(7)])
    return classes.CLIQUE, complete_graph(rng.randint(1, 8))


def _mixed_weights(rng: random.Random, n: int) -> tuple:
    """Weights from -4 to 9, as Fractions with small denominators half the
    time."""
    ws = [rng.randint(-4, 9) for _ in range(n)]
    if rng.random() < 0.5:
        ws = [Fraction(w, rng.randint(1, 3)) for w in ws]
    return tuple(ws)


def test_gt_leaf_solvers_match_brute_on_basic_graphs():
    rng = random.Random(1800)
    seen = {classes.RING: 0, classes.ANTIHOLE: 0, classes.CLIQUE: 0}
    for trial in range(300):
        family, g = _gt_basic_graph(rng)
        atom = classes._gt_leaf(g, g.full_mask())
        assert atom.family == family, (trial, g.adj)
        seen[family] += 1
        ws = _mixed_weights(rng, g.n)
        wg = WeightedGraph(g, ws)
        value, clique = atom.mwc(wg)
        assert is_clique(g, clique) and sum(ws[v] for v in clique) == value
        assert value == brute_omega_w(wg) == mwc_gt(wg)[0], (trial, g.adj, ws)
        assert mwss_gt(wg)[0] == brute_alpha_w(wg), (trial, g.adj, ws)
        # solve_mwss asks the leaf about subsets of its atom by mask
        for mask in [g.full_mask(), 0] + [rng.getrandbits(g.n) for _ in range(4)]:
            value, stable = atom.mwss(wg, mask)
            assert mask_of(stable) & ~mask == 0
            assert is_stable_set(g, stable) and sum(ws[v] for v in stable) == value
            if mask:
                sub, verts = induced_subgraph(g, iter_bits(mask))
                assert value == brute_alpha_w(WeightedGraph(sub, tuple(ws[v] for v in verts))), (trial, mask)
            else:
                assert value == 0
    assert min(seen.values()) >= 40, seen


def test_gt_ring_evidence_is_a_good_partition_with_chordal_remainders():
    # the ring solvers rest on two claims: the union of two consecutive
    # parts is chordal, and so is the ring minus any one part
    rng = random.Random(1801)
    rings = 0
    while rings < 60:
        family, g = _gt_basic_graph(rng)
        if family != classes.RING:
            continue
        rings += 1
        parts = classes._gt_leaf(g, g.full_mask()).parts
        k = len(parts)
        assert k >= 4 and verify_good_partition(g, [bits_list(p) for p in parts])
        for i, part in enumerate(parts):
            assert simplicial_order(g, g.full_mask() & ~part) is not None, (g.adj, i)
            assert simplicial_order(g, part | parts[(i + 1) % k]) is not None, (g.adj, i)


def test_gu_solver_accepts_fractional_weights():
    g = cycle_graph(5)
    wg = WeightedGraph(g, (0.5, 1.5, 0.25, 2.0, 1.0))
    (cv, _), (sv, stable) = mwc_mwss_gu(wg)
    assert cv == 3.0  # edge between vertices 3 and 4
    assert sv == 3.5  # vertices 1 and 3
    assert stable == {1, 3}


def test_solvers_reject_structural_failures():
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    with pytest.raises(NotInClassError):
        mwc_mwss_gu(WeightedGraph(k23, (1,) * 5))
    with pytest.raises(NotInClassError):
        color_gu(k23)

    # the W5 wheel is one atom, and the leaf test rejects it
    uw = join_graphs(cycle_graph(5), complete_graph(1))
    with pytest.raises(NotInClassError) as exc:
        mwc_gt(WeightedGraph(uw, (1,) * 6))
    assert str(exc.value) == recognize_gt(uw).reason

    # the Petersen graph is an atom and no ring
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = Graph(10, outer + inner + spokes)
    with pytest.raises(NotInClassError, match="true-twin quotient is not a ring"):
        mwss_gt(WeightedGraph(petersen, (1,) * 10))

    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(NotInClassError):
        color_gutcap(prism)
    with pytest.raises(NotInClassError):
        mwc_mwss_gutcap(WeightedGraph(prism, (1,) * 6))


def test_solvers_on_supersets_still_verify():
    # every closed neighborhood of the triangle-free Petersen graph is
    # chordal, but the graph is far outside the class: it is one atom and no
    # ring, so mwc_gt rejects it with the recognizer's leaf test
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = Graph(10, outer + inner + spokes)
    wg = WeightedGraph(petersen, tuple(range(1, 11)))
    rec = recognize_gt(petersen)
    assert not rec.member
    with pytest.raises(NotInClassError) as exc:
        mwc_gt(wg)
    assert str(exc.value) == rec.reason
    assert exc.value.rejection.leaf == rec.leaf


def test_chi_bound_witnesses():
    w1 = join_graphs(cycle_graph(7), complete_graph(1))
    assert recognize_gu(w1).member
    omega = brute_omega_w(WeightedGraph(w1, (1,) * w1.n))
    assert color_gu(w1).count == 4 == omega + 1

    w2 = join_graphs(cycle_graph(5), cycle_graph(5))
    assert recognize_gutcap(w2).member
    omega = brute_omega_w(WeightedGraph(w2, (1,) * w2.n))
    assert color_gutcap(w2).count == 6 == 3 * omega // 2

    c7bar = gen_hyperantihole(0, 7, (1,) * 7)
    assert recognize_gt(c7bar).member
    omega = brute_omega_w(WeightedGraph(c7bar, (1,) * 7))
    assert brute_chi(c7bar) == 4 == 3 * omega // 2


@given(st.integers(0, 2**30), st.sampled_from(CLASS_IDS), st.data())
def test_classes_are_hereditary(seed, cls, data):
    g = gen_class_member(seed, cls, pieces=2, max_n=12)
    assert _RECOGNIZERS[cls](g).member
    if g.n == 1:
        return
    drop = data.draw(st.integers(0, g.n - 1))
    sub, _ = induced_subgraph(g, [v for v in range(g.n) if v != drop])
    assert _RECOGNIZERS[cls](sub).member, (cls, seed, drop)


def _capped_ring(seed: int) -> Graph:
    rng = random.Random(seed)
    k = rng.randrange(4, 7)
    sizes = [rng.randrange(1, 3) for _ in range(k)]
    ring, partition = gen_ring(rng.randrange(2**30), k, sizes)
    i = rng.randrange(k)
    u = partition.parts[i][0]
    v = partition.parts[(i + 1) % k][0]
    # a triangle glued along a ring edge attaches a cap vertex
    return glue(ring, complete_graph(3), [u, v], [0, 1])


def test_double_star_cutset_properties():
    found = 0
    for seed in range(40):
        g = _capped_ring(seed)
        if g.n > 13:
            continue
        assert recognize_gut(g).member, seed
        cap = find_cap(g)
        if cap is None:
            continue
        found += 1
        cut = double_star_cutset_from_cap(g, cap)
        rim = cap.vertices
        k = len(rim)
        center = cap.center
        hits = [i for i in range(k) if g.has_edge(center, rim[i])]
        x, y = rim[hits[0]], rim[hits[1]]
        assert g.has_edge(x, y)
        closed = g.closed_mask(x) | g.closed_mask(y)
        assert all(closed >> v & 1 for v in cut)
        assert cut & set(rim) == {x, y}
        assert center not in cut
        # the cap vertex is separated from the rest of the rim
        interior = [v for v in rim if v not in (x, y)]
        left = mask_of(v for v in range(g.n) if v not in cut)
        comp = next(c for c in masked_components(g, left) if c >> center & 1)
        assert not any(comp >> v & 1 for v in interior)
        omega = brute_omega_w(WeightedGraph(g, (1,) * g.n))
        assert len(cut) <= comb(omega, 2) + 4 * omega - 7
    assert found >= 25


def test_double_star_cutset_validates_input():
    from tcfree.detectors import HOLE, Certificate, canonical_cycle

    g = _capped_ring(0)
    with pytest.raises(ValueError, match="cap certificate"):
        double_star_cutset_from_cap(g, Certificate(CAP, (0, 1, 2, 3), center=0))
    cap = find_cap(g)
    assert cap is not None
    with pytest.raises(ValueError, match="cap certificate"):
        double_star_cutset_from_cap(g, Certificate(HOLE, canonical_cycle(cap.vertices)))


@pytest.mark.parametrize(
    "cls,solve",
    [
        ("gu", lambda g: mwc_mwss_gu(WeightedGraph(g, (1,) * g.n))),
        ("gu", color_gu),
        ("gutcap", lambda g: mwc_mwss_gutcap(WeightedGraph(g, (1,) * g.n))),
        ("gutcap", color_gutcap),
        pytest.param("gt", lambda g: mwc_gt(WeightedGraph(g, (1,) * g.n)), id="gt-mwc_gt"),
        ("gt", lambda g: mwss_gt(WeightedGraph(g, (1,) * g.n))),
    ],
)
def test_solvers_decompose_once(monkeypatch, cls, solve):
    # one MCS-M+ pass over the whole graph per request (it records the
    # splits build_tree reads), and one basic-family test per atom
    calls = []
    original = decomposition._mcsm
    monkeypatch.setattr(decomposition, "_mcsm", lambda g, mask: calls.append(mask) or original(g, mask))
    tests = []
    leaf_test = {"gu": "recognize_bu_h", "gt": "_gt_leaf", "gutcap": "_gutcap_leaf"}[cls]
    original_test = getattr(classes, leaf_test)
    monkeypatch.setattr(classes, leaf_test, lambda *args: tests.append(args) or original_test(*args))
    for seed in range(6):
        g = gen_class_member(seed, cls, pieces=4, max_n=16)
        calls.clear()
        atoms = len(decomposition.build_tree(g).leaves())
        assert calls == [g.full_mask()], (seed, g.n)
        calls.clear()
        tests.clear()
        solve(g)
        assert calls == [g.full_mask()], (seed, g.n)
        assert len(tests) == atoms, (seed, g.n)


def test_solvers_reject_exactly_what_recognize_rejects():
    # the recognizer and the solvers of a class read one analysis, global
    # tests included, so each solver's rejection is the recognizer's:
    # reason, certificate, leaf and anticomponent
    def rejection(solver, arg):
        try:
            solver(arg)
        except NotInClassError as exc:
            return exc.rejection
        return None

    rng = random.Random(600)
    rejected = Counter()
    for _ in range(600):
        g = rand_graph(rng, rng.randrange(4, 11), rng.uniform(0.2, 0.9))
        wg = WeightedGraph(g, tuple(rng.randrange(-3, 10) for _ in range(g.n)))
        for recognize, solvers in (
            (recognize_gu, ((mwc_gu, wg), (mwss_gu, wg), (color_gu, g))),
            (recognize_gt, ((mwc_gt, wg), (mwss_gt, wg))),
            (recognize_gutcap, ((mwc_gutcap, wg), (mwss_gutcap, wg), (color_gutcap, g))),
        ):
            rec = recognize(g)
            for solver, arg in solvers:
                assert rejection(solver, arg) == (None if rec.member else rec), (solver.__name__, g.adj)
            if not rec.member:
                rejected[recognize.__name__, "leaf" if rec.certificate is None else rec.certificate.kind] += 1
    # most gutcap non-members fail the global tests, so few reach a leaf
    assert rejected["recognize_gu", "leaf"] >= 50 and rejected["recognize_gt", "leaf"] >= 50, rejected
    assert rejected["recognize_gutcap", "leaf"] >= 1, rejected
    assert rejected["recognize_gutcap", K23] >= 50 and rejected["recognize_gutcap", CAP] >= 50, rejected


def test_analysis_stops_at_the_first_failing_leaf():
    # a global rejection comes before the tree; otherwise the leaf function
    # runs on the leaves in tree order, and the leaves list holds its answers
    # up to the first rejection, which names the next leaf of the tree
    leaf_of = {"gut": classes._gut_leaf, "gu": classes._gu_leaf, "gt": classes._gt_leaf, "gutcap": classes._gutcap_leaf}
    seen = Counter()
    for g, _ in differential_graphs():
        for cls in CLASS_IDS:
            tree, leaves, rejection = classes.analyze(g, cls)
            assert (tree is None) == (rejection is not None and rejection.certificate is not None), (cls, g.adj)
            if tree is None:
                assert leaves == [] and not rejection.member and rejection.leaf is None
                seen[cls, "global"] += 1
                continue
            nodes = tree.leaves()
            assert leaves == [leaf_of[cls](g, node.mask) for node in nodes[: len(leaves)]], (cls, g.adj)
            assert not any(isinstance(got, Recognition) for got in leaves)
            if rejection is None:
                assert len(leaves) == len(nodes), (cls, g.adj)
                seen[cls, "member"] += 1
            else:
                failing = nodes[len(leaves)]
                assert rejection.leaf == frozenset(failing.vertices), (cls, g.adj)
                assert rejection == leaf_of[cls](g, failing.mask) and not rejection.member
                seen[cls, "leaf" if len(leaves) == 0 else "later leaf"] += 1
    # every class has members and rejections at a leaf after the first;
    # gut and gutcap reject most non-members by a global certificate
    assert min(seen[cls, kind] for cls in CLASS_IDS for kind in ("member", "later leaf")) >= 10, seen
    assert min(seen[cls, "global"] for cls in ("gut", "gutcap")) >= 100, seen


def test_leaf_tests_copy_no_atom(monkeypatch):
    # the leaf tests read each atom, anticomponent and twin class as a mask
    # of g, and a true-twin quotient is copied only where a search reads
    # it: gu and the gutcap leaves copy nothing, gt copies one per atom of
    # two or more twin classes, gut one per anticomponent of two or more
    # vertices, and the global searches of gut and gutcap one for the whole
    # graph, or none when no two vertices are twins
    def has_twins(g):
        return len(true_twin_partition(g)[1]) < g.n

    copies = []
    original = graphs.induced_subgraph

    def counted(*args):
        copies.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("tcfree") and getattr(module, "induced_subgraph", None) is original:
            monkeypatch.setattr(module, "induced_subgraph", counted)
    for seed in range(6):
        g = gen_class_member(seed, "gu", pieces=4, max_n=16)
        copies.clear()
        assert recognize_gu(g).member
        mwc_mwss_gu(WeightedGraph(g, (1,) * g.n))
        assert copies == [], (seed, g.n)
        g = gen_class_member(seed, "gut", pieces=4, max_n=16)
        acs = sum(ac.bit_count() > 1 for node in build_tree(g).leaves() for ac in anticomponents(g, node.mask))
        copies.clear()
        assert recognize_gut(g).member
        assert len(copies) == has_twins(g) + acs, (seed, g.n)
        g = gen_class_member(seed, "gutcap", pieces=4, max_n=16)
        copies.clear()
        assert recognize_gutcap(g).member
        mwc_mwss_gutcap(WeightedGraph(g, (1,) * g.n))
        assert len(copies) == 2 * has_twins(g), (seed, g.n)
        g = gen_class_member(seed, "gt", pieces=4, max_n=16)
        quotients = sum(len(true_twin_partition(g, node.mask)[0]) > 1 for node in build_tree(g).leaves())
        copies.clear()
        assert recognize_gt(g).member
        assert len(copies) == quotients, (seed, g.n)
    # a clique atom is a clique piece with no quotient
    copies.clear()
    assert recognize_gt(complete_graph(6)).member
    assert mwc_gt(WeightedGraph(complete_graph(6), (1,) * 6))[0] == 6
    assert copies == []
    # no two vertices of a path or a long cycle are twins, so no global
    # copy; a long cycle is one atom and one anticomponent, whose quotient
    # the leaf tests of gut and gt copy once
    path, cycle = path_graph(40), cycle_graph(40)
    for recognize, on_path, on_cycle in ((recognize_gut, 0, 1), (recognize_gt, 0, 1), (recognize_gutcap, 0, 0)):
        for g, expected in ((path, on_path), (cycle, on_cycle)):
            copies.clear()
            assert recognize(g).member
            assert len(copies) == expected, (recognize.__name__, g.m)


# The copy-based leaf tests the classes had before their leaf functions read
# the atom as a mask of g: each copies the atom with induced_subgraph,
# copies every anticomponent again and maps each answer back through the
# copies' vertex lists. Kept as the references the mask versions are checked
# against.


def _ref_anticomponents(g):
    return [frozenset(iter_bits(m)) for m in masked_components(complement(g), g.full_mask())]


def _ref_gut_leaf(g, atom):
    """The leaf's Join pieces as (family, parts)."""
    sub, verts = induced_subgraph(g, atom)
    out = []
    for ac in _ref_anticomponents(sub):
        h, hverts = induced_subgraph(sub, ac)
        mask = mask_of(verts[i] for i in hverts)
        ring = recognize_ring(h)
        if h.n == 1:
            out.append((classes.CLIQUE, (mask,)))
        elif ring is not None and ring.k >= 5:
            out.append((classes.RING, tuple(mask_of(verts[hverts[i]] for i in p) for p in ring.parts)))
        elif classes._twin_quotient_search(h)(find_long_hole) is None:
            out.append((classes.LONG_HOLE_FREE, (mask,)))
        elif not any(is_stable_set(h, t) for t in combinations(range(h.n), 3)):
            out.append((classes.ALPHA2, (mask,)))
        else:
            return Recognition(
                False,
                reason="leaf anticomponent is not a long ring, contains a long hole, "
                "and has a stable set of size three",
                leaf=frozenset(verts),
                anticomponent=frozenset(verts[i] for i in ac),
            )
    return out


def _ref_path_forest(g):
    if any(g.degree(v) > 2 for v in range(g.n)):
        return False
    return g.m == g.n - len(masked_components(g, g.full_mask()))


def _ref_recognize_bu_h(g):
    """The pieces of g as (family, parts), ordered by least vertex: the
    universal vertices, and the rest as K2bar pieces, a long hole or a
    path union."""
    n = g.n
    if all(g.degree(v) >= n - 2 for v in range(n)):
        return [(classes.CHORDAL, (mask_of(ac),)) for ac in _ref_anticomponents(g)]
    rest = [v for v in range(n) if g.degree(v) < n - 1]
    sub, _ = induced_subgraph(g, rest)
    order = _single_cycle_order(sub)
    if order is not None and len(order) >= 5:
        piece = (classes.HYPERHOLE, tuple(1 << rest[i] for i in order))
    elif sub.n >= 3 and _ref_path_forest(sub):
        piece = (classes.CHORDAL, (mask_of(rest),))
    else:
        return None
    pieces = [(classes.CHORDAL, (1 << u,)) for u in range(n) if g.degree(u) == n - 1]
    pieces.append(piece)
    pieces.sort(key=lambda piece: min(iter_bits(sum(piece[1]))))
    return pieces


def _ref_gu_leaf(g, atom):
    """The leaf's Join pieces as (family, parts)."""
    sub, verts = induced_subgraph(g, atom)
    pieces = _ref_recognize_bu_h(sub)
    if pieces is None:
        return Recognition(
            False,
            reason="leaf is not an expansion of a long hole or a path union "
            "by universal and pairwise-nonadjacent vertices",
            leaf=frozenset(verts),
        )
    return [(family, tuple(mask_of(verts[i] for i in iter_bits(p)) for p in parts)) for family, parts in pieces]


def _ref_gutcap_leaf(g, atom):
    """The leaf's Join pieces as (family, parts)."""
    sub, verts = induced_subgraph(g, atom)
    out = []
    for ac in _ref_anticomponents(sub):
        h, hverts = induced_subgraph(sub, ac)
        mask = mask_of(verts[i] for i in hverts)
        if is_chordal(h):
            out.append((classes.CHORDAL, (mask,)))
            continue
        parts = recognize_hyperhole(h)
        if parts is None or len(parts) < 5:
            return Recognition(
                False,
                reason="leaf anticomponent is neither chordal nor a long hyperhole",
                leaf=frozenset(verts),
                anticomponent=frozenset(verts[i] for i in ac),
            )
        out.append((classes.HYPERHOLE, tuple(mask_of(verts[hverts[i]] for i in iter_bits(p)) for p in parts)))
    return out


def _cyclic_form(parts):
    """A cycle of parts read from the part with the least vertex toward its
    neighbour with the lesser least vertex: one form for every rotation and
    reflection."""
    low = [p & -p for p in parts]
    i = low.index(min(low))
    forward = parts[i:] + parts[:i]
    backward = forward[:1] + forward[:0:-1]
    return min(forward, backward, key=lambda ps: ps[1] & -ps[1])


def _outcome(leaf, g, atom):
    """What a leaf test answers: its rejection with reason, leaf and
    anticomponent, or its Join as (family, parts) per piece, a ring's parts
    in their cyclic form: the walk that finds them starts at a vertex of
    highest degree, which may lie in another part of a copy than of a
    quotient."""
    got = leaf(g, atom)
    if isinstance(got, Recognition):
        return "rejected", got.reason, got.leaf, got.anticomponent
    if not isinstance(got, list):
        got = [(piece.family, piece.parts) for piece in got.pieces]
    return "accepted", [(family, _cyclic_form(parts) if family == classes.RING else parts) for family, parts in got]


def _leaf_differential_graphs(rng):
    """Random graphs with n from 4 to 12, twin expansions of random graphs,
    of holes and of joins of a hole with a small graph, and class members,
    each with the vertex masks to test: the whole graph and its atoms."""
    for trial in range(2400):
        kind = trial % 6
        if kind < 2:
            g = rand_graph(rng, rng.randrange(4, 13), rng.uniform(0.15, 0.9))
        elif kind == 2:
            g = _twin_expansion(rng, rand_graph(rng, rng.randrange(4, 8), rng.uniform(0.2, 0.9)))
        elif kind == 3:
            hole = cycle_graph(rng.randrange(4, 9))
            other = rand_graph(rng, rng.randrange(1, 4), rng.random())
            g = _twin_expansion(rng, join_graphs(hole, other) if rng.random() < 0.5 else hole)
        else:
            cls = CLASS_IDS[trial // 6 % 4]
            g = gen_class_member(rng.randrange(2**30), cls, pieces=rng.randrange(1, 4), max_n=rng.randrange(8, 19))
        atoms = [node.mask for node in build_tree(g).leaves()]
        yield g, list(dict.fromkeys([g.full_mask()] + atoms))


def test_mask_leaf_tests_match_copy_based_references():
    rng = random.Random(1900)
    seen = {"rejected-ac": 0, "rejected-leaf": 0, "hyperhole-piece": 0, "hyperhole": 0, "cycle": 0}
    graphs_run = 0
    for g, masks in _leaf_differential_graphs(rng):
        graphs_run += 1
        for mask in masks:
            atom = bits_list(mask)
            for leaf, ref in (
                (classes._gut_leaf, _ref_gut_leaf),
                (classes._gu_leaf, _ref_gu_leaf),
                (classes._gutcap_leaf, _ref_gutcap_leaf),
            ):
                got = _outcome(leaf, g, mask)
                assert got == _outcome(ref, g, atom), (leaf.__name__, g.adj, mask)
                if got[0] == "rejected":
                    seen["rejected-ac" if got[3] is not None else "rejected-leaf"] += 1
                else:
                    seen["hyperhole-piece"] += sum(family == classes.HYPERHOLE for family, _ in got[1])
        # the hyperhole and cycle tests on random masks as well
        for mask in masks + [rng.randrange(1, 1 << g.n) for _ in range(3)]:
            sub, verts = induced_subgraph(g, bits_list(mask))
            parts = recognize_hyperhole(sub)
            if parts is not None:
                parts = [mask_of(verts[i] for i in iter_bits(p)) for p in parts]
                seen["hyperhole"] += 1
            assert recognize_hyperhole(g, mask) == parts, (g.adj, mask)
            order = _single_cycle_order(sub)
            if order is not None:
                order = [verts[i] for i in order]
                seen["cycle"] += 1
            assert _single_cycle_order(g, mask) == order, (g.adj, mask)
    assert graphs_run >= 2000
    assert min(seen.values()) >= 50, seen


def _complete(g, a, b):
    return all(b & ~g.adj[v] == 0 for v in iter_bits(a))


def _anticomplete(g, a, b):
    return all(g.adj[v] & b == 0 for v in iter_bits(a))


def _check_piece(g, piece):
    """Check a piece's evidence against its family from the graph alone."""
    parts = piece.parts
    k = len(parts)
    if piece.family in (classes.CLIQUE, classes.CHORDAL, classes.LONG_HOLE_FREE, classes.ALPHA2):
        assert k == 1
        sub, _ = induced_subgraph(g, bits_list(parts[0]))
        if piece.family == classes.CLIQUE:
            assert is_clique_mask(g, parts[0])
        elif piece.family == classes.CHORDAL:
            assert simplicial_order(g, parts[0]) is not None
        elif piece.family == classes.LONG_HOLE_FREE:
            assert sub.n > 13 or next(enumerate_holes(sub, min_len=5), None) is None
        else:
            assert sub.n > 20 or not any(is_stable_set(sub, t) for t in combinations(range(sub.n), 3))
    elif piece.family == classes.RING:
        sub, verts = induced_subgraph(g, bits_list(piece.mask))
        pos = {v: i for i, v in enumerate(verts)}
        assert verify_good_partition(sub, [[pos[v] for v in iter_bits(p)] for p in parts])
    else:
        # hyperhole: consecutive parts complete, the others anticomplete;
        # antihole: the other way round
        assert k >= 5 if piece.family == classes.HYPERHOLE else k == 7, piece.family
        assert all(is_clique_mask(g, p) for p in parts)
        near, far = (_complete, _anticomplete) if piece.family == classes.HYPERHOLE else (_anticomplete, _complete)
        for i in range(k):
            for j in range(i + 1, k):
                assert (near if j - i in (1, k - 1) else far)(g, parts[i], parts[j]), (piece, i, j)


def _triangle_free_with_c5(rng: random.Random) -> Graph:
    """A random triangle-free graph on 5 to 12 vertices that holds an
    induced C5: a C5 plus random edges that close no triangle (a chord of
    the C5 would close one)."""
    n = rng.randrange(5, 13)
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in [(i, (i + 1) % 5) for i in range(5)] + pairs[: rng.randrange(len(pairs) + 1)]:
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, [(u, v) for u in range(n) for v in iter_bits(adj[u]) if u < v])


def test_leaf_pieces_carry_their_evidence():
    # every piece the leaf tests return is checked without the classes'
    # solvers: the parts are nonempty and disjoint, the pieces partition the
    # atom and are complete to each other, and each family's structure
    # holds. The complements of triangle-free graphs with a C5 have a long
    # hole and alpha <= 2, which is where gut's alpha2 pieces come from
    rng = random.Random(2000)
    members = (
        (g, [node.mask for node in build_tree(g).leaves()])
        for g in (gen_class_member(seed, cls, pieces=4, max_n=40) for seed in range(60) for cls in CLASS_IDS)
    )
    alpha2 = (
        (g, [g.full_mask()] + [node.mask for node in build_tree(g).leaves()])
        for g in (complement(_triangle_free_with_c5(rng)) for _ in range(100))
    )
    seen = Counter()
    for g, masks in list(_leaf_differential_graphs(rng)) + list(members) + list(alpha2):
        for atom in masks:
            for leaf in (classes._gut_leaf, classes._gu_leaf, classes._gt_leaf, classes._gutcap_leaf):
                got = leaf(g, atom)
                if isinstance(got, Recognition):
                    continue
                pieces = got.pieces if isinstance(got, decomposition.Join) else (got,)
                union = 0
                for piece in pieces:
                    whole = 0
                    for part in piece.parts:
                        assert part and whole & part == 0, piece
                        whole |= part
                    assert piece.mask == whole and union & whole == 0, (leaf.__name__, g.adj, atom)
                    union |= whole
                    _check_piece(g, piece)
                    assert leaf != classes._gut_leaf or piece.family != classes.RING or len(piece.parts) >= 5
                    seen[leaf.__name__, piece.family] += 1
                assert union == atom, (leaf.__name__, g.adj, atom)
                for i, a in enumerate(pieces):
                    for b in pieces[i + 1 :]:
                        assert _complete(g, a.mask, b.mask), (leaf.__name__, g.adj, atom)
    # chordal and hyperhole pieces from gu and gutcap; cliques, rings and
    # antiholes from gt; cliques, rings, long-hole-free and alpha2 pieces
    # from gut
    assert len(seen) == 11 and min(seen.values()) >= 50, seen


def test_gut_evidence_pieces_have_no_solvers():
    # gut has no solvers, so its evidence families must not fall through to
    # another family's solver
    wg = WeightedGraph(cycle_graph(5), (1,) * 5)
    for family in (classes.LONG_HOLE_FREE, classes.ALPHA2):
        piece = classes.Piece(family, (wg.graph.full_mask(),))
        for solve in (piece.mwc, lambda wg: piece.mwss(wg, wg.graph.full_mask()), lambda wg: piece.color(wg.graph)):
            with pytest.raises(ValueError, match=f"for a {family} piece"):
                solve(wg)
