"""Acceptance checks.

Each test is one end-to-end guarantee, checked against brute force at
desk scale. One pass/fail line per criterion under pytest -v.
"""

import json
import random
import time
import tracemalloc
from itertools import combinations
from math import comb

from conftest import rand_graph
from tcfree.chordal import chordal_color, chordal_mwc, chordal_mwss, simplicial_order
from tcfree.classes import (
    HYPERHOLE,
    Piece,
    color_gu,
    color_gutcap,
    double_star_cutset_from_cap,
    mwc_gt,
    mwc_gu,
    mwc_mwss_gu,
    mwc_mwss_gutcap,
    mwss_gt,
    recognize_gt,
    recognize_gu,
    recognize_gut,
    recognize_gutcap,
)
from tcfree.cli import main
from tcfree.decomposition import build_tree, glue
from tcfree.detectors import (
    CAP,
    PRISM,
    PROPER_WHEEL,
    PYRAMID,
    THETA,
    TWIN_WHEEL,
    UNIVERSAL_WHEEL,
    check_certificate,
    find_cap,
    find_long_hole,
)
from tcfree.generators import (
    complete_graph,
    cycle_graph,
    gen_chordal,
    gen_class_member,
    gen_hyperhole,
    gen_ring,
    join_graphs,
    path_graph,
)
from tcfree.graphs import (
    Coloring,
    Graph,
    WeightedGraph,
    induced_subgraph,
    is_clique,
    is_proper_coloring,
    is_stable_set,
    mask_of,
    masked_components,
)
from tcfree.oracles import (
    brute_alpha_w,
    brute_chi,
    brute_clique_cutset_exists,
    brute_cycle_weighted_chromatic,
    brute_is_ring,
    brute_omega_w,
    enumerate_holes,
    iter_all_graphs,
    truemper_present,
)
from tcfree.rings import recognize_hyperhole, recognize_ring, verify_good_partition, weighted_cycle_color

_RECOGNIZERS = {
    "gut": recognize_gut,
    "gu": recognize_gu,
    "gt": recognize_gt,
    "gutcap": recognize_gutcap,
}

_FORBIDDEN = {
    "gut": {THETA, PYRAMID, PRISM, PROPER_WHEEL},
    "gu": {THETA, PYRAMID, PRISM, PROPER_WHEEL, TWIN_WHEEL},
    "gt": {THETA, PYRAMID, PRISM, PROPER_WHEEL, UNIVERSAL_WHEEL},
    "gutcap": {THETA, PYRAMID, PRISM, PROPER_WHEEL, CAP},
}


def _unit(g: Graph) -> WeightedGraph:
    return WeightedGraph(g, (1,) * g.n)


def test_criterion_01_recognizers_match_forbidden_subgraph_scan():
    for g in iter_all_graphs(6):
        present = truemper_present(g)
        for cls, rec in _RECOGNIZERS.items():
            expected = not (present & _FORBIDDEN[cls])
            assert rec(g).member == expected, (cls, list(g.edges()))
    rng = random.Random(101)
    for _ in range(500):
        g = rand_graph(rng, rng.randrange(7, 10), rng.uniform(0.2, 0.9))
        present = truemper_present(g)
        for cls, rec in _RECOGNIZERS.items():
            expected = not (present & _FORBIDDEN[cls])
            assert rec(g).member == expected, (cls, list(g.edges()))


def test_criterion_02_ring_recognition_matches_brute():
    def check(g):
        brute = brute_is_ring(g)
        found = recognize_ring(g)
        assert (found is not None) == (brute is not None), list(g.edges())
        if found is not None:
            assert verify_good_partition(g, found.parts)

    for n in range(1, 7):
        for g in iter_all_graphs(n):
            check(g)
    rng = random.Random(202)
    for _ in range(300):
        check(rand_graph(rng, rng.randrange(7, 10), rng.uniform(0.2, 0.9)))


def test_criterion_03_generated_rings_have_ring_structure():
    rng = random.Random(303)
    for _ in range(200):
        k = rng.randrange(4, 9)
        sizes = [1] * k
        for _ in range(12 - k):
            sizes[rng.randrange(k)] += 1
        g, partition = gen_ring(rng.randrange(2**30), k, sizes)
        assert g.n <= 12
        present = truemper_present(g)
        assert not present & {THETA, PYRAMID, PRISM, PROPER_WHEEL, UNIVERSAL_WHEEL}
        for hole in enumerate_holes(g):
            assert len(hole) == k
        for part in partition.parts:
            keep = [v for v in range(g.n) if v not in set(part)]
            sub, _ = induced_subgraph(g, keep)
            assert simplicial_order(sub) is not None


def test_criterion_04_chordal_solvers_match_brute():
    rng = random.Random(404)
    for _ in range(500):
        n = rng.randrange(1, 13)
        g = gen_chordal(rng.randrange(2**30), n, rng.random())
        omega = brute_omega_w(_unit(g))
        col = chordal_color(g)
        assert is_proper_coloring(g, col)
        assert col.count == brute_chi(g) == omega

        ws = tuple(rng.randrange(-4, 10) for _ in range(n))
        wg = WeightedGraph(g, ws)
        cv, clique = chordal_mwc(wg)
        sv, stable = chordal_mwss(wg)
        assert is_clique(g, clique) and sum(ws[v] for v in clique) == cv
        assert is_stable_set(g, stable) and sum(ws[v] for v in stable) == sv
        assert cv == brute_omega_w(wg)
        assert sv == brute_alpha_w(wg)


def test_criterion_05_class_solvers_match_brute_on_glued_members():
    rng = random.Random(505)
    for cls in ("gu", "gt", "gutcap"):
        for trial in range(300):
            g = gen_class_member(
                rng.randrange(2**30), cls, pieces=rng.randrange(1, 4), max_n=14
            )
            ws = [rng.randrange(-4, 10) for _ in range(g.n)]
            if trial % 3 == 0:
                for v in range(g.n):
                    if rng.random() < 0.3:
                        ws[v] = 0
            wg = WeightedGraph(g, tuple(ws))
            if cls == "gu":
                (cv, clique), (sv, stable) = mwc_mwss_gu(wg)
            elif cls == "gutcap":
                (cv, clique), (sv, stable) = mwc_mwss_gutcap(wg)
            else:
                cv, clique = mwc_gt(wg)
                sv, stable = mwss_gt(wg)
            assert is_clique(g, clique) and sum(ws[v] for v in clique) == cv
            assert is_stable_set(g, stable) and sum(ws[v] for v in stable) == sv
            assert cv == brute_omega_w(wg), (cls, trial)
            assert sv == brute_alpha_w(wg), (cls, trial)
            if cls != "gt" and trial % 2 == 0:
                col = color_gu(g) if cls == "gu" else color_gutcap(g)
                assert is_proper_coloring(g, col)
                assert col.count == brute_chi(g), (cls, trial)


def test_criterion_06_decomposition_tree_invariants():
    rng = random.Random(606)
    for _ in range(500):
        n = rng.randrange(2, 15)
        g = rand_graph(rng, n, rng.uniform(0.1, 0.95))
        tree = build_tree(g)
        assert len(tree.nodes) <= 2 * n - 1
        seen_edges = set()
        for node in tree.nodes:
            if node.kind == "leaf":
                atom, back = induced_subgraph(g, node.vertices)
                assert brute_clique_cutset_exists(atom) is None
                seen_edges.update(
                    (min(back[u], back[v]), max(back[u], back[v])) for u, v in atom.edges()
                )
            else:
                cut = sorted(node.cutset)
                assert all(g.has_edge(u, v) for u, v in combinations(cut, 2))
        assert seen_edges == set(g.edges())


def test_criterion_07_hyperhole_coloring_matches_brute():
    rng = random.Random(707)
    for _ in range(300):
        k = rng.randrange(4, 9)
        sizes = [1] * k
        for _ in range(12 - k):
            sizes[rng.randrange(k)] += 1
        g = gen_hyperhole(rng.randrange(2**30), k, sizes)
        col = hyperhole_color_checked(g)
        omega = brute_omega_w(_unit(g))
        assert col.count == brute_chi(g) <= (3 * omega) // 2

    for _ in range(100):
        k = rng.randrange(3, 8)
        mults = [1] * k
        for _ in range(rng.randrange(0, 13 - k)):
            mults[rng.randrange(k)] += 1
        classes, count = weighted_cycle_color(k, mults)
        assert count == brute_cycle_weighted_chromatic(k, tuple(mults))
        for i in range(k):
            assert len(classes[i]) == mults[i]
            assert not set(classes[i]) & set(classes[(i + 1) % k])
        for cols in classes:
            assert all(1 <= c <= count for c in cols)


def hyperhole_color_checked(g):
    parts = recognize_hyperhole(g)
    colors, count = Piece(HYPERHOLE, tuple(parts)).color(g)
    col = Coloring(tuple(colors[v] for v in range(g.n)), count)
    assert is_proper_coloring(g, col)
    return col


def test_criterion_08_chi_bounds_hold_and_witnesses_are_tight(capsys):
    for cls in ("gu", "gt", "gutcap", "gut", "hyperantihole7"):
        code = main(
            ["verify-chi", "--class", cls, "--trials", "200", "--max-n", "12", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0, cls
        data = json.loads(out)
        assert data["all_ok"] is True and len(data["results"]) == 200

    w1 = join_graphs(cycle_graph(7), complete_graph(1))
    assert brute_chi(w1) == 4 == brute_omega_w(_unit(w1)) + 1
    w2 = join_graphs(cycle_graph(5), cycle_graph(5))
    assert brute_chi(w2) == 6 == (3 * brute_omega_w(_unit(w2))) // 2


def _cap_exists_brute(g: Graph) -> bool:
    for hole in enumerate_holes(g):
        k = len(hole)
        on_hole = set(hole)
        for c in range(g.n):
            if c in on_hole:
                continue
            hits = [i for i in range(k) if g.has_edge(c, hole[i])]
            if len(hits) == 2:
                i, j = hits
                if (i + 1) % k == j or (j + 1) % k == i:
                    return True
    return False


def test_criterion_09_hole_and_cap_detectors_match_exhaustive_search():
    def check(g):
        holes = list(enumerate_holes(g))
        long_cert = find_long_hole(g)
        assert (long_cert is not None) == any(len(h) >= 5 for h in holes)
        if long_cert is not None:
            assert check_certificate(g, long_cert)
        cap_cert = find_cap(g)
        assert (cap_cert is not None) == _cap_exists_brute(g), list(g.edges())
        if cap_cert is not None:
            assert check_certificate(g, cap_cert)

    for n in range(1, 7):
        for g in iter_all_graphs(n):
            check(g)
    rng = random.Random(909)
    for _ in range(300):
        check(rand_graph(rng, rng.randrange(7, 11), rng.uniform(0.15, 0.9)))


def test_criterion_10_cap_cutset_is_a_small_double_star():
    rng = random.Random(1010)
    for _ in range(100):
        k = rng.randrange(4, 7)
        sizes = [rng.randrange(1, 3) for _ in range(k)]
        ring, partition = gen_ring(rng.randrange(2**30), k, sizes)
        i = rng.randrange(k)
        u = partition.parts[i][0]
        v = partition.parts[(i + 1) % k][0]
        g = glue(ring, complete_graph(3), [u, v], [0, 1])
        assert g.n <= 14
        assert recognize_gut(g).member
        cap = find_cap(g)
        assert cap is not None
        cut = double_star_cutset_from_cap(g, cap)

        rim = cap.vertices
        center = cap.center
        hits = [w for w in rim if g.has_edge(center, w)]
        x, y = hits
        assert g.has_edge(x, y)
        star = g.closed_mask(x) | g.closed_mask(y)
        assert all(star >> w & 1 for w in cut)
        left = mask_of(w for w in range(g.n) if w not in cut)
        side = next(m for m in masked_components(g, left) if m >> center & 1)
        interior = [w for w in rim if w not in (x, y)]
        assert not any(side >> w & 1 for w in interior)
        omega = brute_omega_w(_unit(g))
        assert len(cut) <= comb(omega, 2) + 4 * omega - 7


def test_criterion_11_large_instances_stay_fast():
    rng = random.Random(1111)
    sizes = [rng.randrange(5, 16) for _ in range(50)]
    total = sum(sizes)
    sizes[0] += 500 - total
    g, _ = gen_ring(11, 50, sizes)
    assert g.n == 500
    t0 = time.perf_counter()
    found = recognize_ring(g)
    assert found is not None
    assert time.perf_counter() - t0 < 1.0

    ch = gen_chordal(11, 300, 0.6)
    t0 = time.perf_counter()
    tree = build_tree(ch)
    assert time.perf_counter() - t0 < 2.0
    assert len(tree.nodes) <= 2 * ch.n - 1


def _best_of(runs, solve, arg) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        solve(arg)
        times.append(time.perf_counter() - t0)
    return min(times)


def test_gt_solvers_solve_atoms_by_family_quickly():
    # one kernel per part pair or per vertex of the smallest part, not one
    # chordal kernel per closed neighborhood or per vertex of the atom
    assert _best_of(1, mwc_gt, _unit(complete_graph(300))) < 1.0
    member = _unit(gen_class_member(3, "gt", 120, 480))
    assert _best_of(1, mwc_gt, member) < 1.0
    assert _best_of(1, mwss_gt, member) < 1.0


def test_leaf_colorers_color_their_atom_only():
    # a path of 4000 vertices is 3999 atoms: coloring them stays about as
    # cheap as the clique solver on the same tree, not quadratic
    path = path_graph(4000)
    assert _best_of(3, color_gu, path) < 1.5 * _best_of(3, mwc_gu, _unit(path))


def test_recognizing_a_long_path_keeps_no_quadratic_tree():
    # the 3999 chain nodes of a 4000-vertex path hold masks, not vertex
    # tuples: the tuples peaked at 71 MB, the masks at about 6 MB
    path = path_graph(4000)
    tracemalloc.start()
    try:
        assert recognize_gu(path).member
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
