"""Tests of the benchmark itself: the reference code against tcfree's
brute-force oracles on graphs of up to 12 vertices, and every workload on a
reduced slice, end to end.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tcfree  # noqa: E402
from tcfree import oracles  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _random_graph(rng: random.Random, n: int) -> tcfree.Graph:
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    return tcfree.Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def _ref_of(g: tcfree.Graph, weights=None) -> ref.RefGraph:
    weights = weights or [1] * g.n
    return ref.RefGraph(g.n, tuple(g.adj), tuple(Fraction(w) for w in weights))


def test_cliques_match_the_oracles():
    rng = random.Random(5)
    for _ in range(150):
        g = _random_graph(rng, rng.randint(1, 12))
        weights = [Fraction(rng.randint(-30, 60), rng.choice((1, 10))) for _ in range(g.n)]
        got = ref.maximal_cliques(g.adj)
        brute = {
            m for m in range(1, 1 << g.n)
            if ref.is_clique(g.adj, ref.bits(m))
            and not any(ref.is_clique(g.adj, ref.bits(m | 1 << v)) for v in range(g.n) if not m >> v & 1)
        }
        assert sorted(got) == sorted(brute)
        assert ref.max_weight_clique(_ref_of(g, weights)) == oracles.brute_omega_w(tcfree.WeightedGraph(g, tuple(weights)))
        assert ref.clique_number(_ref_of(g)) == oracles.brute_omega_w(tcfree.WeightedGraph(g, (1,) * g.n))


def test_set_checks_match_the_library():
    rng = random.Random(6)
    for _ in range(150):
        g = _random_graph(rng, rng.randint(1, 12))
        vs = rng.sample(range(g.n), rng.randint(0, g.n))
        assert ref.is_clique(g.adj, vs) == tcfree.graphs.is_clique(g, vs)
        assert ref.is_stable(g.adj, vs) == tcfree.graphs.is_stable_set(g, vs)
        colours = [rng.randint(1, 4) for _ in range(g.n)]
        coloring = tcfree.Coloring(tuple(colours), len(set(colours)))
        assert ref.is_proper_colouring(_ref_of(g), colours) == tcfree.is_proper_coloring(g, coloring)


def test_text_format_matches_the_parser():
    rng = random.Random(7)
    for _ in range(50):
        g = _random_graph(rng, rng.randint(1, 12))
        weights = [f"{rng.uniform(-1, 3):.1f}" if rng.random() < 0.5 else str(rng.randint(-3, 9)) for _ in range(g.n)]
        text = ref.format_text(g.n, g.edges(), weights)
        parsed = tcfree.parse_graph(text)
        mine = ref.parse_text(text)
        assert parsed.graph.adj == mine.adj
        assert [Fraction(w) for w in weights] == list(mine.weights)


@pytest.mark.parametrize("cls", ["gu", "gutcap"])
def test_chi_bounds_hold_on_members(cls):
    for seed in range(25):
        g = tcfree.gen_class_member(seed, cls, pieces=3, max_n=11)
        omega = ref.clique_number(_ref_of(g))
        assert omega <= oracles.brute_chi(g) <= ref.chi_bound(cls, omega)


PLANTED = [
    ref.theta([2, 2, 3]),
    ref.theta([2, 3, 4]),
    ref.pyramid([1, 2, 2]),
    ref.pyramid([2, 2, 3]),
    ref.prism([1, 1, 2]),
    ref.prism([1, 2, 3]),
    ref.wheel("ProperWheel", 6, [0, 2, 4]),
    ref.wheel("ProperWheel", 5, [0, 1, 2, 3]),
    ref.wheel("TwinWheel", 6, [0, 1, 2]),
    ref.wheel("UniversalWheel", 5, range(5)),
    ref.wheel("Cap", 6, [0, 1]),
]


@pytest.mark.parametrize("config", PLANTED, ids=lambda c: f"{c.kind}-{c.n}")
def test_planted_configurations_are_what_they_claim(config):
    g = tcfree.Graph(config.n, config.edges)
    assert config.kind in oracles.truemper_present(g)
    hub = config.n - 1
    if config.kind in ("ProperWheel", "TwinWheel", "UniversalWheel", "Cap"):
        rim = list(range(config.n - 1))
        assert ref.induces(g.adj, config.kind, rim, hub)
        others = {"ProperWheel", "TwinWheel", "UniversalWheel", "Cap"} - {config.kind}
        assert not any(ref.induces(g.adj, kind, rim, hub) for kind in others)


def test_certificates_agree_with_the_library_checker():
    """Certificates found by the oracle scan and the small-obstruction
    search pass the reference check; with two rim vertices swapped, the
    reference check and tcfree's check_certificate agree."""
    rng = random.Random(8)
    seen = set()
    graphs = [tcfree.Graph(c.n, c.edges) for c in PLANTED]
    graphs += [_random_graph(rng, rng.randint(5, 9)) for _ in range(60)]
    for g in graphs:
        certs = list(oracles.truemper_scan(g).values())
        certs += [c for c in (tcfree.find_small_obstruction(g, k) for k in ("K23", "C6Bar", "W54")) if c is not None]
        for cert in certs:
            seen.add(cert.kind)
            assert ref.induces(g.adj, cert.kind, cert.vertices, cert.center, cert.paths)
            if cert.paths is None and len(cert.vertices) >= 4:
                vs = list(cert.vertices)
                vs[0], vs[2] = vs[2], vs[0]
                bad = tcfree.Certificate(cert.kind, tuple(vs), cert.center)
                assert ref.induces(g.adj, bad.kind, bad.vertices, bad.center) == tcfree.check_certificate(g, bad)
    assert {"Theta", "Pyramid", "Prism", "ProperWheel", "TwinWheel", "UniversalWheel", "Cap"} <= seen


def test_inputs_follow_the_seed_only():
    def texts(seed):
        return [item.text for item in workloads._recognize_items(tcfree, seed, True)]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)
    solve = [workloads._solve_items(tcfree, seed, True) for seed in (3, 4)]
    assert [i.text for i in solve[0] if i.decimal] == [i.text for i in solve[1] if i.decimal]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_on_a_reduced_slice(workload):
    result = run.run(workload, seed=9, seconds=0, trace=False, reduced=True)
    assert result["correct"]
    assert set(result["metrics"]) == {"throughput_rps", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload != "solve":
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = run.run(workload, seed=9, seconds=0, trace=True, reduced=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(spans.metric_units())
    assert result["metrics"]["cli.main.calls"]["value"] == result["attempted"] // 2


def test_only_the_float_fault_is_excused():
    """A decimal answer is excused only for the known float fault: exit 4 with
    the value-mismatch message, or a value off by rounding on a vertex set
    that is still feasible and optimal."""
    import checks

    text = ref.format_text(3, [(0, 1), (1, 2)], ["0.1", "0.2", "-1.0"])
    item = workloads.Item("t", ["solve"], text, "solve", cls="gu", problem="mwc", decimal=True)

    def reason(rc, out, err=""):
        return checks.check(tcfree, item, rc, out, err) or ""

    def answer(vertices, value):
        return f'{{"member": true, "solution": {{"kind": "clique", "vertices": {vertices}}}, "value": {value}}}'

    assert reason(4, "", "internal verification failed: " + checks.MISMATCH).startswith(checks.FLOAT_FAULT)
    assert not reason(4, "", "internal verification failed: coloring is not proper").startswith(checks.FLOAT_FAULT)
    assert reason(0, answer([1, 2], 0.1 + 0.2)).startswith(checks.FLOAT_FAULT)
    assert reason(0, answer([1, 2], "0.3")) == ""
    assert reason(0, answer([1, 2], "1.3")) and not reason(0, answer([1, 2], "1.3")).startswith(checks.FLOAT_FAULT)
    assert reason(0, answer([1, 3], 0.1 - 1.0)) == "chosen vertices are not a clique"
    assert reason(0, answer([2, 3], 0.2 - 1.0)).startswith("clique weight")
