"""End-to-end command line tests driven through cli.main."""

import gc
import io
import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from tcfree import classes, cli
from tcfree.classes import Recognition
from tcfree.cli import main
from tcfree.decomposition import build_tree
from tcfree.detectors import Certificate
from tcfree.generators import (
    complete_graph,
    cycle_graph,
    gen_chordal,
    gen_class_member,
    join_graphs,
    path_graph,
)
from tcfree.graphs import Graph, WeightedGraph
from tcfree.io import format_graph, parse_graph
from tcfree.oracles import brute_alpha_w, brute_chi, brute_omega_w

K23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, weights=None, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g, weights))
    return str(path)


def test_recognize_member(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(7))
    code, out, err = run(capsys, ["recognize", "--class", "gu", path])
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "gu"
    assert data["member"] is True
    assert data["certificate"] is None


def test_recognize_nonmember_certificate_is_one_based(tmp_path, capsys):
    path = write_graph(tmp_path, K23)
    code, out, err = run(capsys, ["recognize", "--class", "gut", path])
    assert code == 1
    data = json.loads(out)
    assert data["member"] is False
    cert = data["certificate"]
    assert cert["kind"] == "K23"
    assert sorted(cert["vertices"]) == [1, 2, 3, 4, 5]


def test_recognize_reads_stdin(capsys, monkeypatch):
    text = format_graph(cycle_graph(5))
    code, out, err = run(
        capsys, ["recognize", "--class", "gutcap", "-"], stdin=text, monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out)["member"] is True


@pytest.mark.parametrize(
    "cls,problem",
    [
        ("gu", "mwc"),
        ("gu", "mwss"),
        ("gu", "color"),
        ("gt", "mwc"),
        ("gt", "mwss"),
        ("gutcap", "mwc"),
        ("gutcap", "mwss"),
        ("gutcap", "color"),
    ],
)
def test_solve_supported_pairs_match_brute(tmp_path, capsys, cls, problem):
    rng = random.Random(hash((cls, problem)) & 0xFFFF)
    for attempt in range(3):
        g = gen_class_member(rng.randrange(2**30), cls, pieces=2, max_n=10)
        ws = tuple(rng.randrange(-3, 8) for _ in range(g.n))
        wg = WeightedGraph(g, ws)
        path = write_graph(tmp_path, g, ws, name=f"{cls}-{problem}-{attempt}.txt")
        code, out, err = run(capsys, ["solve", "--class", cls, "--problem", problem, path])
        assert code == 0, err
        data = json.loads(out)
        assert data["member"] is True and data["certificate"] is None
        if problem == "color":
            assert data["value"] == brute_chi(g)
            colors = data["solution"]["colors"]
            assert len(colors) == g.n
            assert all(
                colors[u] != colors[v] for u in range(g.n) for v in range(g.n) if g.has_edge(u, v)
            )
        else:
            expected = brute_omega_w(wg) if problem == "mwc" else brute_alpha_w(wg)
            assert data["value"] == expected
            chosen = data["solution"]["vertices"]
            assert all(1 <= v <= g.n for v in chosen)
            assert data["value"] == sum(ws[v - 1] for v in chosen)


@pytest.mark.parametrize(
    "cls,problem",
    [("gut", "mwc"), ("gut", "mwss"), ("gut", "color"), ("gt", "color")],
)
def test_solve_unsupported_pairs(tmp_path, capsys, cls, problem):
    path = write_graph(tmp_path, cycle_graph(5))
    code, out, err = run(capsys, ["solve", "--class", cls, "--problem", problem, path])
    assert code == 3
    assert out == ""
    assert f"{cls}/{problem}" in err


def test_solve_nonmember_reports_reason(tmp_path, capsys):
    wheel = join_graphs(cycle_graph(5), complete_graph(1))
    path = write_graph(tmp_path, wheel)
    code, out, err = run(capsys, ["solve", "--class", "gt", "--problem", "mwc", path])
    assert code == 1
    data = json.loads(out)
    assert data["member"] is False
    assert data["solution"] is None and data["value"] is None
    # the W5 wheel is one atom, rejected by the leaf test as recognize does
    code, out, err = run(capsys, ["recognize", "--class", "gt", path])
    assert code == 1
    assert data["reason"] == json.loads(out)["reason"]

    path = write_graph(tmp_path, K23, name="k23.txt")
    code, out, err = run(capsys, ["solve", "--class", "gu", "--problem", "color", path])
    assert code == 1
    assert json.loads(out)["member"] is False


def test_solve_gt_mwc_rejects_the_petersen_graph(tmp_path, capsys):
    # every closed neighborhood is chordal, but the one atom is no ring
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    path = write_graph(tmp_path, Graph(10, outer + inner + spokes))
    code, out, _ = run(capsys, ["solve", "--class", "gt", "--problem", "mwc", path])
    assert code == 1
    assert json.loads(out)["member"] is False


@pytest.mark.parametrize("problem", ["mwc", "mwss", "color"])
def test_solve_gutcap_runs_the_global_tests(tmp_path, capsys, problem):
    # C5 plus a cap vertex, and K23: the leaf tests pass both
    cap = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1)])
    for name, g in (("cap", cap), ("k23", K23)):
        path = write_graph(tmp_path, g, name=f"{name}.txt")
        code, out, _ = run(capsys, ["recognize", "--class", "gutcap", path])
        assert code == 1
        recognized = json.loads(out)
        code, out, _ = run(capsys, ["solve", "--class", "gutcap", "--problem", problem, path])
        assert code == 1
        data = json.loads(out)
        assert data["member"] is False
        assert data["solution"] is None and data["value"] is None
        assert data["certificate"] is not None
        assert data["certificate"] == recognized["certificate"]
        assert data["reason"] == recognized["reason"]


def test_input_errors_exit_2(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, ["recognize", "--class", "gu", str(tmp_path / "missing.txt")])
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("p 3 1\ne 1 5\n")
    code, _, err = run(capsys, ["recognize", "--class", "gu", str(bad)])
    assert code == 2 and "out of range" in err

    code, _, err = run(capsys, ["generate", "--kind", "ring", "--k", "4", "--sizes", "1,1,1"])
    assert code == 2 and "one size per part" in err

    code, _, err = run(capsys, ["generate", "--kind", "chordal"])
    assert code == 2 and "requires --n" in err

    code, _, err = run(capsys, ["generate", "--kind", "ring", "--k", "3", "--sizes", "1,1,1"])
    assert code == 2 and "at least 4 parts" in err

    code, _, err = run(capsys, ["verify-chi", "--class", "gu", "--max-n", "20"])
    assert code == 2 and "out of brute-force range" in err

    code, _, err = run(capsys, ["verify-chi", "--class", "gu", "--trials", "0"])
    assert code == 2 and "must be positive" in err

    code, _, err = run(capsys, ["verify-chi", "--class", "gt", "--max-n", "0"])
    assert code == 2 and "--max-n must be positive" in err

    code, _, err = run(capsys, ["generate", "--kind", "member", "--class", "gu", "--max-n", "0"])
    assert code == 2 and "max_n of at least one" in err

    code, _, err = run(capsys, ["verify-chi", "--class", "hyperantihole7", "--max-n", "3"])
    assert code == 2 and "--max-n below 7" in err

    # generate refuses graphs that parse_graph would refuse, before building
    # them; the size check comes before the generator's own (the zero part)
    for argv in (
        ["--kind", "chordal", "--n", "10001", "--density", "0"],
        ["--kind", "hyperhole", "--k", "4", "--sizes", "10001,0,1,1"],
        ["--kind", "member", "--class", "gu", "--max-n", "10001"],
    ):
        code, out, err = run(capsys, ["generate", *argv])
        assert code == 2 and out == "" and "more than the limit of 10000" in err, argv
    code, out, _ = run(capsys, ["generate", "--kind", "chordal", "--n", "10000", "--density", "0"])
    assert code == 0 and out.startswith("p 10000 9999\n")

    code, _, _ = run(capsys, [])
    assert code == 2


def test_decompose_tree_shape(tmp_path, capsys):
    g = gen_class_member(11, "gu", pieces=3, max_n=12)
    path = write_graph(tmp_path, g)
    code, out, err = run(capsys, ["decompose", path])
    assert code == 0
    tree = json.loads(out)
    nodes = {node["id"]: node for node in tree["nodes"]}
    root = nodes[tree["root"]]
    assert sorted(root["vertices"]) == list(range(1, g.n + 1))
    for node in nodes.values():
        assert all(1 <= v <= g.n for v in node["vertices"])
        if node["children"]:
            assert node["kind"] == "internal"
            assert node["cutset"] is not None
            assert all(1 <= v <= g.n for v in node["cutset"])
            assert all(child in nodes for child in node["children"])
        else:
            assert node["kind"] == "leaf"
            assert node["cutset"] is None


def test_generate_is_deterministic_and_pipes(tmp_path, capsys):
    argv = ["generate", "--kind", "ring", "--k", "5", "--sizes", "2,1,2,1,1", "--seed", "9"]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, err2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2 == '{"k": 5, "parts": [[1, 2], [3], [4, 5], [6], [7]]}\n'

    wg = parse_graph(out1)
    assert wg.graph.n == 7

    genfile = tmp_path / "ring.txt"
    genfile.write_text(out1)
    code, out, _ = run(capsys, ["recognize", "--class", "gut", str(genfile)])
    assert code == 0 and json.loads(out)["member"] is True


def test_generate_member_kind(tmp_path, capsys):
    argv = ["generate", "--kind", "member", "--class", "gutcap", "--seed", "4", "--max-n", "10"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    genfile = tmp_path / "member.txt"
    genfile.write_text(out)
    code, out2, _ = run(capsys, ["recognize", "--class", "gutcap", str(genfile)])
    assert code == 0 and json.loads(out2)["member"] is True

    code, _, err = run(capsys, ["generate", "--kind", "member"])
    assert code == 2 and "requires --class" in err


@pytest.mark.parametrize("cls", ["gu", "gt", "gutcap", "gut", "hyperantihole7"])
def test_verify_chi_bounds_hold(capsys, cls):
    code, out, err = run(
        capsys, ["verify-chi", "--class", cls, "--trials", "6", "--max-n", "10", "--seed", "5"]
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["all_ok"] is True
    assert data["class"] == cls
    assert [r["trial"] for r in data["results"]] == list(range(6))
    assert [r["seed"] for r in data["results"]] == [5 + i for i in range(6)]
    for row in data["results"]:
        assert row["ok"] and row["chi"] <= row["bound"]


def test_verify_chi_deterministic(capsys):
    argv = ["verify-chi", "--class", "gt", "--trials", "4", "--max-n", "9", "--seed", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("cls", ["gu", "gt", "gutcap"])
@pytest.mark.parametrize("problem", ["mwc", "mwss"])
def test_solve_decimal_weights_exactly(tmp_path, capsys, cls, problem):
    rng = random.Random(f"decimal:{cls}:{problem}")
    for attempt in range(8):
        g = gen_class_member(rng.randrange(2**30), cls, pieces=4, max_n=14)
        texts = [f"{rng.uniform(-1, 3):.1f}" for _ in range(g.n)]
        lines = [format_graph(g).rstrip("\n")] + [f"w {v + 1} {t}" for v, t in enumerate(texts)]
        path = tmp_path / f"{cls}-{problem}-{attempt}.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["solve", "--class", cls, "--problem", problem, str(path)])
        assert code == 0, err
        data = json.loads(out, parse_float=Fraction)
        weights = tuple(Fraction(t) for t in texts)
        chosen = [v - 1 for v in data["solution"]["vertices"]]
        assert data["value"] == sum((weights[v] for v in chosen), Fraction(0))
        wg = WeightedGraph(g, weights)
        assert data["value"] == (brute_omega_w(wg) if problem == "mwc" else brute_alpha_w(wg))


def test_solve_exact_value_is_a_plain_decimal(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("p 2 1\ne 1 2\nw 1 0.1\nw 2 0.2\n")
    code, out, err = run(capsys, ["solve", "--class", "gu", "--problem", "mwc", str(path)])
    assert code == 0, err
    assert '"value": 0.3\n' in out


@pytest.mark.parametrize("cls", ["gu", "gutcap"])
def test_solve_mwc_leaves_the_stable_set_alone(tmp_path, capsys, monkeypatch, cls):
    calls = []
    original = classes.solve_mwss
    monkeypatch.setattr(classes, "solve_mwss", lambda *args: calls.append(args) or original(*args))
    g = gen_class_member(3, cls, pieces=3, max_n=12)
    path = write_graph(tmp_path, g)
    code, out, err = run(capsys, ["solve", "--class", cls, "--problem", "mwc", path])
    assert code == 0, err
    assert calls == []
    code, out, err = run(capsys, ["solve", "--class", cls, "--problem", "mwss", path])
    assert code == 0, err
    assert len(calls) == 1


def test_oversized_header_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("p 1000000000000 0\n")
    code, out, err = run(capsys, ["solve", "--class", "gu", "--problem", "mwc", str(path)])
    assert code == 2 and out == ""
    assert "1000000000000 vertices" in err and "limit" in err


def test_requests_leave_no_reference_cycles(tmp_path, capsys):
    # garbage in a cycle lives until a full collection, so a request that
    # leaves its tree, graph or encoder state in one holds that memory
    # across requests
    g = gen_class_member(3, "gu", pieces=4, max_n=24)
    path = write_graph(tmp_path, g, [1 + v % 4 for v in range(g.n)])
    k23 = write_graph(tmp_path, K23, name="k23.txt")
    requests = (
        (["solve", "--class", "gu", "--problem", "color", path], 0),
        (["solve", "--class", "gu", "--problem", "mwss", path], 0),
        (["decompose", path], 0),
        (["recognize", "--class", "gu", path], 0),
        (["recognize", "--class", "gut", k23], 1),
    )
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv, code in requests:
            assert run(capsys, argv)[0] == code
            gc.collect()
            assert not [type(obj).__name__ for obj in gc.garbage], argv
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def _json_dumps_text(payload) -> str:
    """The reference rendering: json.dumps with sort_keys and indent 2, each
    Fraction written as its exact decimal."""
    exact = []

    def placeholder(obj):
        if not isinstance(obj, Fraction):
            raise TypeError(f"cannot write {type(obj).__name__} as JSON")
        exact.append(cli._decimal_text(obj))
        return f"\0{len(exact) - 1}"

    text = json.dumps(payload, sort_keys=True, indent=2, default=placeholder)
    return re.sub(r'"\\u0000(\d+)"', lambda m: exact[int(m.group(1))], text) + "\n"


def _recognize_payload(cls, rec):
    """The dict recognize writes, built by hand from rec's fields in 1-based
    labels."""
    payload = {"class": cls, "member": rec.member, "certificate": None}
    cert = rec.certificate
    if cert is not None:
        payload["certificate"] = {"kind": cert.kind, "vertices": [v + 1 for v in cert.vertices]}
        if cert.center is not None:
            payload["certificate"]["center"] = cert.center + 1
        if cert.paths is not None:
            payload["certificate"]["paths"] = [[v + 1 for v in p] for p in cert.paths]
    if rec.reason:
        payload["reason"] = rec.reason
    for key in ("leaf", "anticomponent"):
        if getattr(rec, key) is not None:
            payload[key] = sorted(v + 1 for v in getattr(rec, key))
    return payload


def _tree_payload(tree):
    """The dict decompose has always written: each node's fields, vertex
    labels shifted to the 1-based numbering, node ids as they are."""
    nodes = [
        {
            "id": nd.id,
            "kind": nd.kind,
            "vertices": [v + 1 for v in nd.vertices],
            "cutset": None if nd.cutset is None else [v + 1 for v in nd.cutset],
            "children": list(nd.children),
        }
        for nd in tree.nodes
    ]
    return {"root": tree.root, "nodes": nodes}


def _relabelled(g, rng):
    perm = rng.sample(range(g.n), g.n)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_decompose_writes_the_json_dumps_text(tmp_path, capsys):
    graphs = [
        Graph(1, []),
        complete_graph(6),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
        gen_chordal(11, 300, 0.6),
        gen_class_member(1, "gu", pieces=3, max_n=30),
        gen_class_member(2, "gu", pieces=3, max_n=30),
        gen_class_member(1, "gt", pieces=3, max_n=30),
        gen_class_member(2, "gt", pieces=3, max_n=30),
        path_graph(200),
        # chain masks with gaps, and masks shorter than n: the writer picks
        # labels from each mask's bits
        _relabelled(gen_class_member(3, "gu", pieces=4, max_n=40), random.Random(5)),
        Graph(9, list(path_graph(5).edges())),
    ]
    texts = []
    for g in graphs:
        tree = build_tree(g)
        code, out, err = run(capsys, ["decompose", write_graph(tmp_path, g)])
        assert code == 0 and err == ""
        assert out == json.dumps(_tree_payload(tree), sort_keys=True, indent=2) + "\n"
        texts.append(out)
    # the shapes the writer spells out by hand: a leaf's null cutset and
    # empty children, K_n's lone leaf, and a disconnected graph's empty cutset
    assert '"cutset": null' in texts[0] and '"children": []' in texts[0]
    assert len(build_tree(graphs[1]).nodes) == 1
    assert '"cutset": []' in texts[2]


def test_emit_matches_json_dumps(capsys):
    payloads = []
    theta = Certificate("Theta", (0, 1, 2, 3, 4), center=4, paths=((0, 1, 3), (0, 3), (0, 2, 4, 3)))
    payloads.append(_recognize_payload("gut", Recognition(False, theta, reason="theta found")))
    payloads.append(
        _recognize_payload(
            "gu",
            Recognition(False, reason="leaf fails", leaf=frozenset({5, 0, 3, 9}), anticomponent=frozenset({9, 3})),
        )
    )
    payloads.append(_recognize_payload("gt", Recognition(True)))
    for value in (Fraction(-7, 4), Fraction(6), Fraction(1, 10), Fraction(-1, 20), 12):
        solution = {"kind": "stable_set", "vertices": [1, 4, 6]}
        payloads.append({"class": "gu", "member": True, "certificate": None, "solution": solution, "value": value})
    payloads.append(
        {
            "empty_list": [],
            "empty_dict": {},
            "nested": [[1, 2], [], [[3, -4]], [{}], {"z": [], "a": [0]}],
            "none": None,
            "flags": [True, False, 1, 0],
            "text": "na\u00efve \u2713 \"quoted\"\n",
            "mixed": [1, "two", None, Fraction(3, 2), (5, 6)],
            "big": 10**30,
        }
    )
    for payload in payloads:
        cli._emit(payload)
        assert capsys.readouterr().out == _json_dumps_text(payload)
    with pytest.raises(TypeError):
        cli._emit({"vertices": {1, 2}})


def test_long_path_requests_stay_fast(tmp_path, monkeypatch):
    # a 2000-vertex path has a 3997-node chain whose text is Theta(n^2), and
    # a sparse MCS-M pass that must not flood every level after each pick;
    # each bound is at least 5x the time these requests take
    path = write_graph(tmp_path, path_graph(2000))
    out_path = tmp_path / "out.json"
    requests = (
        (["decompose", path], 1.5, lambda data: len(data["nodes"]) == 3997),
        (["recognize", "--class", "gut", path], 2.0, lambda data: data["member"]),
        (["solve", "--class", "gu", "--problem", "mwss", path], 2.0, lambda data: data["value"] == 1000),
    )
    for argv, bound, check in requests:
        with open(out_path, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            monkeypatch.undo()
        assert code == 0, argv
        assert elapsed < bound, (argv, elapsed)
        assert check(json.loads(out_path.read_text())), argv
