"""Checks of one request's exit code and JSON output.

Each check returns None when the answer is right and a short reason when
it is not. Values are compared exactly: JSON numbers are read as Fractions
of their decimal text, and weights come from the graph file text.

The brute-force oracles of `tcfree.oracles` are used only where optimality
cannot be settled otherwise (stable sets, chromatic numbers, the absence of
a clique cutset), and only within their size limits.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import reference as ref

BRUTE_MWSS_MAX_N = 20
BRUTE_CHI_MAX_N = 16
BRUTE_CUTSET_MAX_N = 16

# Reasons that start with this name the program's known fault with decimal
# weights (README.md): it parses them to float and compares float sums
# exactly, so it either rejects its own answer (exit 4 with this message) or
# reports a value that is off by float rounding. The rest of the answer is
# still checked in full.
FLOAT_FAULT = "float weight sum"
MISMATCH = "reported value does not match the selected vertices"
FLOAT_SLACK = Fraction(1, 10**9)


def _json(out: str):
    return json.loads(out, parse_float=Fraction, parse_int=int)


def check(tc, item, rc: int, out: str, err: str) -> Optional[str]:
    if item.command == "solve" and rc == 4 and MISMATCH in err:
        return f"{FLOAT_FAULT}: exit 4, {MISMATCH}"
    want_rc = 0 if item.member else 1
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    try:
        payload = _json(out)
    except ValueError:
        return "output is not JSON"
    if item.command == "decompose":
        return _check_decompose(tc, item, payload)
    if item.command == "solve":
        return _check_solve(tc, item, payload)
    return _check_recognize(item, payload)


def _tc_graph(tc, g: ref.RefGraph, vertices=None):
    vs = list(range(g.n)) if vertices is None else sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return tc.Graph(len(vs), edges)


def _check_decompose(tc, item, payload) -> Optional[str]:
    g = item.graph()
    nodes = {nd["id"]: nd for nd in payload["nodes"]}
    if len(nodes) > 2 * g.n - 1:
        return f"{len(nodes)} nodes for {g.n} vertices"
    verts = {i: ref.mask_of(v - 1 for v in nd["vertices"]) for i, nd in nodes.items()}
    full = (1 << g.n) - 1
    if verts[payload["root"]] != full:
        return "root does not hold every vertex"
    leaves = []
    for i, nd in nodes.items():
        if nd["kind"] == "leaf":
            leaves.append(verts[i])
            continue
        cut = ref.mask_of(v - 1 for v in nd["cutset"])
        if not ref.is_clique(g.adj, ref.bits(cut)):
            return f"node {i}: cutset is not a clique"
        left, right = (verts[c] for c in nd["children"])
        a, b = left & ~cut, right & ~cut
        if left | right != verts[i] or left & right != cut or not a or not b:
            return f"node {i}: children do not split the node at its cutset"
        if any(g.adj[v] & b for v in ref.bits(a)):
            return f"node {i}: cutset does not separate its sides"
    covered = 0
    for mask in leaves:
        covered |= mask
    if covered != full:
        return "leaves miss a vertex"
    for u, v in g.edges():
        if not any(m >> u & 1 and m >> v & 1 for m in leaves):
            return f"leaves miss edge {u + 1} {v + 1}"
    if item.chordal:
        if sorted(set(leaves)) != sorted(ref.maximal_cliques(g.adj)) or len(set(leaves)) != len(leaves):
            return "leaves are not exactly the maximal cliques"
        return None
    for mask in leaves:
        if mask.bit_count() <= BRUTE_CUTSET_MAX_N:
            if tc.oracles.brute_clique_cutset_exists(_tc_graph(tc, g, ref.bits(mask))) is not None:
                return "a leaf has a clique cutset"
    return None


def _check_solve(tc, item, payload) -> Optional[str]:
    g = item.graph()
    solution = payload.get("solution")
    if not payload.get("member") or solution is None:
        return "member reported as non-member"
    if item.problem == "color":
        colours = solution["colors"]
        count = solution["count"]
        if not ref.is_proper_colouring(g, colours) or len(set(colours)) != count:
            return "colouring is not proper or miscounted"
        omega = ref.clique_number(g)
        if not omega <= count <= ref.chi_bound(item.cls, omega):
            return f"{count} colours outside [omega, bound] for omega {omega}"
        if g.n <= BRUTE_CHI_MAX_N and count != tc.oracles.brute_chi(_tc_graph(tc, g)):
            return "colouring is not optimal"
        return None
    chosen = [v - 1 for v in solution["vertices"]]
    exact = sum((g.weights[v] for v in chosen), Fraction(0))
    if item.problem == "mwc":
        if not ref.is_clique(g.adj, chosen):
            return "chosen vertices are not a clique"
        best = ref.max_weight_clique(g)
        if exact != best:
            return f"clique weight {exact} is not the maximum {best}"
    else:
        if not ref.is_stable(g.adj, chosen):
            return "chosen vertices are not a stable set"
        if g.n <= BRUTE_MWSS_MAX_N:
            wg = tc.WeightedGraph(_tc_graph(tc, g), g.weights)
            best = tc.oracles.brute_alpha_w(wg)
            if exact != best:
                return f"stable set weight {exact} is not the maximum {best}"
    value = Fraction(payload["value"])
    if value != exact:
        fault = f"{FLOAT_FAULT}: " if abs(value - exact) <= FLOAT_SLACK * (1 + abs(exact)) else ""
        return f"{fault}value {payload['value']} is not the exact weight {exact} of the chosen vertices"
    return None


def _check_recognize(item, payload) -> Optional[str]:
    if payload.get("member") is not item.member:
        return "wrong verdict"
    if item.member:
        return None
    g = item.graph()
    cert = payload.get("certificate")
    if cert is not None:
        verts = [v - 1 for v in cert["vertices"]]
        center = cert.get("center")
        center = None if center is None else center - 1
        paths = [[v - 1 for v in p] for p in cert["paths"]] if "paths" in cert else None
        if not ref.induces(g.adj, cert["kind"], verts, center, paths):
            return f"certificate does not induce a {cert['kind']}"
        if not set(verts) | ({center} - {None}) <= item.planted:
            return "certificate lies outside the planted configuration"
        return None
    leaf = {v - 1 for v in payload.get("leaf", [])}
    if leaf != item.planted:
        return "rejected leaf is not the planted configuration"
    if not {v - 1 for v in payload.get("anticomponent", [])} <= leaf:
        return "anticomponent lies outside its leaf"
    return None
