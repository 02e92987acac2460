"""Command line interface.

Subcommands: recognize, solve, decompose, generate, verify-chi. Graphs are
read in the text format (vertices numbered from 1); "-" reads stdin. Results
go to stdout as JSON with vertex labels matching the input numbering,
diagnostics go to stderr. Only this module writes JSON, from the library's
0-based values. generate writes the text format instead so its output
pipes straight back into the other commands.

Exit codes: 0 success or member, 1 non-member, 2 input error, 3 unsupported
class/problem pair, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .classes import (
    CHI_BOUNDS,
    CLASS_IDS,
    NotInClassError,
    color_gu,
    color_gutcap,
    mwc_gt,
    mwc_gu,
    mwc_gutcap,
    mwss_gt,
    mwss_gu,
    mwss_gutcap,
    recognize_gt,
    recognize_gu,
    recognize_gut,
    recognize_gutcap,
)
from .decomposition import DecompositionTree, build_tree
from .detectors import Certificate
from .generators import (
    gen_chordal,
    gen_class_member,
    gen_hyperantihole,
    gen_hyperhole,
    gen_ring,
    rand_sizes,
)
from .graphs import Coloring, WeightedGraph, is_clique, is_proper_coloring, is_stable_set
from .io import MAX_VERTICES, ParseError, _decimal_text, format_graph, parse_graph
from .oracles import brute_chi, brute_omega_w

_RECOGNIZERS = {
    "gut": recognize_gut,
    "gu": recognize_gu,
    "gt": recognize_gt,
    "gutcap": recognize_gutcap,
}

# the solver of each solvable class/problem pair; finding a maximum clique
# in gut is np-hard and the other gut problems and gt coloring have no known
# polynomial algorithm, so those pairs are rejected up front
_SOLVERS = {
    ("gu", "mwc"): mwc_gu,
    ("gu", "mwss"): mwss_gu,
    ("gu", "color"): color_gu,
    ("gt", "mwc"): mwc_gt,
    ("gt", "mwss"): mwss_gt,
    ("gutcap", "mwc"): mwc_gutcap,
    ("gutcap", "mwss"): mwss_gutcap,
    ("gutcap", "color"): color_gutcap,
}

_UNSUPPORTED_WHY = {
    ("gut", "mwc"): "maximum weight clique is np-hard on this class",
    ("gut", "mwss"): "no polynomial algorithm is known for this pair",
    ("gut", "color"): "no polynomial algorithm is known for this pair",
    ("gt", "color"): "no polynomial algorithm is known for this pair",
}

class CliError(Exception):
    """User-facing input problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# helpers


def _read_weighted(path: str) -> WeightedGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from None
    try:
        return parse_graph(text)
    except ParseError as exc:
        raise CliError(str(exc)) from None


def _certificate(cert: Certificate) -> dict:
    """The certificate's fields in 1-based labels, center and paths if set."""
    cert = cert.relabel((1).__add__)
    fields = {"kind": cert.kind, "vertices": cert.vertices, "center": cert.center, "paths": cert.paths}
    return {key: value for key, value in fields.items() if value is not None}


def _check_size(n: int, option: str) -> None:
    if n > MAX_VERTICES:
        raise CliError(f"{option} asks for {n} vertices, more than the limit of {MAX_VERTICES}")


def _json_text(obj, indent: str = "\n") -> str:
    """The text json.dumps(obj, sort_keys=True, indent=2) writes, with each
    Fraction as its exact decimal. A list of ints is joined in one call, so
    no Python code runs per vertex."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, Fraction):
        return _decimal_text(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj))
        return "{" + inner + f",{inner}".join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = (_json_text(x, inner) for x in obj)
        return "[" + inner + f",{inner}".join(items) + indent + "]"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _emit(payload: dict) -> None:
    """Write payload as JSON; Fractions become numbers in exact decimals."""
    sys.stdout.write(_json_text(payload) + "\n")


def _write_tree(tree: DecompositionTree, n: int) -> None:
    """Write the tree as json.dumps(sort_keys=True, indent=2) wrote its
    {"nodes": [...], "root": ...} dict, in 1-based labels made once. Each
    node's labels are picked from its mask and joined in C, and each node is
    written as built, so the Theta(n^2) text of a chain is never held whole."""
    labels = [str(v + 1) for v in range(n)]
    # bin(mask) reversed less its "0b", as bytes 0 and 1: a selector per vertex
    bit = bytes.maketrans(b"01", b"\x00\x01")
    item = ",\n        "
    write = sys.stdout.write
    write('{\n  "nodes": [')
    sep = "\n"
    for node in tree.nodes:
        vertices = item.join(compress(labels, bin(node.mask)[:1:-1].encode().translate(bit)))
        if node.cutset is None:
            write(
                f'{sep}    {{\n      "children": [],\n      "cutset": null,\n      "id": {node.id},'
                f'\n      "kind": "leaf",\n      "vertices": [\n        {vertices}\n      ]\n    }}'
            )
        else:
            # an empty cutset splits a disconnected graph
            cutset = f"[\n        {item.join(map(labels.__getitem__, node.cutset))}\n      ]" if node.cutset else "[]"
            write(
                f'{sep}    {{\n      "children": [\n        {node.children[0]},\n        {node.children[1]}\n      ],'
                f'\n      "cutset": {cutset},\n      "id": {node.id},\n      "kind": "internal",'
                f'\n      "vertices": [\n        {vertices}\n      ]\n    }}'
            )
        sep = ",\n"
    write(f'\n  ],\n  "root": {tree.root}\n}}\n')


# ---------------------------------------------------------------------------
# commands


def cmd_recognize(args: argparse.Namespace) -> int:
    wg = _read_weighted(args.graph)
    rec = _RECOGNIZERS[args.cls](wg.graph)
    cert = None if rec.certificate is None else _certificate(rec.certificate)
    payload = {"class": args.cls, "member": rec.member, "certificate": cert}
    if rec.reason:
        payload["reason"] = rec.reason
    if rec.leaf is not None:
        payload["leaf"] = sorted(v + 1 for v in rec.leaf)
    if rec.anticomponent is not None:
        payload["anticomponent"] = sorted(v + 1 for v in rec.anticomponent)
    _emit(payload)
    return 0 if rec.member else 1


def _solve_dispatch(cls: str, problem: str, wg: WeightedGraph):
    """Run the solver; returns (solution dict, value) with 1-based labels."""
    solver = _SOLVERS[(cls, problem)]
    if problem == "color":
        col: Coloring = solver(wg.graph)
        if not is_proper_coloring(wg.graph, col):
            raise AssertionError("coloring is not proper")
        return {"kind": "coloring", "colors": list(col.colors), "count": col.count}, col.count
    value, chosen = solver(wg)
    ok = is_clique(wg.graph, chosen) if problem == "mwc" else is_stable_set(wg.graph, chosen)
    if not ok:
        raise AssertionError("selected vertices violate the adjacency requirement")
    if sum(wg.weights[v] for v in chosen) != value:
        raise AssertionError("reported value does not match the selected vertices")
    kind = "clique" if problem == "mwc" else "stable_set"
    return {"kind": kind, "vertices": sorted(v + 1 for v in chosen)}, value


def cmd_solve(args: argparse.Namespace) -> int:
    pair = (args.cls, args.problem)
    if pair not in _SOLVERS:
        why = _UNSUPPORTED_WHY.get(pair, "unsupported class/problem pair")
        print(f"error: {args.cls}/{args.problem}: {why}", file=sys.stderr)
        return 3
    wg = _read_weighted(args.graph)
    payload = {"class": args.cls, "member": True, "certificate": None}
    try:
        payload["solution"], payload["value"] = _solve_dispatch(args.cls, args.problem, wg)
    except NotInClassError as exc:
        rec = exc.rejection
        cert = None if rec.certificate is None else _certificate(rec.certificate)
        payload.update(member=False, certificate=cert, solution=None, value=None, reason=rec.reason)
    except AssertionError as exc:
        print(f"internal verification failed: {exc}", file=sys.stderr)
        return 4
    _emit(payload)
    return 0 if payload["member"] else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    wg = _read_weighted(args.graph)
    _write_tree(build_tree(wg.graph), wg.graph.n)
    return 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"cannot parse sizes {text!r}") from None
    return sizes


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        if args.kind in ("ring", "hyperhole", "hyperantihole"):
            if args.k is None or args.sizes is None:
                raise CliError(f"--kind {args.kind} requires --k and --sizes")
            sizes = _parse_sizes(args.sizes)
            if len(sizes) != args.k:
                raise CliError("--sizes must list one size per part")
            _check_size(sum(sizes), "--sizes")
            if args.kind == "ring":
                g, partition = gen_ring(args.seed, args.k, sizes)
                parts = [[v + 1 for v in part] for part in partition.parts]
                print(json.dumps({"k": partition.k, "parts": parts}, sort_keys=True), file=sys.stderr)
            elif args.kind == "hyperhole":
                g = gen_hyperhole(args.seed, args.k, sizes)
            else:
                g = gen_hyperantihole(args.seed, args.k, sizes)
        elif args.kind == "chordal":
            if args.n is None:
                raise CliError("--kind chordal requires --n")
            _check_size(args.n, "--n")
            g = gen_chordal(args.seed, args.n, args.density)
        else:
            if args.cls is None:
                raise CliError("--kind member requires --class")
            _check_size(args.max_n, "--max-n")
            g = gen_class_member(args.seed, args.cls, args.pieces, args.max_n)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    sys.stdout.write(format_graph(g))
    return 0


def cmd_verify_chi(args: argparse.Namespace) -> int:
    if args.max_n > 16:
        raise CliError("--max-n above 16 is out of brute-force range")
    if args.trials < 1:
        raise CliError("--trials must be positive")
    if args.max_n < 1:
        raise CliError("--max-n must be positive")
    if args.cls == "hyperantihole7" and args.max_n < 7:
        raise CliError("--max-n below 7 cannot hold a 7-hyperantihole")
    formula, bound_of = CHI_BOUNDS[args.cls]
    results = []
    all_ok = True
    for index in range(args.trials):
        trial_seed = args.seed + index
        if args.cls == "hyperantihole7":
            g = gen_hyperantihole(trial_seed, 7, rand_sizes(random.Random(trial_seed), 7, args.max_n))
        else:
            g = gen_class_member(trial_seed, args.cls, pieces=2, max_n=args.max_n)
        omega = brute_omega_w(WeightedGraph(g, (1,) * g.n))
        chi = brute_chi(g)
        bound = bound_of(omega)
        ok = chi <= bound
        all_ok = all_ok and ok
        results.append(
            {
                "trial": index,
                "seed": trial_seed,
                "n": g.n,
                "omega": omega,
                "chi": chi,
                "bound": bound,
                "ok": ok,
            }
        )
    _emit(
        {
            "class": args.cls,
            "trials": args.trials,
            "max_n": args.max_n,
            "seed": args.seed,
            "bound": formula,
            "all_ok": all_ok,
            "results": results,
        }
    )
    return 0 if all_ok else 4


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcfree",
        description="Recognition, decomposition, and exact solving for "
        "graph classes excluding Truemper configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("recognize", help="test class membership")
    p_rec.add_argument("--class", dest="cls", choices=CLASS_IDS, required=True)
    p_rec.add_argument("graph", help="graph file in the text format, or - for stdin")
    p_rec.set_defaults(func=cmd_recognize)

    p_solve = sub.add_parser("solve", help="solve an optimization problem exactly")
    p_solve.add_argument("--class", dest="cls", choices=CLASS_IDS, required=True)
    p_solve.add_argument("--problem", choices=("mwc", "mwss", "color"), required=True)
    p_solve.add_argument("graph")
    p_solve.set_defaults(func=cmd_solve)

    p_dec = sub.add_parser("decompose", help="print the clique-cutset decomposition tree")
    p_dec.add_argument("graph")
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("generate", help="generate a graph in the text format")
    p_gen.add_argument(
        "--kind",
        choices=("ring", "hyperhole", "hyperantihole", "chordal", "member"),
        required=True,
    )
    p_gen.add_argument("--k", type=int, help="number of parts")
    p_gen.add_argument("--sizes", help="comma-separated part sizes")
    p_gen.add_argument("--n", type=int, help="vertex count for chordal graphs")
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--class", dest="cls", choices=CLASS_IDS)
    p_gen.add_argument("--pieces", type=int, default=2)
    p_gen.add_argument("--max-n", type=int, default=14)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)

    p_chi = sub.add_parser(
        "verify-chi", help="sample class members and check the chromatic bound"
    )
    p_chi.add_argument(
        "--class",
        dest="cls",
        choices=CLASS_IDS + ("hyperantihole7",),
        required=True,
    )
    p_chi.add_argument("--trials", type=int, default=50)
    p_chi.add_argument("--max-n", type=int, default=12)
    p_chi.add_argument("--seed", type=int, default=0)
    p_chi.set_defaults(func=cmd_verify_chi)

    return parser


# built once: a parser holds reference cycles, so one per request would
# leave garbage behind every call
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
