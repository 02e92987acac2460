"""Plain-text graph format.

A graph file holds a header line ``p <n> <m>``, then exactly m edge lines
``e <u> <v>`` with 1-based endpoints, optionally interleaved with weight
lines ``w <v> <weight>`` (default weight 1). Blank lines and lines starting
with ``#`` are ignored.

Weights are integers or decimals such as ``-2.75`` or ``1.5e3``, read
exactly: a decimal becomes a ``Fraction``, so sums of weights carry no
rounding. ``nan``, ``inf``, ``p/q`` text and decimal exponents beyond
MAX_WEIGHT_EXPONENT in size are rejected. A header may announce at most
MAX_VERTICES vertices and at most n(n-1)/2 edges; larger headers are
rejected before anything is allocated for them.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .graphs import Graph, WeightedGraph, _graph_from_masks

# Graphs hold one adjacency bitmask per vertex and the algorithms are
# polynomial of degree three and up, so far larger inputs could not be
# solved anyway.
MAX_VERTICES = 10_000
# A weight like 1e1000000000 would turn into an integer of a billion digits.
MAX_WEIGHT_EXPONENT = 1000


class ParseError(ValueError):
    pass


def _parse_weight(tok: str, lineno: int):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        value = Decimal(tok)
    except InvalidOperation:
        raise ParseError(f"line {lineno}: cannot parse weight {tok!r}") from None
    if not value.is_finite():
        raise ParseError(f"line {lineno}: weight {tok!r} is not a finite number")
    if abs(value.as_tuple().exponent) > MAX_WEIGHT_EXPONENT:
        raise ParseError(f"line {lineno}: weight {tok!r} has an exponent beyond {MAX_WEIGHT_EXPONENT}")
    return Fraction(value)


def parse_graph(text: str) -> WeightedGraph:
    n = m = None
    adj: list[int] = []
    found = 0
    weights: list = []
    weighted: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks:
            continue
        tag = toks[0]
        if tag == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: edge must be 'e <u> <v>'")
            try:
                u, v = int(toks[1]), int(toks[2])
            except ValueError:
                raise ParseError(f"line {lineno}: edge needs integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: endpoint out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u}")
            bit = 1 << (v - 1)
            if adj[u - 1] & bit:
                raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
            adj[u - 1] |= bit
            adj[v - 1] |= 1 << (u - 1)
            found += 1
        elif tag == "w":
            if n is None:
                raise ParseError(f"line {lineno}: weight before header")
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: weight must be 'w <v> <weight>'")
            try:
                v = int(toks[1])
            except ValueError:
                raise ParseError(f"line {lineno}: weight needs a vertex") from None
            if not (1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            if v in weighted:
                raise ParseError(f"line {lineno}: duplicate weight for vertex {v}")
            weighted.add(v)
            weights[v - 1] = _parse_weight(toks[2], lineno)
        elif tag == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, m = int(toks[1]), int(toks[2])
            except ValueError:
                raise ParseError(f"line {lineno}: header needs integers") from None
            if n < 1 or m < 0:
                raise ParseError(f"line {lineno}: need n >= 1 and m >= 0")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: header announced {n} vertices, more than the limit of {MAX_VERTICES}")
            if m > n * (n - 1) // 2:
                raise ParseError(f"line {lineno}: header announced {m} edges, more than {n} vertices can hold")
            adj = [0] * n
            weights = [1] * n
        elif tag[0] != "#":
            raise ParseError(f"line {lineno}: unknown record {tag!r}")

    if n is None:
        raise ParseError("missing 'p <n> <m>' header")
    if found != m:
        raise ParseError(f"header announced {m} edges but found {found}")
    return WeightedGraph(_graph_from_masks(n, adj), tuple(weights))


def _decimal_text(q: Fraction) -> str:
    """Exact decimal text of q, or ValueError when q has none (such as 1/3).
    A finite decimal needs fewer places than its denominator has bits."""
    places = 0
    while 10**places % q.denominator:
        places += 1
        if places > q.denominator.bit_length():
            raise ValueError(f"{q} has no finite decimal expansion")
    digits = str(abs(q.numerator) * 10**places // q.denominator).rjust(places + 1, "0")
    if places:
        digits = f"{digits[:-places]}.{digits[-places:]}"
    return f"-{digits}" if q < 0 else digits


def format_graph(g: Graph, weights=None) -> str:
    """The text of g and its weights, a Fraction as its exact decimal."""
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    if weights is not None:
        for v, w in enumerate(weights):
            if w != 1:
                lines.append(f"w {v + 1} {_decimal_text(w) if isinstance(w, Fraction) else w}")
    return "\n".join(lines) + "\n"
