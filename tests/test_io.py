"""Text format parsing and serialization."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import weighted_graphs
from tcfree.io import MAX_VERTICES, ParseError, format_graph, parse_graph


def test_parse_minimal():
    wg = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
    assert wg.graph.n == 3
    assert list(wg.graph.edges()) == [(0, 1), (1, 2)]
    assert wg.weights == (1, 1, 1)


def test_parse_weights_and_comments():
    text = "# comment\np 3 1\n\ne 1 3\nw 2 5\nw 3 2.5\n"
    wg = parse_graph(text)
    assert wg.weights == (1, 5, 2.5)


def test_parse_reads_indented_comments_tabs_and_crlf():
    plain = parse_graph("p 3 2\ne 1 2\ne 2 3\nw 3 4\n")
    for text in (
        "   # c\np 3 2\n\t# c\ne 1 2\n  e 2 3\nw 3 4\n",
        "p\t3\t2\ne\t1 2\ne 2\t3\nw\t3\t4\n",
        "#c\r\np 3 2\r\ne 1 2\r\n\r\ne 2 3\r\nw 3 4\r\n",
    ):
        wg = parse_graph(text)
        assert (wg.graph, wg.weights) == (plain.graph, plain.weights)


def test_parse_error_lines_count_blank_and_comment_lines():
    with pytest.raises(ParseError, match="^line 5: self-loop"):
        parse_graph("# c\n\np 2 1\n   # c\ne 1 1\n")
    with pytest.raises(ParseError, match="^line 4: unknown record 'q'"):
        parse_graph("p 2 0\r\n\r\n#\r\nq 1\r\n")


def test_decimal_weights_are_exact():
    wg = parse_graph("p 3 0\nw 1 0.1\nw 2 -2.75\nw 3 1.5e3\n")
    assert wg.weights == (Fraction(1, 10), Fraction(-11, 4), 1500)
    assert all(isinstance(w, Fraction) for w in wg.weights)
    assert sum(parse_graph("p 3 0\nw 1 0.1\nw 2 0.2\nw 3 0.3\n").weights) == Fraction(3, 5)


def test_header_limits():
    assert parse_graph(f"p {MAX_VERTICES} 0\n").graph.n == MAX_VERTICES
    assert parse_graph("p 3 3\ne 1 2\ne 2 3\ne 1 3\n").graph.m == 3
    with pytest.raises(ParseError, match="limit"):
        parse_graph(f"p {MAX_VERTICES + 1} 0\n")


@given(weighted_graphs(low=1, high=9))
def test_round_trip(wg):
    text = format_graph(wg.graph, wg.weights)
    back = parse_graph(text)
    assert back.graph == wg.graph
    assert back.weights == wg.weights


def test_format_writes_fraction_weights_exactly():
    text = "p 2 0\nw 1 12345678901234567.89\nw 2 -0.000001\n"
    wg = parse_graph(text)
    assert format_graph(wg.graph, wg.weights) == text
    assert parse_graph(format_graph(wg.graph, wg.weights)).weights == wg.weights


def test_format_rejects_a_fraction_with_no_finite_decimal():
    with pytest.raises(ValueError, match="no finite decimal"):
        format_graph(parse_graph("p 1 0\n").graph, (Fraction(1, 3),))


def test_format_skips_unit_weights():
    text = format_graph(parse_graph("p 2 1\ne 1 2\nw 1 3\n").graph, (3, 1))
    assert "w 1 3" in text
    assert "w 2" not in text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p 2 0\np 2 0\n", "duplicate header"),
        ("e 1 2\n", "edge before header"),
        ("p 2 1\ne 1 3\n", "out of range"),
        ("p 2 1\ne 1 1\n", "self-loop"),
        ("p 3 2\ne 1 2\ne 2 1\n", "duplicate edge"),
        ("p 2 0\nw 1 2\nw 1 3\n", "duplicate weight"),
        ("p 2 0\nq 1\n", "unknown record"),
        ("p 2 2\ne 1 2\n", "announced 2 edges"),
        ("p 0 0\n", "need n >= 1"),
        ("p 2 0\nw 3 1\n", "out of range"),
        ("w 1 2\n", "weight before header"),
        ("p 2 1\ne 1\n", "edge must be"),
        ("p 2 1\ne 1 2 3\n", "edge must be"),
        ("p 2 1\ne 1 x\n", "edge needs integers"),
        ("p 2\n", "header must be"),
        ("p a 1\n", "header needs integers"),
        ("p 2 0\nw 1 abc\n", "cannot parse weight"),
        ("p 2 0\nw 1 nan\n", "not a finite number"),
        ("p 2 0\nw 1 -inf\n", "not a finite number"),
        ("p 2 0\nw 1 1/3\n", "cannot parse weight"),
        ("p 2 0\nw 1 1e1000000000\n", "exponent beyond"),
        ("p 1000000000000 0\n", "more than the limit"),
        ("p 4 7\n", "announced 7 edges, more than 4 vertices can hold"),
        ("", "missing"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text)
