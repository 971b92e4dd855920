"""Parser and renderer round-trips plus the file format's error paths."""

import random
from fractions import Fraction

import pytest
from conftest import rand_mono, rand_poly

from rigbasis import (
    THETA,
    Polynomial,
    PresentationError,
    RigMonomial,
    Word,
    normal_form,
    parse_expr,
    parse_expr_raw,
    parse_presentation,
    preset,
    render_monomial,
    render_polynomial,
    render_presentation,
    render_system_file,
    render_trace,
)

COMM = parse_presentation(
    "mode: commutative\nvars: x y\norder: wtlex\nrel: x = y\n")
NC = parse_presentation(
    "mode: noncommutative\nvars: a b\norder: deglenrlex\nrel: a = b\n")


def test_render_parse_round_trip_comm():
    rng = random.Random(601)
    for _ in range(2000):
        m = rand_mono(rng, 2, True, max_len=4, max_deg=5)
        assert parse_expr(render_monomial(m, COMM.alphabet), COMM) == m


def test_render_parse_round_trip_nc():
    rng = random.Random(602)
    for _ in range(2000):
        m = rand_mono(rng, 2, False, max_len=4, max_deg=5)
        assert parse_expr(render_monomial(m, NC.alphabet), NC) == m


def test_expression_syntax():
    assert parse_expr("0", COMM) == THETA
    assert parse_expr("1", COMM) == parse_expr("x^0", COMM)
    assert parse_expr("x*y", COMM) == parse_expr("x y", COMM)
    assert parse_expr("x y", COMM) == parse_expr("y x", COMM)
    assert parse_expr("a b", NC) != parse_expr("b a", NC)
    assert parse_expr("x^3", COMM) == parse_expr("x x x", COMM)
    # ^ binds tighter than juxtaposition
    assert parse_expr("x y^2", COMM) == parse_expr("x (y^2)", COMM)
    # + distributes through products on expansion
    assert parse_expr("x (1 + y)", COMM) == parse_expr("x + x y", COMM)
    assert parse_expr("(1 + a) (1 + b)", NC) == parse_expr(
        "1 + b + a + a b", NC)
    # anything times the empty bag collapses
    assert parse_expr("x * 0", COMM) == THETA
    assert parse_expr("(x + y) 0", COMM) == THETA
    assert parse_expr("x^0", COMM) == parse_expr("1", COMM)


def test_power_equals_repeated_product():
    for pres, texts in ((COMM, ("x", "y^2", "1 + x y", "x + y^2", "0")),
                        (NC, ("a", "b a", "1 + a b", "a + b a", "0"))):
        for text in texts:
            e = parse_expr(text, pres)
            acc = e
            for n in range(1, 10):
                assert parse_expr(f"({text})^{n}", pres) == acc
                acc = acc.times(e)


def test_expression_errors():
    for bad in ("x +", "x ^ y", "(x", "x)", "2 x", "x - y", "0^0",
                "z", "x ^", "", "x & y"):
        with pytest.raises(PresentationError):
            parse_expr(bad, COMM)


def test_parse_expr_raw():
    m = parse_expr_raw("a b + 1", NC.alphabet, False)
    assert m == parse_expr("a b + 1", NC)


def test_presentation_round_trip():
    for name in ("fiore-leinster", "blass", "nat", "chain", "znc"):
        p = preset(name).presentation
        text = render_presentation(p)
        q = parse_presentation(text)
        assert q.commutative == p.commutative
        assert q.alphabet.names == p.alphabet.names
        assert q.order_keyword == p.order_keyword
        assert q.relations == p.relations
        assert render_presentation(q) == text


def test_presentation_defaults_order():
    p = parse_presentation("mode: commutative\nvars: x\nrel: x = 1\n")
    assert p.order_keyword == "wtlex"
    q = parse_presentation("mode: noncommutative\nvars: x\nrel: x = 1\n")
    assert q.order_keyword == "deglenrlex"


def test_presentation_comments_and_blanks():
    p = parse_presentation(
        "# header\nmode: commutative\n\nvars: x  # one variable\n"
        "rel: x = 1\n")
    assert len(p.relations) == 1


def test_presentation_errors():
    cases = [
        "vars: x\nrel: x = 1\n",                          # missing mode
        "mode: commutative\nrel: x = 1\n",                # missing vars
        "mode: weird\nvars: x\n",                         # bad mode
        "mode: commutative\nmode: commutative\nvars: x\n",  # dup mode
        "mode: commutative\nvars: x\nvars: y\n",          # dup vars
        "mode: commutative\nvars: x\norder: deglenrlex\n",  # keyword mismatch
        "mode: commutative\nvars: x\norder: lex\n",       # unknown keyword
        "mode: commutative\nvars: x\norder: wtlex\norder: wtlex\n",
        "mode: commutative\nvars: x\nrel: x = x\n",       # identical sides
        "mode: commutative\nvars: x\nrel: x = 1 = 0\n",   # two =
        "mode: commutative\nvars: x\nrel: x\n",           # no =
        "mode: commutative\nvars: x\nrel: y = 1\n",       # unknown symbol
        "mode: commutative\nvars: x x\nrel: x = 1\n",     # duplicate name
        "mode: commutative\nvars:\nrel: x = 1\n",         # empty vars
        "bogus line\n",
    ]
    for text in cases:
        with pytest.raises(PresentationError):
            parse_presentation(text)


def test_render_polynomial_pins():
    assert render_polynomial(Polynomial.zero(), COMM.alphabet) == "0"
    theta_term = Polynomial.monomial(THETA)
    assert render_polynomial(theta_term, COMM.alphabet) == "(0)"
    x = parse_expr("x", COMM)
    two_x = Polynomial.monomial(x, Fraction(-2))
    assert render_polynomial(two_x, COMM.alphabet) == "-2*(x)"
    mixed = Polynomial.monomial(parse_expr("1 + x^2", COMM)).sub(
        Polynomial.monomial(x))
    assert render_polynomial(mixed, COMM.alphabet) == "(1 + x^2) - (x)"
    half = Polynomial.monomial(x, Fraction(1, 2))
    assert render_polynomial(half, COMM.alphabet) == "1/2*(x)"


def test_render_monomial_groups_runs():
    pre = preset("znc")
    m = parse_expr("x x x y'", pre.presentation)
    assert render_monomial(m, pre.presentation.alphabet) == "x^3 y'"


def test_render_system_file_round_trip():
    basis = preset("blass").basis_system()
    text = render_system_file(basis)
    p = parse_presentation(text)
    assert {tuple(r) for r in p.relations} == {
        rel.pair() for _, rel in basis.active()}


def test_render_trace_lines():
    pre = preset("blass")
    system = pre.basis_system()
    f = Polynomial.monomial(parse_expr("x^6", pre.presentation))
    nf, trace = normal_form(f, system)
    lines = render_trace(trace, system)
    assert len(lines) == len(trace.steps)
    for line in lines:
        assert "[rel #" in line and " + " in line


def test_primed_identifiers():
    pre = preset("znc")
    m = parse_expr("e' + x' y", pre.presentation)
    assert render_monomial(m, pre.presentation.alphabet) == "e' + x' y"
