"""Monomial order: cross-check against an independent comparator,
context compatibility, and the keyword plumbing."""

import functools
import random
from fractions import Fraction

import pytest
from conftest import rand_base, rand_mono, rand_poly

from rigbasis import (
    THETA,
    CommMonomial,
    Context,
    Polynomial,
    RigMonomial,
    Word,
    order_for,
)

# ---------------------------------------------------------------------------
# Reference comparator, written from the definitions rather than from skey.
# Base monomials compare by degree first, then by the variables read from the
# last position backwards.  Bag monomials compare by the multiset extension:
# list the components, largest first, and compare those lists left to right,
# a proper prefix losing.


def _cmp(a, b):
    return (a > b) - (a < b)


def cmp_word(u, v):
    d = _cmp(len(u.letters), len(v.letters))
    if d:
        return d
    return _cmp(tuple(reversed(u.letters)), tuple(reversed(v.letters)))


def cmp_comm(u, v):
    d = _cmp(sum(u.exps), sum(v.exps))
    if d:
        return d
    return _cmp(tuple(reversed(u.exps)), tuple(reversed(v.exps)))


def cmp_mono(m, n, cmp_base):
    key = functools.cmp_to_key(cmp_base)
    ms = sorted(_expand(m), key=key, reverse=True)
    ns = sorted(_expand(n), key=key, reverse=True)
    for a, b in zip(ms, ns):
        d = cmp_base(a, b)
        if d:
            return d
    return _cmp(len(ms), len(ns))


def _expand(m):
    out = []
    for base, mult in m.runs:
        out.extend([base] * mult)
    return out


def _reference_less(m, n, commutative):
    cmp_base = cmp_comm if commutative else cmp_word
    return cmp_mono(m, n, cmp_base) < 0


# ---------------------------------------------------------------------------


def test_order_agrees_with_reference_comparator():
    rng = random.Random(201)
    for commutative, keyword in ((True, "wtlex"), (False, "deglenrlex")):
        order = order_for(keyword, commutative)
        for _ in range(2500):
            m = rand_mono(rng, 2, commutative)
            n = rand_mono(rng, 2, commutative)
            assert order.less(m, n) == _reference_less(m, n, commutative)
            assert order.compare(m, n) == -order.compare(n, m)
            assert (order.compare(m, n) == 0) == (m == n)


def _rand_runs_mono(rng, bases):
    return RigMonomial(tuple((rng.choice(bases), rng.randint(1, 4))
                             for _ in range(rng.randint(0, 3))))


def test_order_agrees_with_reference_on_multiplicities():
    # few bases and multiplicities up to 4, so equal bases with unequal
    # multiplicities meet often
    rng = random.Random(208)
    for commutative, keyword in ((True, "wtlex"), (False, "deglenrlex")):
        order = order_for(keyword, commutative)
        for _ in range(50):
            bases = [rand_base(rng, 2, commutative, max_deg=2)
                     for _ in range(3)]
            for _ in range(40):
                m = _rand_runs_mono(rng, bases)
                n = _rand_runs_mono(rng, bases)
                assert order.less(m, n) == _reference_less(m, n, commutative)
                assert (order.compare(m, n) == 0) == (m == n)


def test_multiplicity_and_prefix_cases():
    for commutative, keyword, b, c in (
            (True, "wtlex", CommMonomial((2,)), CommMonomial((1,))),
            (False, "deglenrlex", Word((0, 1)), Word((1,)))):
        order = order_for(keyword, commutative)
        assert order.less(RigMonomial.singleton(c), RigMonomial.singleton(b))
        b2, b3 = RigMonomial.singleton(b, 2), RigMonomial.singleton(b, 3)
        b2c = b2.circ(RigMonomial.singleton(c))
        b2c3 = b2.circ(RigMonomial.singleton(c, 3))
        # ascending: 2b is a proper prefix of 2b + c, and 2b + c loses to
        # 3b at its third component, c < b, whatever c's multiplicity
        chain = [THETA, b2, b2c, b2c3, b3]
        for i, m in enumerate(chain):
            for j, n in enumerate(chain):
                assert order.less(m, n) == (i < j)
                assert _reference_less(m, n, commutative) == (i < j)


def test_key_length_is_twice_the_runs():
    rng = random.Random(209)
    for commutative in (True, False):
        for _ in range(300):
            m = rand_mono(rng, 2, commutative, max_len=5)
            m = m.circ(m)
            assert len(m.skey) == 2 * len(m.runs)
    # (1 + x)^18: 19 runs and 2^18 components, a key of 38 items
    one_plus_x = RigMonomial.from_components(
        [CommMonomial((0,)), CommMonomial((1,))])
    m = one_plus_x
    for _ in range(17):
        m = m.times(one_plus_x)
    assert len(m.runs) == 19 and m.circ_len() == 2 ** 18
    assert len(m.skey) == 38


def test_order_is_total_and_transitive():
    rng = random.Random(202)
    for commutative, keyword in ((True, "wtlex"), (False, "deglenrlex")):
        order = order_for(keyword, commutative)
        for _ in range(500):
            ms = [rand_mono(rng, 2, commutative) for _ in range(3)]
            a, b, c = sorted(ms, key=order.key)
            assert not order.less(b, a)
            assert not order.less(c, b)
            if order.less(a, b) and order.less(b, c):
                assert order.less(a, c)


def test_theta_is_minimal():
    rng = random.Random(203)
    for commutative, keyword in ((True, "wtlex"), (False, "deglenrlex")):
        order = order_for(keyword, commutative)
        for _ in range(200):
            m = rand_mono(rng, 2, commutative)
            if m != THETA:
                assert order.less(THETA, m)


def test_submonomial_is_smaller():
    rng = random.Random(204)
    for commutative, keyword in ((True, "wtlex"), (False, "deglenrlex")):
        order = order_for(keyword, commutative)
        for _ in range(300):
            m = rand_mono(rng, 2, commutative)
            u = rand_mono(rng, 2, commutative)
            if not u.is_theta:
                assert order.less(m, m.circ(u))


def _rand_context(rng, nvars, commutative):
    left = rand_base(rng, nvars, commutative, max_deg=2)
    if commutative:
        return Context(left=left, right=None,
                       pad=rand_mono(rng, nvars, commutative, max_len=2))
    return Context(left=left,
                   right=rand_base(rng, nvars, commutative, max_deg=2),
                   pad=rand_mono(rng, nvars, commutative, max_len=2))


def test_context_application_preserves_order():
    # m < n stays m < n after scaling into any context, 10**4 cases
    rng = random.Random(205)
    for commutative, keyword in ((True, "wtlex"), (False, "deglenrlex")):
        order = order_for(keyword, commutative)
        checked = 0
        while checked < 5000:
            m = rand_mono(rng, 2, commutative)
            n = rand_mono(rng, 2, commutative)
            if m == n:
                continue
            if order.less(n, m):
                m, n = n, m
            ctx = _rand_context(rng, 2, commutative)
            assert order.less(ctx.apply_mon(m), ctx.apply_mon(n))
            checked += 1


def test_power_beats_split_bag():
    # one variable: x^3 is above x o x even though the bag has more parts
    x = CommMonomial.variable(0, 1)
    x3 = CommMonomial.variable(0, 1, 3)
    order = order_for("wtlex", True)
    cube = RigMonomial.singleton(x3)
    split = RigMonomial.from_components([x, x])
    assert order.less(split, cube)
    # and still after multiplying both by x
    ctx = Context(left=x, right=None, pad=THETA)
    assert order.less(ctx.apply_mon(split), ctx.apply_mon(cube))
    # word mode analogue
    worder = order_for("deglenrlex", False)
    a = Word((0,))
    assert worder.less(RigMonomial.from_components([a, a]),
                       RigMonomial.singleton(a.mul(a).mul(a)))


def test_keyword_validation():
    with pytest.raises(ValueError):
        order_for("lex", True)
    with pytest.raises(ValueError):
        order_for("wtlex", False)
    with pytest.raises(ValueError):
        order_for("deglenrlex", True)
    assert order_for("wtlex", True).commutative
    assert not order_for("deglenrlex", False).commutative


def test_base_key_type_check():
    order = order_for("wtlex", True)
    with pytest.raises(TypeError):
        order.base_key(Word((0,)))
    worder = order_for("deglenrlex", False)
    with pytest.raises(TypeError):
        worder.base_key(CommMonomial((1,)))


def test_leading_and_make_monic():
    rng = random.Random(206)
    order = order_for("wtlex", True)
    with pytest.raises(ValueError):
        order.leading(Polynomial.zero())
    for _ in range(200):
        f = rand_poly(rng, 2, True, max_terms=4)
        if f.is_zero():
            continue
        m, c = order.leading(f)
        assert all(not order.less(m, other) for other in f.support())
        monic = order.make_monic(f)
        assert order.leading(monic) == (m, Fraction(1))
        assert monic.scale(c).terms == f.terms


def test_sorted_ascending():
    rng = random.Random(207)
    order = order_for("deglenrlex", False)
    ms = [rand_mono(rng, 2, False) for _ in range(50)]
    s = order.sorted_ascending(ms)
    for a, b in zip(s, s[1:]):
        assert not order.less(b, a)
