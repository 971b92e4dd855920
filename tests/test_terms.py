"""Algebra laws for base monomials, bag monomials, and polynomials."""

import random
from fractions import Fraction

from conftest import rand_base, rand_comm_base, rand_mono, rand_poly, rand_word

from rigbasis import (
    THETA,
    CommMonomial,
    Polynomial,
    RigMonomial,
    Word,
    lcm_circ,
)


def test_word_mul_concatenates_and_tracks_degree():
    u = Word((0, 1))
    v = Word((1,))
    assert u.mul(v) == Word((0, 1, 1))
    assert u.mul(v).degree() == 3
    assert Word(()).is_identity
    assert u.mul(Word(())) == u
    assert Word(()).mul(u) == u


def test_word_mul_is_not_commutative():
    a = Word((0,))
    b = Word((1,))
    assert a.mul(b) != b.mul(a)


def test_word_occurrences_against_brute_force():
    rng = random.Random(101)
    for _ in range(400):
        w = rand_word(rng, 2, max_len=6)
        s = rand_word(rng, 2, max_len=3)
        got = w.occurrences(s)
        expected = []
        n, k = len(w.letters), len(s.letters)
        for i in range(n - k + 1):
            if w.letters[i:i + k] == s.letters:
                expected.append((Word(w.letters[:i]), Word(w.letters[i + k:])))
        assert got == expected
        for a, b in got:
            assert a.mul(s).mul(b) == w


def test_comm_monomial_divides_div_lcm():
    rng = random.Random(102)
    for _ in range(400):
        u = rand_comm_base(rng, 3)
        v = rand_comm_base(rng, 3)
        w = u.lcm(v)
        assert u.divides(w) and v.divides(w)
        assert w.div(u).mul(u) == w
        assert w.div(v).mul(v) == w
        # lcm is the least: anything both divide is a multiple of it
        if u.divides(v):
            assert w == v
        prod = u.mul(v)
        assert u.divides(prod)
        assert prod.div(u) == v
    one = CommMonomial.identity(3)
    assert one.is_identity and one.degree() == 0
    assert CommMonomial.variable(1, 3, 2).exps == (0, 2, 0)


def test_circ_is_associative_commutative_with_theta_identity():
    rng = random.Random(103)
    for commutative in (True, False):
        for _ in range(200):
            a = rand_mono(rng, 2, commutative)
            b = rand_mono(rng, 2, commutative)
            c = rand_mono(rng, 2, commutative)
            assert a.circ(b) == b.circ(a)
            assert a.circ(b).circ(c) == a.circ(b.circ(c))
            assert a.circ(THETA) == a
            assert THETA.circ(a) == a


def test_times_distributes_over_circ_and_theta_absorbs():
    rng = random.Random(104)
    for commutative in (True, False):
        for _ in range(200):
            a = rand_mono(rng, 2, commutative)
            b = rand_mono(rng, 2, commutative)
            c = rand_mono(rng, 2, commutative)
            assert a.times(b.circ(c)) == a.times(b).circ(a.times(c))
            assert a.times(b).times(c) == a.times(b.times(c))
            assert a.times(THETA) == THETA
            assert THETA.times(a) == THETA


def test_times_unit_is_singleton_empty_base():
    rng = random.Random(105)
    one_nc = RigMonomial.singleton(Word(()))
    one_c = RigMonomial.singleton(CommMonomial.identity(2))
    for _ in range(100):
        m = rand_mono(rng, 2, False)
        assert m.times(one_nc) == m
        assert one_nc.times(m) == m
        n = rand_mono(rng, 2, True)
        assert n.times(one_c) == n


def test_scaled_multiplies_every_component():
    x = CommMonomial.variable(0, 1)
    m = RigMonomial.from_components([CommMonomial.identity(1), x])
    sm = m.scaled(x)
    assert sm == RigMonomial.from_components([x, x.mul(x)])
    # scaling by x on both sides of a word monomial
    a = Word((0,))
    w = RigMonomial.from_components([Word(()), Word((1,))])
    assert w.scaled(a, Word(())) == RigMonomial.from_components(
        [Word((0,)), Word((0, 1))])
    assert w.scaled(Word(()), a) == RigMonomial.from_components(
        [Word((0,)), Word((1, 0))])


def test_identity_factors_match_the_full_product():
    # mul and scaled return an operand unchanged when the other factor
    # is an identity; the result must equal the product computed in full
    rng = random.Random(110)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        ident = CommMonomial.identity(nvars)
        u = rand_comm_base(rng, nvars)
        full = CommMonomial(tuple(a + b for a, b in zip(u.exps, ident.exps)))
        assert u.mul(ident) == full and ident.mul(u) == full
        m = rand_mono(rng, nvars, True)
        by_u = RigMonomial(tuple(
            (CommMonomial(tuple(a + c for a, c in zip(u.exps, b.exps))), k)
            for b, k in m.runs))
        assert m.scaled(u, ident) == m.scaled(u) == by_u
        assert m.scaled(ident, ident) == m.scaled(ident) == m
        w = rand_mono(rng, nvars, False)
        empty = Word(())
        assert w.scaled(empty, empty) == w.scaled(empty) == w
        a, b = rand_word(rng, nvars), rand_word(rng, nvars)
        assert w.scaled(a, b) == RigMonomial(tuple(
            (Word(a.letters + c.letters + b.letters), k) for c, k in w.runs))
    ident = CommMonomial.identity(2)
    assert ident.mul(ident) == ident


def _same_monomial(got, want):
    # equal values must agree in every stored field, not only in ==
    assert type(got.runs) is tuple
    assert got.runs == want.runs
    assert got.skey == want.skey
    assert hash(got) == hash(want)
    assert got == want


def _bag(m):
    bag = {}
    for b in m.components():
        bag[b] = bag.get(b, 0) + 1
    return bag


def _times(left, base, right):
    # the product left . base . right, built from the raw letters or
    # exponents rather than through mul
    if isinstance(base, Word):
        return Word(left.letters + base.letters + right.letters)
    return CommMonomial(tuple(a + b + c for a, b, c in
                              zip(left.exps, base.exps, right.exps)))


def _non_identity(rng, commutative):
    while True:
        b = rand_base(rng, 2, commutative)
        if not b.is_identity:
            return b


def test_canonical_results_match_the_validating_constructor():
    # circ, lcm, difference and scaled build their result from runs that
    # are canonical by construction, skipping RigMonomial's check and
    # sort; each must equal the validated monomial built from runs
    # computed here independently, and so must split slices of runs
    rng = random.Random(111)
    for commutative in (True, False):
        for _ in range(300):
            m = rand_mono(rng, 2, commutative, max_len=5)
            n = rand_mono(rng, 2, commutative, max_len=5)
            _same_monomial(m.circ(n), RigMonomial.from_components(
                list(m.components()) + list(n.components())))
            bm, bn = _bag(m), _bag(n)
            lcm = {b: max(bm.get(b, 0), bn.get(b, 0)) for b in {**bm, **bn}}
            _same_monomial(m.lcm(n), RigMonomial(tuple(lcm.items())))
            w = m.lcm(n)
            _same_monomial(w.difference(m), RigMonomial(tuple(
                (b, k - bm.get(b, 0)) for b, k in lcm.items())))
            left, right = (_non_identity(rng, commutative) for _ in "lr")
            _same_monomial(m.scaled(left, right), RigMonomial.from_components(
                [_times(left, b, right) for b in m.components()]))
            for half in range(len(m.runs) + 1):
                for part in (m.runs[:half], m.runs[half:]):
                    _same_monomial(RigMonomial._canonical(part),
                                   RigMonomial(part))


def test_includes_difference_multiplicity():
    rng = random.Random(106)
    for commutative in (True, False):
        for _ in range(300):
            a = rand_mono(rng, 2, commutative)
            b = rand_mono(rng, 2, commutative)
            u = a.circ(b)
            assert u.includes(a)
            assert u.difference(a) == b
            if a.includes(b):
                assert a.difference(b).circ(b) == a
            for base, mult in u.runs:
                assert u.multiplicity(base) == mult
        assert THETA.includes(THETA)
        assert THETA.is_theta


def test_lcm_circ_is_pointwise_max():
    rng = random.Random(107)
    for commutative in (True, False):
        for _ in range(300):
            m = rand_mono(rng, 2, commutative)
            n = rand_mono(rng, 2, commutative)
            w, u, v = lcm_circ(m, n)
            assert w == m.circ(u) == n.circ(v)
            bases = set(m.distinct_components()) | set(n.distinct_components())
            for base in bases:
                assert w.multiplicity(base) == max(m.multiplicity(base),
                                                   n.multiplicity(base))
            assert w.circ_len() <= m.circ_len() + n.circ_len()


def test_monomial_measures():
    x = CommMonomial.variable(0, 1)
    x3 = CommMonomial.variable(0, 1, 3)
    m = RigMonomial.from_components([x, x, x3])
    assert m.circ_len() == 3
    assert m.total_degree() == 5
    assert m.max_component_degree() == 3
    assert m.greatest_component() == x3
    assert THETA.circ_len() == 0
    assert THETA.total_degree() == 0
    assert THETA.max_component_degree() == 0
    # the greatest base by sort key has the greatest degree
    rng = random.Random(108)
    for commutative in (True, False):
        for _ in range(200):
            m = rand_mono(rng, 3, commutative)
            assert m.max_component_degree() == max(
                (b.degree() for b in m.components()), default=0)


def test_from_components_canonicalizes():
    x = CommMonomial.variable(0, 1)
    x2 = x.mul(x)
    a = RigMonomial.from_components([x2, x, x2])
    b = RigMonomial.singleton(x).circ(RigMonomial.singleton(x2, 2))
    assert a == b
    assert hash(a) == hash(b)


def test_polynomial_ring_laws():
    rng = random.Random(108)
    for commutative in (True, False):
        for _ in range(150):
            f = rand_poly(rng, 2, commutative)
            g = rand_poly(rng, 2, commutative)
            h = rand_poly(rng, 2, commutative)
            assert f.add(g).terms == g.add(f).terms
            assert f.add(g).add(h).terms == f.add(g.add(h)).terms
            assert f.sub(f).is_zero()
            assert f.neg().neg().terms == f.terms
            assert f.scale(Fraction(2)).scale(Fraction(1, 2)).terms == f.terms
            # bilinearity of both products
            assert f.add(g).times(h).terms == f.times(h).add(g.times(h)).terms
            assert f.add(g).circ(h).terms == f.circ(h).add(g.circ(h)).terms


def test_polynomial_circ_and_times_match_monomial_ops():
    rng = random.Random(109)
    for commutative in (True, False):
        for _ in range(150):
            m = rand_mono(rng, 2, commutative)
            n = rand_mono(rng, 2, commutative)
            pm = Polynomial.monomial(m)
            pn = Polynomial.monomial(n)
            assert pm.circ(pn).terms == {m.circ(n): Fraction(1)}
            assert pm.times(pn).terms == {m.times(n): Fraction(1)}


def test_theta_polynomial_is_not_zero():
    # the additive unit as a monomial is a genuine term, distinct from
    # the zero polynomial
    p = Polynomial.monomial(THETA)
    assert not p.is_zero()
    assert p.coeff(THETA) == Fraction(1)
    assert Polynomial.zero().is_zero()
    assert p.sub(p).is_zero()


def test_polynomial_support_is_descending():
    rng = random.Random(110)
    for commutative in (True, False):
        for _ in range(100):
            f = rand_poly(rng, 2, commutative, max_terms=5)
            sup = f.support()
            assert sup == sorted(sup, key=lambda m: m.skey, reverse=True)
            assert [m for m, _ in f.items_desc()] == sup
            for m, c in f.items_desc():
                assert c != 0 and f.coeff(m) == c
