"""Ambiguity enumeration for relation pairs and triviality checking."""

import random
from fractions import Fraction

import pytest
from conftest import rand_mono

from rigbasis import (
    KIND_COMM,
    KIND_INCLUSION,
    KIND_INTERSECTION,
    THETA,
    CommMonomial,
    CompletionLimits,
    CompositionRecord,
    Context,
    Polynomial,
    Relation,
    RigMonomial,
    Word,
    complete,
    compositions,
    lcm_circ,
    orient_pair,
    parse_expr,
    parse_presentation,
    preset,
    triviality,
)
from rigbasis.composition import _record

FL = preset("fiore-leinster")
BLASS = preset("blass")


def _self_records(pre):
    system = pre.presentation.system()
    (rid, rel), = system.active()
    return system, compositions(rel, rel, rid, rid, system.commutative,
                                system.ident)


def test_tree_equation_self_overlaps():
    # x = 1 + x^2 against itself: the two lhs copies overlap at
    # 1 + x^2 + x^4, and the spoly relates next-lower bags
    system, records = _self_records(BLASS)
    pres = BLASS.presentation
    assert records
    assert all(r.kind == KIND_COMM for r in records)
    w = parse_expr("1 + x^2 + x^4", pres)
    hits = [r for r in records if r.ambiguity == w]
    # the two mirror-image sites survive as separate records whose
    # spolys are negatives; monic form is shared
    assert len(hits) == 2
    assert {(r.a, r.b) for r in hits} == {(h.b, h.a) for h in hits}
    want = Polynomial.monomial(parse_expr("x + x^4", pres)).sub(
        Polynomial.monomial(parse_expr("1 + x^3", pres)))
    for rec in hits:
        got = system.order.make_monic(rec.spoly)
        assert got.terms == want.terms


def test_list_equation_self_overlaps():
    # x = 1 + x + x^2 + x^3 overlapping itself at the shift-by-x site;
    # the resulting spoly is exactly the second relation of the
    # completed basis
    system, records = _self_records(FL)
    pres = FL.presentation
    w = parse_expr("1 + x + x^2 + x^3", pres)
    hits = [r for r in records if r.ambiguity == w]
    assert len(hits) == 2
    want = Polynomial.monomial(parse_expr("x + x^3", pres)).sub(
        Polynomial.monomial(parse_expr("1 + x^2", pres)))
    for rec in hits:
        got = system.order.make_monic(rec.spoly)
        assert got.terms == want.terms


def test_coincident_sites_are_merged():
    # distinct site pairs that induce the same cofactors collapse to one
    # record: the list equation meets itself in exactly 4 ways
    _, records = _self_records(FL)
    assert len(records) == 4
    assert len({(r.a, r.b) for r in records}) == len(records)


def test_spoly_sits_below_ambiguity():
    rng = random.Random(401)
    pres = parse_presentation(
        "mode: commutative\nvars: x y\norder: wtlex\nrel: x = y\n")
    order = pres.order()
    ident = CommMonomial.identity(2)
    for _ in range(300):
        a = rand_mono(rng, 2, True, max_len=2, max_deg=2)
        b = rand_mono(rng, 2, True, max_len=2, max_deg=2)
        c = rand_mono(rng, 2, True, max_len=2, max_deg=2)
        d = rand_mono(rng, 2, True, max_len=2, max_deg=2)
        if a == b or c == d:
            continue
        f = orient_pair(a, b, order)
        g = orient_pair(c, d, order)
        for rec in compositions(f, g, 0, 1, True, ident):
            if rec.spoly.is_zero():
                continue
            lead, _ = order.leading(rec.spoly)
            assert order.less(lead, rec.ambiguity)
            # both contexts really land on the ambiguity
            assert rec.ctx_f.apply_mon(f.lhs) == rec.ambiguity
            assert rec.ctx_g.apply_mon(g.lhs) == rec.ambiguity
            # and the spoly is their difference pulled back to the rhs sides
            diff = rec.ctx_f.apply(f.poly()).sub(rec.ctx_g.apply(g.poly()))
            assert rec.spoly.terms == diff.neg().terms or \
                rec.spoly.terms == diff.terms


def test_spoly_below_ambiguity_nc():
    rng = random.Random(402)
    pres = parse_presentation(
        "mode: noncommutative\nvars: a b\norder: deglenrlex\nrel: a = b\n")
    order = pres.order()
    ident = Word(())
    for _ in range(300):
        ms = [rand_mono(rng, 2, False, max_len=2, max_deg=2)
              for _ in range(4)]
        if ms[0] == ms[1] or ms[2] == ms[3]:
            continue
        f = orient_pair(ms[0], ms[1], order)
        g = orient_pair(ms[2], ms[3], order)
        for rec in compositions(f, g, 0, 1, False, ident):
            if rec.spoly.is_zero():
                continue
            lead, _ = order.leading(rec.spoly)
            assert order.less(lead, rec.ambiguity)
            assert rec.ctx_f.apply_mon(f.lhs) == rec.ambiguity
            assert rec.ctx_g.apply_mon(g.lhs) == rec.ambiguity
            diff = rec.ctx_f.apply(f.poly()).sub(rec.ctx_g.apply(g.poly()))
            assert rec.spoly.terms == diff.neg().terms or \
                rec.spoly.terms == diff.terms


def test_record_self_checks_reject_bad_records():
    # a pad that misses the ambiguity, and an ambiguity the S-pair is
    # not below, are both refused
    pres = BLASS.presentation
    system = pres.system()
    (_, rel), = system.active()
    ident = system.ident
    x = CommMonomial.variable(0, 1)
    w, uu, vv = lcm_circ(rel.lhs.scaled(x), rel.lhs)
    ctx_f, ctx_g = Context(x, ident, uu), Context(ident, ident, vv)
    args = (rel, rel, 0, 0, KIND_COMM, None, None, x, ident)
    rec = _record(*args, ctx_f, ctx_g, w, rel.lhs.scaled(x), rel.lhs)
    assert rec.spoly == ctx_f.apply(rel.poly()).sub(ctx_g.apply(rel.poly()))
    with pytest.raises(AssertionError, match="do not meet"):
        _record(*args, ctx_f, ctx_g, w, rel.lhs, rel.lhs)
    low = parse_expr("x", pres)
    with pytest.raises(AssertionError, match="not below"):
        _record(*args, Context(x, ident, THETA), Context(ident, ident, THETA),
                low, low, low)
    # a lazy record checks the built one against its zero test and degree
    site = (x, ident), (ident, ident)
    assert CompositionRecord(*args, *site, 3).spoly == rec.spoly
    for cf, degree in (((ident, ident), 2), (site[0], 4)):
        with pytest.raises(AssertionError, match="contradicts"):
            CompositionRecord(*args, cf, site[1], degree).mf


def _nc_relation(pres, lhs, rhs):
    order = pres.order()
    return orient_pair(parse_expr(lhs, pres), parse_expr(rhs, pres), order)


def test_nc_intersection_and_inclusion_kinds():
    pres = parse_presentation(
        "mode: noncommutative\nvars: a b\norder: deglenrlex\nrel: a = b\n")
    ident = Word(())
    # suffix of a b meets prefix of b a inside a b a
    f = _nc_relation(pres, "a b", "a")
    g = _nc_relation(pres, "b a", "b")
    recs = compositions(f, g, 0, 1, False, ident)
    kinds = {r.kind for r in recs}
    assert KIND_INTERSECTION in kinds
    aba = parse_expr("a b a", pres)
    assert any(r.ambiguity == aba for r in recs)
    # a b a contains b: one word inside the other
    h = _nc_relation(pres, "a b a", "b b")
    k = _nc_relation(pres, "b", "a")
    recs2 = compositions(h, k, 0, 1, False, ident)
    assert {r.kind for r in recs2} >= {KIND_INCLUSION}
    assert any(r.ambiguity == parse_expr("a b a", pres) for r in recs2)


def test_nc_inclusion_with_empty_outer_factors():
    # p equals q: the embedding with both outer words empty still counts
    pres = parse_presentation(
        "mode: noncommutative\nvars: a b\norder: deglenrlex\nrel: a = b\n")
    ident = Word(())
    f = _nc_relation(pres, "a b + a", "a")
    g = _nc_relation(pres, "a b", "b")
    recs = compositions(f, g, 0, 1, False, ident)
    inc = [r for r in recs if r.kind == KIND_INCLUSION]
    assert any(r.a == Word(()) and r.b == Word(()) for r in inc)


def test_commutative_pairs_include_disjoint_leads():
    # no coprimality shortcut: x^2 against y^2 still forms a pair
    pres = parse_presentation(
        "mode: commutative\nvars: x y\norder: wtlex\nrel: x = y\n")
    ident = CommMonomial.identity(2)
    f = _comm_rel(pres, "x^2", "x")
    g = _comm_rel(pres, "y^2", "y")
    recs = compositions(f, g, 0, 1, True, ident)
    assert recs
    assert any(r.ambiguity == parse_expr("x^2 y^2", pres) for r in recs)


def _comm_rel(pres, lhs, rhs):
    order = pres.order()
    return orient_pair(parse_expr(lhs, pres), parse_expr(rhs, pres), order)


def test_triviality_accepts_resolvable_spoly():
    system = BLASS.basis_system()
    pres = BLASS.presentation
    spoly = Polynomial.monomial(parse_expr("x + x^4", pres)).sub(
        Polynomial.monomial(parse_expr("1 + x^3", pres)))
    w = parse_expr("1 + x^2 + x^4", pres)
    ok, witness = triviality(spoly, system, w)
    assert ok and witness is None


def test_triviality_reports_monic_witness():
    # the defining relation alone cannot resolve its own overlap
    system = BLASS.presentation.system()
    pres = BLASS.presentation
    spoly = Polynomial.monomial(parse_expr("x + x^4", pres)).sub(
        Polynomial.monomial(parse_expr("1 + x^3", pres)))
    w = parse_expr("1 + x^2 + x^4", pres)
    ok, witness = triviality(spoly, system, w)
    assert not ok
    lead, coeff = system.order.leading(witness)
    assert coeff == Fraction(1)


def test_triviality_rejects_polynomial_at_or_above_w():
    system = BLASS.basis_system()
    pres = BLASS.presentation
    h = Polynomial.monomial(parse_expr("1 + x^2 + x^4", pres))
    with pytest.raises(ValueError):
        triviality(h, system, parse_expr("1 + x^2 + x^4", pres))


def test_zero_spoly_is_trivial():
    system = BLASS.basis_system()
    ok, witness = triviality(Polynomial.zero(), system,
                             parse_expr("x", BLASS.presentation))
    assert ok and witness is None


def _eager_sites(f, g, commutative, ident):
    """Reference: the eager enumeration compositions() replaced.  It
    builds every site in full, contexts and S-pair included, and drops
    a site when its two rhs images coincide."""
    out = []
    seen = set()

    def build(kind, p, q, a, b, cf, cg, lf, lg):
        w, uu, vv = lcm_circ(lf, lg)
        ctx_f, ctx_g = Context(*cf, uu), Context(*cg, vv)
        mf, mg = ctx_f.apply_mon(f.rhs), ctx_g.apply_mon(g.rhs)
        if mf != mg:
            out.append((kind, p, q, a, b, w, mf, mg, ctx_f, ctx_g))

    for p in f.lhs.distinct_components():
        for q in g.lhs.distinct_components():
            if commutative:
                l = p.lcm(q)
                a, b = l.div(p), l.div(q)
                if (a.skey, b.skey) not in seen:
                    seen.add((a.skey, b.skey))
                    build(KIND_COMM, p, q, a, b, (a, ident), (b, ident),
                          f.lhs.scaled(a), g.lhs.scaled(b))
                continue
            lp, lq = p.letters, q.letters
            for k in range(1, min(len(lp), len(lq))):
                if lp[len(lp) - k:] != lq[:k]:
                    continue
                a, b = Word(lq[k:]), Word(lp[:len(lp) - k])
                if (KIND_INTERSECTION, a.skey, b.skey) not in seen:
                    seen.add((KIND_INTERSECTION, a.skey, b.skey))
                    build(KIND_INTERSECTION, p, q, a, b, (ident, a),
                          (b, ident), f.lhs.scaled(ident, a),
                          g.lhs.scaled(b, ident))
            for a, b in p.occurrences(q):
                if (KIND_INCLUSION, a.skey, b.skey) not in seen:
                    seen.add((KIND_INCLUSION, a.skey, b.skey))
                    build(KIND_INCLUSION, p, q, a, b, (ident, ident),
                          (a, b), f.lhs, g.lhs.scaled(a, b))
    return out


_COMM_RAW = parse_presentation(
    "mode: commutative\nvars: x y\nrel: x + y = 1 + x\n")
_NC_RAW = parse_presentation(
    "mode: noncommutative\nvars: x y\nrel: 1 + y^2 = x y\n")


@pytest.mark.parametrize("pres, limits", [
    (FL.presentation, CompletionLimits()),
    (BLASS.presentation, CompletionLimits()),
    (preset("znc").presentation, CompletionLimits()),
    (_COMM_RAW, None),
    (_COMM_RAW, CompletionLimits(6, 100)),
    (_NC_RAW, None),
    (_NC_RAW, CompletionLimits(4, 100)),
], ids=["fiore-leinster-basis", "blass-basis", "znc-basis", "comm-raw",
        "comm-truncated", "nc-raw", "nc-truncated"])
def test_zero_test_and_degree_agree_with_eager_build(pres, limits):
    # the signed-delta zero test keeps exactly the sites whose eagerly
    # built S-pair is nonzero, in the same order, and the predicted
    # degree is the ambiguity's greatest component degree; over every
    # ordered pair of a completed basis, a raw system or a truncation
    system = pres.system()
    if limits is not None:
        system = complete(pres.relations, pres.commutative, pres.alphabet,
                          order=pres.order(), limits=limits).basis
    act = system.active()
    for i, f in act:
        for j, g in act:
            recs = compositions(f, g, i, j, system.commutative,
                                system.ident)
            for rec in recs:
                assert rec.degree == rec.ambiguity.max_component_degree()
            got = [(r.kind, r.p, r.q, r.a, r.b, r.ambiguity, r.mf, r.mg,
                    r.ctx_f, r.ctx_g) for r in recs]
            assert got == _eager_sites(f, g, system.commutative,
                                       system.ident), (i, j)
