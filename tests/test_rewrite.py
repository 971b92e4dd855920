"""Occurrence search, normal forms with replayable traces, and the
irreducible-monomial enumerator."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import rand_mono, rand_poly

from rigbasis import (
    THETA,
    CommMonomial,
    CompletionLimits,
    Occurrence,
    Polynomial,
    ReductionError,
    ReductionTrace,
    Relation,
    RigMonomial,
    System,
    TraceStep,
    Word,
    base_monomials_up_to,
    complete,
    enum_irr,
    find_occurrences,
    first_occurrence,
    is_irreducible,
    normal_form,
    normal_form_monomial,
    occurs,
    orient_pair,
    parse_expr,
    parse_presentation,
    pattern_occurrences,
    preset,
)
from rigbasis.rewrite import Context

FL = preset("fiore-leinster")
BLASS = preset("blass")


def _poly(*weighted_exprs, pres):
    p = Polynomial.zero()
    for coeff, expr in weighted_exprs:
        m = parse_expr(expr, pres)
        p = p.add(Polynomial.monomial(m, Fraction(coeff)))
    return p


# ---------------------------------------------------------------------------
# occurrence search


def _brute_contexts_comm(m, pattern, nvars, ident):
    """Every context over divisors of m's components, tried directly."""
    cands = {ident}
    for base in m.distinct_components():
        divs = [CommMonomial(t) for t in itertools.product(
            *[range(e + 1) for e in base.exps])]
        cands.update(divs)
    out = set()
    for a in cands:
        scaled = pattern.scaled(a)
        if m.includes(scaled):
            out.add(Context(left=a, right=ident, pad=m.difference(scaled)))
    return out


def _brute_contexts_nc(m, pattern, nvars, max_len):
    words = [Word(t) for n in range(max_len + 1)
             for t in itertools.product(range(nvars), repeat=n)]
    out = set()
    for a in words:
        for b in words:
            scaled = pattern.scaled(a, b)
            if m.includes(scaled):
                out.add(Context(left=a, right=b, pad=m.difference(scaled)))
    return out


def test_pattern_occurrences_match_exhaustive_search_comm():
    rng = random.Random(301)
    ident = CommMonomial.identity(2)
    for _ in range(300):
        m = rand_mono(rng, 2, True, max_len=3, max_deg=3)
        pattern = rand_mono(rng, 2, True, max_len=2, max_deg=2)
        if pattern.is_theta:
            continue
        got = set(pattern_occurrences(m, pattern, True, ident))
        want = _brute_contexts_comm(m, pattern, 2, ident)
        assert got == want
        for ctx in got:
            assert ctx.apply_mon(pattern) == m


def test_pattern_occurrences_match_exhaustive_search_nc():
    rng = random.Random(302)
    ident = Word(())
    for _ in range(150):
        m = rand_mono(rng, 2, False, max_len=3, max_deg=3)
        pattern = rand_mono(rng, 2, False, max_len=2, max_deg=2)
        if pattern.is_theta:
            continue
        got = set(pattern_occurrences(m, pattern, False, ident))
        want = _brute_contexts_nc(m, pattern, 2, 4)
        assert got == want


def test_theta_pattern_occurs_once_trivially():
    # the empty bag sits inside anything in exactly one way
    ident = CommMonomial.identity(1)
    m = parse_expr("1 + x^2", BLASS.presentation)
    occs = pattern_occurrences(m, THETA, True, ident)
    assert len(occs) == 1
    assert occs[0].pad == m


def test_known_occurrence_site():
    # 1 + x + x^3 contains the tree-equation pattern scaled by x
    pres = BLASS.presentation
    m = parse_expr("1 + x + x^3", pres)
    pattern = parse_expr("1 + x^2", pres)
    ident = CommMonomial.identity(1)
    occs = pattern_occurrences(m, pattern, True, ident)
    x = CommMonomial.variable(0, 1)
    assert [(c.left, c.pad) for c in occs] == [
        (x, RigMonomial.singleton(CommMonomial.identity(1)))]


def test_find_occurrences_respects_active_ids():
    sys_full = BLASS.basis_system()
    m = parse_expr("1 + x^2", BLASS.presentation)
    occs = find_occurrences(m, sys_full)
    assert occs and occs[0].rel_id == 0
    pruned = sys_full.without(0)
    assert all(o.rel_id != 0 for o in find_occurrences(m, pruned))


# ---------------------------------------------------------------------------
# first-fit search and one-term steps, against the definitions they replaced


def _ref_pattern_occurrences(m, pattern, commutative, ident):
    """Every context: scale the pattern by each anchor cofactor and keep
    the scaled patterns m includes."""
    if pattern.is_theta:
        return [Context(ident, ident, m)]
    anchor = pattern.greatest_component()
    cands = set()
    for c in m.distinct_components():
        if commutative:
            if anchor.divides(c):
                cands.add((c.div(anchor), ident))
        else:
            cands.update(c.occurrences(anchor))
    out = []
    for a, b in sorted(cands, key=lambda ab: (ab[0].skey, ab[1].skey)):
        req = pattern.scaled(a, b)
        if m.includes(req):
            out.append(Context(a, b, m.difference(req)))
    return out


def _ref_first_occurrence(m, system):
    """The first context of the first relation, in index order, that has
    any."""
    for i, rel in system.active():
        ctxs = _ref_pattern_occurrences(m, rel.lhs, system.commutative,
                                        system.ident)
        if ctxs:
            return Occurrence(i, ctxs[0])
    return None


def _ref_normal_form(f, system, max_steps=10 ** 6):
    """Reduction by whole-polynomial steps: f - alpha * context[lhs - rhs]."""
    work, steps, known_irr = f, [], set()
    while True:
        target = occ = None
        for m in work.support():
            if m in known_irr:
                continue
            o = _ref_first_occurrence(m, system)
            if o is None:
                known_irr.add(m)
                continue
            target, occ = m, o
            break
        if target is None:
            return work, ReductionTrace(tuple(steps))
        if len(steps) >= max_steps:
            raise ReductionError("reduction budget exhausted")
        alpha = work.terms[target]
        rel = system.relations[occ.rel_id]
        work = work.sub(occ.context.apply(rel.poly()).scale(alpha))
        steps.append(TraceStep(alpha, occ.rel_id, occ.context))


def _completed(pres, limits=None):
    return complete(pres.relations, pres.commutative, pres.alphabet,
                    order=pres.order(), limits=limits).basis


def test_first_occurrence_matches_reference():
    raw = parse_presentation(
        "mode: commutative\nvars: x y\nrel: x + y = 1 + x\n")
    blass = BLASS.presentation
    x = RigMonomial.singleton(CommMonomial.variable(0, 1))
    # a theta lhs matches everything, so it fires wherever the blass
    # relations before it do not
    theta_lhs = System(True, blass.alphabet, blass.order(),
                       _completed(blass).relations + (Relation(THETA, x),))
    systems = [_completed(FL.presentation), _completed(blass),
               _completed(preset("znc").presentation), raw.system(),
               _completed(raw, CompletionLimits(4, 50))]
    rng = random.Random(311)
    for system in systems:
        comm, nvars = system.commutative, len(system.alphabet)
        for _ in range(100):
            m = rand_mono(rng, nvars, comm, max_len=6, max_deg=3)
            assert first_occurrence(m, system) == _ref_first_occurrence(
                m, system)
            for _, rel in system.active():
                want = _ref_pattern_occurrences(m, rel.lhs, comm,
                                                system.ident)
                assert pattern_occurrences(m, rel.lhs, comm,
                                           system.ident) == want
                assert occurs(m, rel.lhs, comm, system.ident) == bool(want)
            f = rand_poly(rng, nvars, comm, max_terms=3, max_len=3,
                          max_deg=3)
            for g in (Polynomial.monomial(m), f):
                if g.is_zero():
                    continue
                nf, trace = normal_form(g, system)
                want_nf, want_trace = _ref_normal_form(g, system)
                assert nf.terms == want_nf.terms
                assert trace == want_trace
    for _ in range(40):
        m = rand_mono(rng, 1, True, max_len=6, max_deg=3)
        got = first_occurrence(m, theta_lhs)
        assert got == _ref_first_occurrence(m, theta_lhs)
        assert got is not None
        for ref in (normal_form, _ref_normal_form):
            with pytest.raises(ReductionError):
                ref(Polynomial.monomial(m), theta_lhs, max_steps=30)


def test_wide_power_step_counts():
    # fiore-leinster (1+x)^11 is the benchmark's slowest normal form
    for pre, want in ((FL, 1161), (BLASS, 2269)):
        pres = pre.presentation
        f = Polynomial.monomial(parse_expr("(1 + x)^11", pres))
        _, trace = normal_form(f, _completed(pres))
        assert len(trace.steps) == want


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_trace_replay_identity():
    rng = random.Random(303)
    for pre in (FL, BLASS):
        system = pre.basis_system()
        for _ in range(150):
            f = rand_poly(rng, 1, True, max_terms=3, max_len=3, max_deg=5)
            nf, trace = normal_form(f, system)
            assert f.sub(trace.replay(system)).terms == nf.terms
            for m in nf.support():
                assert is_irreducible(m, system)
            again, trace2 = normal_form(nf, system)
            assert again.terms == nf.terms and not trace2.steps


def test_normal_form_strict_descent():
    system = BLASS.basis_system()
    f = _poly((1, "x^6"), pres=BLASS.presentation)
    nf, trace = normal_form(f, system)
    order = system.order
    eliminated = []
    for st in trace.steps:
        rel = system.relations[st.rel_id]
        eliminated.append(st.context.apply_mon(rel.lhs))
    for a, b in zip(eliminated, eliminated[1:]):
        assert order.less(b, a)
    assert all(is_irreducible(m, system) for m in nf.support())


def test_normal_form_is_deterministic():
    system = FL.basis_system()
    f = _poly((1, "x^5"), (2, "x^4"), (-1, "x^2"), pres=FL.presentation)
    nf1, t1 = normal_form(f, system)
    nf2, t2 = normal_form(f, system)
    assert nf1.terms == nf2.terms
    assert t1 == t2


def test_normal_form_budget():
    system = BLASS.basis_system()
    f = _poly((1, "x^9"), pres=BLASS.presentation)
    with pytest.raises(ReductionError):
        normal_form(f, system, max_steps=1)


def test_normal_form_monomial():
    system = BLASS.basis_system()
    m = parse_expr("x^2", BLASS.presentation)
    # the oriented rule sends 1 + x^2 to x, so x^2 alone stays put
    assert normal_form_monomial(m, system) == m
    lead = parse_expr("1 + x^2", BLASS.presentation)
    x = RigMonomial.singleton(CommMonomial.variable(0, 1))
    assert normal_form_monomial(lead, system) == x
    assert normal_form_monomial(
        parse_expr("x^5", BLASS.presentation), system) == parse_expr(
        "1 + x^4", BLASS.presentation)


def test_normal_form_monomial_agrees_with_polynomial_reduction():
    # binomial rules keep single monomials single through every step
    rng = random.Random(304)
    system = FL.basis_system()
    for _ in range(100):
        m = rand_mono(rng, 1, True, max_len=3, max_deg=5)
        nf, _ = normal_form(Polynomial.monomial(m), system)
        assert nf.terms == {normal_form_monomial(m, system): Fraction(1)}


def test_is_irreducible_pins():
    fl = FL.basis_system()
    assert is_irreducible(parse_expr("1 + x^3", FL.presentation), fl)
    assert not is_irreducible(parse_expr("1 + x^2 + x", FL.presentation), fl)
    bl = BLASS.basis_system()
    assert not is_irreducible(parse_expr("1 + x^2", BLASS.presentation), bl)
    assert is_irreducible(parse_expr("1 + x^3", BLASS.presentation), bl)


# ---------------------------------------------------------------------------
# irreducible enumeration


def test_base_monomials_counts():
    p = parse_presentation(
        "mode: commutative\nvars: x\norder: wtlex\nrel: x = x^2\n")
    bases = base_monomials_up_to(p.alphabet, True, 6)
    assert len(bases) == 7
    q = parse_presentation(
        "mode: noncommutative\nvars: a b\norder: deglenrlex\nrel: a b = b a\n")
    words = base_monomials_up_to(q.alphabet, False, 3)
    assert len(words) == 1 + 2 + 4 + 8


def test_enum_irr_matches_filtered_enumeration():
    for pre, max_deg, max_len in ((FL, 6, 4), (BLASS, 6, 4)):
        system = pre.basis_system()
        got = set(enum_irr(system, max_deg, max_len))
        bases = base_monomials_up_to(system.alphabet, True, max_deg)
        want = set()
        for n in range(max_len + 1):
            for combo in itertools.combinations_with_replacement(bases, n):
                m = RigMonomial.from_components(combo)
                if m.total_degree() <= max_deg and is_irreducible(m, system):
                    want.add(m)
        assert got == want


def test_enum_irr_total_degree_bound():
    system = BLASS.basis_system()
    for m in enum_irr(system, 5, 3):
        assert m.total_degree() <= 5
        assert m.circ_len() <= 3


def test_enum_irr_includes_theta():
    system = FL.basis_system()
    out = enum_irr(system, 3, 2)
    assert THETA in set(out)


# ---------------------------------------------------------------------------
# orientation


def test_orient_pair():
    pres = BLASS.presentation
    order = pres.order()
    a = parse_expr("1 + x^2", pres)
    b = parse_expr("x", pres)
    rel = orient_pair(b, a, order)
    assert rel.lhs == a and rel.rhs == b
    with pytest.raises(ValueError):
        orient_pair(a, a, order)


def test_system_without():
    system = FL.basis_system()
    ids = [i for i, _ in system.active()]
    pruned = system.without(ids[0])
    assert [i for i, _ in pruned.active()] == ids[1:]
    assert len(pruned.relations) == len(system.relations)
