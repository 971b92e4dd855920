"""Completion loop, basis verification, reduced bases, and the word
problem interface."""

import random

import pytest
from conftest import rand_mono

from rigbasis import composition
from rigbasis import (
    STATUS_COMPLETE,
    STATUS_TRUNCATED,
    CompletionLimits,
    Polynomial,
    autoreduce,
    complete,
    decide_eq,
    minimalize,
    normal_form_monomial,
    parse_expr,
    parse_presentation,
    preset,
    preset_names,
    reduce_system,
    render_relation,
    split_normal_form,
    system_from_pairs,
    verify,
)

FL = preset("fiore-leinster")
BLASS = preset("blass")
CHAIN = preset("chain")
NAT = preset("nat")


def _pairs(system):
    return {rel.pair() for _, rel in system.active()}


def _expected_pairs(pre):
    return {rel.pair() for _, rel in pre.basis_system().active()}


def test_list_object_completion_matches_known_basis():
    rep = complete(FL.presentation.relations, True, FL.presentation.alphabet)
    assert rep.status == STATUS_COMPLETE
    assert _pairs(rep.basis) == _expected_pairs(FL)
    ok, witnesses = verify(rep.basis)
    assert ok and not witnesses


def test_tree_object_completion_matches_known_basis():
    rep = complete(BLASS.presentation.relations, True,
                   BLASS.presentation.alphabet)
    assert rep.status == STATUS_COMPLETE
    assert _pairs(rep.basis) == _expected_pairs(BLASS)
    ok, witnesses = verify(rep.basis)
    assert ok and not witnesses


def test_completion_is_idempotent_on_a_basis():
    for pre in (FL, BLASS):
        basis = pre.basis_system()
        rep = complete([rel.pair() for _, rel in basis.active()],
                       True, pre.presentation.alphabet)
        assert rep.status == STATUS_COMPLETE
        assert _pairs(rep.basis) == _pairs(basis)
        # only the seed relations integrate; no overlap adds anything
        assert rep.stats["relations_added"] == len(basis.active())
        assert rep.stats["relations_retired"] == 0


def test_defining_relation_alone_is_not_a_basis():
    system = BLASS.presentation.system()
    ok, witnesses = verify(system)
    assert not ok
    pres = BLASS.presentation
    want = Polynomial.monomial(parse_expr("x + x^4", pres)).sub(
        Polynomial.monomial(parse_expr("1 + x^3", pres)))
    assert any(w.terms == want.terms for _, w in witnesses)
    # witnesses come back monic
    for _, w in witnesses:
        _, coeff = system.order.leading(w)
        assert coeff == 1


def test_growing_chain_truncates():
    # 1 + x = x forces 1 + x^n = x^n for every n; the loop reports the
    # cut instead of running away
    limits = CompletionLimits(max_ambiguity_degree=10, max_steps=10_000)
    rep = complete(CHAIN.presentation.relations, True,
                   CHAIN.presentation.alphabet, limits=limits)
    assert rep.status == STATUS_TRUNCATED
    assert rep.stats["truncation_skips"] > 0
    pres = CHAIN.presentation
    want = {(parse_expr(f"1 + x^{n}" if n > 1 else "1 + x", pres),
             parse_expr(f"x^{n}" if n > 1 else "x", pres))
            for n in range(1, 11)}
    assert _pairs(rep.basis) == want


def test_chain_truncation_degree_controls_size():
    for d in (4, 6):
        limits = CompletionLimits(max_ambiguity_degree=d, max_steps=10_000)
        rep = complete(CHAIN.presentation.relations, True,
                       CHAIN.presentation.alphabet, limits=limits)
        assert rep.status == STATUS_TRUNCATED
        assert len(rep.basis.active()) == d


def test_step_budget_truncates():
    limits = CompletionLimits(max_ambiguity_degree=50, max_steps=3)
    rep = complete(CHAIN.presentation.relations, True,
                   CHAIN.presentation.alphabet, limits=limits)
    assert rep.status == STATUS_TRUNCATED


def test_point_collapse_completion():
    # x = 1 makes every bag of x-powers equal to a bag of units
    rep = complete(NAT.presentation.relations, True,
                   NAT.presentation.alphabet)
    assert rep.status == STATUS_COMPLETE
    pres = NAT.presentation
    assert _pairs(rep.basis) == {
        (parse_expr("x", pres), parse_expr("1", pres))}


def test_decide_eq_equal_distinct_unknown():
    rep = complete(BLASS.presentation.relations, True,
                   BLASS.presentation.alphabet)
    pres = BLASS.presentation
    verdict, nf_u, nf_v = decide_eq(parse_expr("1 + x^2", pres),
                                    parse_expr("x", pres), rep)
    assert verdict == "Equal"
    assert nf_u == nf_v == parse_expr("x", pres)
    verdict, nf_u, nf_v = decide_eq(parse_expr("x^2", pres),
                                    parse_expr("x", pres), rep)
    assert verdict == "Distinct"
    assert nf_u != nf_v
    # truncated completion cannot certify inequality
    limits = CompletionLimits(max_ambiguity_degree=6, max_steps=10_000)
    trep = complete(CHAIN.presentation.relations, True,
                    CHAIN.presentation.alphabet, limits=limits)
    cpres = CHAIN.presentation
    verdict, nf_u, nf_v = decide_eq(parse_expr("1 + x^9", cpres),
                                    parse_expr("x^9", cpres), trep)
    assert verdict == "Unknown"
    verdict, _, _ = decide_eq(parse_expr("1 + x^3", cpres),
                              parse_expr("x^3", cpres), trep)
    assert verdict == "Equal"


def _rand_inputs(rng, pres, count):
    """Seeded monomials with wide runs, multiplicities and tall bases:
    random monomials, their squares and their products with a power."""
    out = []
    nvars = len(pres.alphabet)
    for _ in range(count):
        m = rand_mono(rng, nvars, pres.commutative, max_len=4, max_deg=5)
        pick = rng.randrange(3)
        if pick == 1:
            m = m.times(m)
        elif pick == 2:
            name = rng.choice(pres.alphabet.names)
            m = m.times(parse_expr(f"{name}^{rng.randint(2, 12)}", pres))
        out.append(m)
    return out


def test_split_normal_form_matches_direct():
    # every preset whose default completion is Complete, commutative
    # (fiore-leinster, blass, nat) and noncommutative (znc)
    rng = random.Random(131)
    modes = set()
    for name in preset_names():
        pres = preset(name).presentation
        if preset(name).basis_pairs is None:
            continue
        rep = complete(pres.relations, pres.commutative, pres.alphabet,
                       order=pres.order())
        assert rep.status == STATUS_COMPLETE
        modes.add(pres.commutative)
        memo = {}
        for m in _rand_inputs(rng, pres, 60):
            assert (split_normal_form(m, rep.basis, memo)
                    == normal_form_monomial(m, rep.basis))
    assert modes == {True, False}


def test_decide_eq_keeps_direct_path_when_truncated():
    # on a truncated basis the normal form depends on the strategy, and
    # decide_eq must return the direct path's normal forms
    pres = parse_presentation("mode: commutative\nvars: x y\n"
                              "rel: x + y = 1 + x\n")
    rep = complete(pres.relations, pres.commutative, pres.alphabet,
                   order=pres.order(), limits=CompletionLimits(4, 50))
    assert rep.status == STATUS_TRUNCATED
    # (x + y)^4 splits to another irreducible monomial than the direct
    # path reaches: the direct path leaves the two Unknown
    u = parse_expr("(x + y)^4", pres)
    split = split_normal_form(u, rep.basis, {})
    direct = normal_form_monomial(u, rep.basis)
    assert split != direct
    assert decide_eq(u, split, rep) == ("Unknown", direct, split)
    inputs = _rand_inputs(random.Random(132), pres, 40)
    for u, v in zip(inputs, inputs[1:]):
        nu = normal_form_monomial(u, rep.basis)
        nv = normal_form_monomial(v, rep.basis)
        verdict = "Equal" if nu == nv else "Unknown"
        assert decide_eq(u, v, rep) == (verdict, nu, nv)


def test_seven_trees_in_one():
    rep = complete(BLASS.presentation.relations, True,
                   BLASS.presentation.alphabet)
    pres = BLASS.presentation
    verdict, nf_u, nf_v = decide_eq(parse_expr("x^7", pres),
                                    parse_expr("x", pres), rep)
    assert verdict == "Equal"
    assert nf_u == parse_expr("x", pres)
    # every shorter power stays distinct
    for k in range(2, 7):
        verdict, _, _ = decide_eq(parse_expr(f"x^{k}", pres),
                                  parse_expr("x", pres), rep)
        assert verdict == "Distinct"
    # the list object analogue collapses one step sooner
    frep = complete(FL.presentation.relations, True,
                    FL.presentation.alphabet)
    fpres = FL.presentation
    verdict, _, _ = decide_eq(parse_expr("x^5", fpres),
                              parse_expr("x", fpres), frep)
    assert verdict == "Equal"


def test_minimalize_drops_derivable_lead():
    pres = parse_presentation(
        "mode: commutative\nvars: x\norder: wtlex\n"
        "rel: x^2 = x\nrel: x^3 = x\n")
    system = pres.system()
    kept = minimalize(system)
    leads = [rel.lhs for _, rel in kept.active()]
    assert leads == [parse_expr("x^2", pres)]


def test_autoreduce_normalizes_rhs():
    # leads x^2 and y^4 are independent, but the second right side
    # reduces under the first rule
    pres = parse_presentation(
        "mode: commutative\nvars: x y\norder: wtlex\n"
        "rel: x^2 = x\nrel: y^4 = x^3\n")
    system = pres.system()
    reduced = autoreduce(system)
    got = {rel.pair() for _, rel in reduced.active()}
    assert got == {(parse_expr("x^2", pres), parse_expr("x", pres)),
                   (parse_expr("y^4", pres), parse_expr("x", pres))}


def test_reduce_system_is_canonical():
    # a reduced basis has irreducible right sides and pairwise
    # irreducible left sides
    for pre in (FL, BLASS):
        basis = pre.basis_system()
        reduced = reduce_system(basis)
        assert _pairs(reduced) == _pairs(basis)
        from rigbasis import is_irreducible
        for rid, rel in reduced.active():
            rest = reduced.without(rid)
            assert is_irreducible(rel.lhs, rest)
            assert is_irreducible(rel.rhs, reduced)


def test_completion_deterministic_under_shuffle():
    rng = random.Random(501)
    base = list(FL.presentation.relations)
    reference = None
    for trial in range(5):
        pairs = list(base)
        rng.shuffle(pairs)
        rep = complete(pairs, True, FL.presentation.alphabet,
                       tie_seed=rng.randrange(2 ** 30))
        text = "\n".join(render_relation(rel, rep.basis.alphabet)
                         for _, rel in reduce_system(rep.basis).active())
        if reference is None:
            reference = text
        assert text == reference


def test_stats_shape():
    rep = complete(BLASS.presentation.relations, True,
                   BLASS.presentation.alphabet)
    for key in ("pairs_examined", "records_queued", "relations_added",
                "relations_retired", "truncation_skips",
                "max_ambiguity_degree_seen", "basis_size"):
        assert key in rep.stats
        assert isinstance(rep.stats[key], int)
    assert rep.stats["basis_size"] == len(rep.basis.active())


_STAT_KEYS = ("pairs_examined", "records_queued", "relations_added",
              "relations_retired", "truncation_skips",
              "max_ambiguity_degree_seen", "basis_size")


@pytest.mark.parametrize("text, limits, stats, basis", [
    ("mode: commutative\nvars: x y\nrel: x + y = 1 + x\n",
     CompletionLimits(6, 100), (100, 522, 8, 2, 132, 8, 6), [
         "x + y = 1 + x",
         "x + x^2 + y^2 = 1 + x + x^2",
         "x + x^2 + x^3 + y^3 = 1 + x + x^2 + x^3",
         "x + x^2 + x^2 y + y^3 = 1 + x + x^2 + x^2 y",
         "x + x^2 + x^3 + x^3 y + y^4 = 1 + x + x^2 + x^3 + x^3 y",
         "x + x^2 + x^2 y + x^3 y + y^4 = 1 + x + x^2 + x^2 y + x^3 y"]),
    ("mode: noncommutative\nvars: x y\nrel: 1 + y^2 = x y\n",
     CompletionLimits(4, 100), (100, 130, 15, 0, 1134, 7, 15), [
         "1 + y^2 = x y",
         "x + y x y = x^2 y",
         "x y x + y x y = y^2 x + x^2 y",
         "x y^2 = y x y",
         "x^2 + x y + y x^2 y = y x + x^3 y",
         "x y + x y x^2 + y x^2 y = y x + y^2 x^2 + x^3 y",
         "x y + x^2 y x + y x^2 y = y x + y x y x + x^3 y",
         "y x + x y x y = x y + y x^2 y",
         "y x y x + x y x y = x y + y^3 x + y x^2 y",
         "x y x^2 + y x^2 y + x y x y = y^2 x^2 + x^3 y + y x^2 y",
         "x^2 y x + y^2 x y = x^2 + y^3 x + y x^2 y",
         "x y + y^4 = 1 + y^2 x y",
         "y x + x^3 y + y^4 = 1 + x^2 + y x^2 y + y^2 x y",
         "x^2 y x + x^3 y + y^4 = 1 + x^2 + x^2 + y^3 x + y x^2 y "
         "+ y^2 x y",
         "y x y x + x^3 y + y^4 = 1 + x^2 + y^3 x + y x^2 y + y^2 x y"]),
])
def test_step_capped_search_is_pinned(text, limits, stats, basis):
    # the exact counters and truncated basis of a step-capped run pin
    # the search itself: which records are built, queued and examined,
    # in which order
    pres = parse_presentation(text)
    rep = complete(pres.relations, pres.commutative, pres.alphabet,
                   order=pres.order(), limits=limits)
    assert rep.status == STATUS_TRUNCATED
    assert rep.stats == dict(zip(_STAT_KEYS, stats))
    assert [render_relation(r, pres.alphabet)
            for r in rep.basis.active_relations()] == basis


@pytest.mark.parametrize("text, limits", [
    ("mode: commutative\nvars: x y\nrel: x + y = 1 + x\n",
     CompletionLimits(6, 100)),
    ("mode: noncommutative\nvars: x y\nrel: 1 + y^2 = x y\n",
     CompletionLimits(4, 100)),
], ids=["commutative", "noncommutative"])
def test_records_are_built_only_for_examined_pairs(text, limits,
                                                   monkeypatch):
    # contexts and S-pairs are built lazily: once per examined pair,
    # never for zero S-pairs, sites above the degree cap, records left
    # queued at the step cap or records whose parent retired
    built = []
    record = composition._record

    def counted(*args):
        built.append(args)
        return record(*args)

    monkeypatch.setattr(composition, "_record", counted)
    pres = parse_presentation(text)
    rep = complete(pres.relations, pres.commutative, pres.alphabet,
                   order=pres.order(), limits=limits)
    assert rep.stats["pairs_examined"] == limits.max_steps
    assert len(built) == rep.stats["pairs_examined"]


def test_new_lead_inside_an_old_rhs_retires_it():
    # 1 + 1 = 0 comes from reducing 0 = x^2 by x^2 = 1 + 1; its lead
    # occurs in that relation's smaller side only, which still retires
    # it, and it re-enters as x^2 = 0
    pres = parse_presentation(
        "mode: commutative\nvars: x\nrel: x^2 = 1 + 1\nrel: 0 = x^2\n")
    rep = complete(pres.relations, pres.commutative, pres.alphabet,
                   order=pres.order())
    assert rep.status == STATUS_COMPLETE
    assert rep.stats["relations_added"] == 3
    assert rep.stats["relations_retired"] == 1
    assert [render_relation(r, pres.alphabet)
            for r in rep.basis.active_relations()] == ["1 + 1 = 0", "x^2 = 0"]


def test_system_from_pairs_orients():
    pres = BLASS.presentation
    system = system_from_pairs([(parse_expr("x", pres),
                                 parse_expr("1 + x^2", pres))],
                               True, pres.alphabet)
    (_, rel), = system.active()
    assert rel.lhs == parse_expr("1 + x^2", pres)
