"""End-to-end acceptance checks.

Each test prints one PASS line on success; a failure surfaces as a
normal pytest failure.  Wall-clock budgets guard the interactive
claims.  Everything here is exact: no tolerances anywhere.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import numeric_closure, rand_mono, rand_poly

from rigbasis import (
    CONGRUENT,
    STATUS_COMPLETE,
    STATUS_TRUNCATED,
    THETA,
    ClosureBounds,
    CommMonomial,
    CompletionLimits,
    Context,
    Polynomial,
    RigMonomial,
    Word,
    blass_even_map,
    blass_family_truncation,
    closure_eq,
    complete,
    compositions,
    decide_eq,
    enum_irr,
    intpoly_add,
    intpoly_mul,
    nat_congruence_generator,
    noetherian_chain_demo,
    normal_form,
    order_for,
    orient_pair,
    parse_expr,
    preset,
    reduce_system,
    render_relation,
    replay_path,
    sign_encode,
    sign_encode_check,
    transport_check,
    verify,
    znc_family,
    znc_shape,
)
from rigbasis.cli import main

FL = preset("fiore-leinster")
BLASS = preset("blass")
ZNC = preset("znc")
CHAIN = preset("chain")


@contextmanager
def _budget(label, seconds):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < seconds, f"{label}: {dt:.1f}s exceeded the {seconds}s budget"


def _done(label):
    print(f"PASS: {label}")


def _basis_pairs(system):
    return {rel.pair() for _, rel in system.active()}


def _candidates(max_deg, max_len):
    bases = [CommMonomial((e,)) for e in range(max_deg + 1)]
    out = set()
    for n in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(bases, n):
            m = RigMonomial.from_components(combo)
            if m.total_degree() <= max_deg:
                out.add(m)
    return out


# ---------------------------------------------------------------------------


def test_list_object_basis_verifies():
    with _budget("list-object basis verification", 5):
        ok, witnesses = verify(FL.basis_system())
    assert ok and witnesses == []
    _done("the five-relation list-object basis resolves every overlap")


def test_list_object_completion_recovers_printed_basis():
    with _budget("list-object completion", 10):
        rep = complete(FL.presentation.relations, True,
                       FL.presentation.alphabet)
    assert rep.status == STATUS_COMPLETE
    assert _basis_pairs(rep.basis) == _basis_pairs(FL.basis_system())
    _done("completing x = 1 + x + x^2 yields exactly the printed basis")


def test_tree_object_basis_verifies_and_completes():
    with _budget("tree-object verification and completion", 10):
        ok, witnesses = verify(BLASS.basis_system())
        rep = complete(BLASS.presentation.relations, True,
                       BLASS.presentation.alphabet)
    assert ok and witnesses == []
    assert rep.status == STATUS_COMPLETE
    assert _basis_pairs(rep.basis) == _basis_pairs(BLASS.basis_system())
    _done("the tree-object basis verifies and is recovered by completion")


def test_list_object_normal_forms_match_closed_form():
    with _budget("list-object normal-form family", 10):
        got = set(enum_irr(FL.basis_system(), 12, 6))
        want = {m for m in _candidates(12, 6) if FL.family(m)}
    assert got == want
    _done("list-object irreducibles equal the closed-form family "
          f"({len(got)} monomials at degree 12, length 6)")


def test_tree_object_normal_forms_match_closed_form():
    with _budget("tree-object normal-form family", 10):
        got = set(enum_irr(BLASS.basis_system(), 12, 6))
        want = {m for m in _candidates(12, 6) if BLASS.family(m)}
    assert got == want
    _done("tree-object irreducibles equal the closed-form family "
          f"({len(got)} monomials at degree 12, length 6)")


def test_even_degree_family_transport():
    with _budget("even-degree transport", 20):
        rep = complete(BLASS.presentation.relations, True,
                       BLASS.presentation.alphabet)
        members = blass_family_truncation(4)
        assert transport_check(members, blass_even_map, rep)
    _done(f"the even-degree bijection transports {len(members)} "
          "normal forms injectively onto distinct classes")


def test_seven_trees_identity():
    pres = BLASS.presentation
    rep = complete(pres.relations, True, pres.alphabet)
    x = parse_expr("x", pres)
    verdict, nf_u, nf_v = decide_eq(parse_expr("x^7", pres), x, rep)
    assert verdict == "Equal" and nf_u == nf_v == x
    for k in range(2, 7):
        verdict, _, _ = decide_eq(parse_expr(f"x^{k}", pres), x, rep)
        assert verdict == "Distinct", f"x^{k} must differ from x"
    rels = list(pres.relations)
    bounds = ClosureBounds(max_degree=8, max_circ_len=6,
                           max_expansions=100_000)
    status, path = closure_eq(parse_expr("x^7", pres), x, rels, True,
                              pres.alphabet, bounds)
    assert status == CONGRUENT
    assert replay_path(parse_expr("x^7", pres), path, rels) == x
    # companion identity for the list object
    frep = complete(FL.presentation.relations, True,
                    FL.presentation.alphabet)
    fpres = FL.presentation
    verdict, _, _ = decide_eq(parse_expr("x^5", fpres),
                              parse_expr("x", fpres), frep)
    assert verdict == "Equal"
    _done(f"x^7 = x holds with a {len(path)}-step replayable witness, "
          "x^2..x^6 stay distinct, and x^5 = x holds for lists")


def test_huge_exponent_decides_quickly(tmp_path, capsys):
    # x^1000000 parses by repeated squaring and reduces part by part
    # under the complete basis; 10^6 = 4 (mod 6)
    path = tmp_path / "blass.rig"
    path.write_text("mode: commutative\nvars: x\nrel: x = 1 + x^2\n")
    with _budget("eq on blass x^1000000 x^4", 2):
        code = main(["eq", str(path), "x^1000000", "x^4"])
    assert code == 0
    assert capsys.readouterr().out == "EQUAL, nf = x^4\n"
    _done("huge exponent decided")


def test_signed_two_variable_system():
    with _budget("signed two-variable system", 30):
        pres = ZNC.presentation
        # the instantiated schemas miss exactly one consequence: the
        # square of the inverse unit; completion must find it and
        # nothing else, and the repaired system must verify
        assert len(pres.relations) == 19
        ok, witnesses = verify(pres.system())
        assert not ok
        square = parse_expr("e' e'", pres)
        for _, w in witnesses:
            lead, _ = pres.order().leading(w)
            assert lead == square
        rep = complete(pres.relations, False, pres.alphabet)
        assert rep.status == STATUS_COMPLETE
        claimed = ZNC.basis_system()
        assert _basis_pairs(rep.basis) == _basis_pairs(claimed)
        assert len(_basis_pairs(rep.basis)) == 20
        assert (square, parse_expr("1", pres)) in _basis_pairs(rep.basis)
        ok, witnesses = verify(claimed)
        assert ok and witnesses == []
        # every small irreducible carries inverse marks only on first
        # letters and never a word with both signs
        for m in enum_irr(claimed, 4, 4):
            assert znc_shape(m) and znc_family(m)
        # arithmetic transport against exact integer polynomials
        rng = random.Random(811)

        def rand_intpoly():
            p = {}
            for _ in range(rng.randint(0, 4)):
                w = tuple(rng.choice(["x", "y"])
                          for _ in range(rng.randint(0, 3)))
                c = rng.choice([-3, -2, -1, 1, 2, 3])
                acc = p.get(w, 0) + c
                if acc:
                    p[w] = acc
                elif w in p:
                    del p[w]
            return p

        for _ in range(100):
            assert sign_encode_check(rand_intpoly(), rand_intpoly())
    _done("the signed system verifies after its single completion step "
          "and transports 100 random integer polynomials exactly")


def test_naturals_congruences_have_single_generators():
    rng = random.Random(809)
    for _ in range(50):
        pairs = [(rng.randint(0, 8), rng.randint(0, 8))
                 for _ in range(rng.randint(1, 4))]
        gen = nat_congruence_generator(pairs)
        got = numeric_closure([gen] if gen else [])
        assert got == numeric_closure(pairs)
    _done("50 random congruences on the naturals each reduce to at "
          "most one generating pair with the same closure")


def test_unit_chain_truncates_with_exact_frontier():
    limits = CompletionLimits(max_ambiguity_degree=10, max_steps=50_000)
    rep = complete(CHAIN.presentation.relations, True,
                   CHAIN.presentation.alphabet, limits=limits)
    assert rep.status == STATUS_TRUNCATED
    pres = CHAIN.presentation
    want = {(parse_expr(f"1 + x^{n}" if n > 1 else "1 + x", pres),
             parse_expr(f"x^{n}" if n > 1 else "x", pres))
            for n in range(1, 11)}
    assert _basis_pairs(rep.basis) == want
    assert noetherian_chain_demo(5) == [(n, True) for n in range(1, 6)]
    _done("the unit chain truncates to exactly the ten expected "
          "relations and every chain level is strictly finer")


def test_reduced_bases_are_unique():
    rng = random.Random(810)
    jobs = [
        (FL.presentation, None),
        (BLASS.presentation, None),
        (ZNC.presentation, None),
        (preset("nat").presentation, None),
        (CHAIN.presentation,
         CompletionLimits(max_ambiguity_degree=10, max_steps=50_000)),
    ]
    for pres, limits in jobs:
        reference = None
        for _ in range(10):
            pairs = list(pres.relations)
            rng.shuffle(pairs)
            rep = complete(pairs, pres.commutative, pres.alphabet,
                           limits=limits, tie_seed=rng.randrange(2 ** 30))
            text = "\n".join(
                render_relation(rel, pres.alphabet)
                for _, rel in reduce_system(rep.basis).active())
            if reference is None:
                reference = text
            assert text == reference
    _done("ten shuffled completions per preset all render the same "
          "reduced basis bytes")


def test_property_suites():
    rng = random.Random(812)
    # order axioms and context compatibility, ten thousand cases
    for commutative, keyword in ((True, "wtlex"), (False, "deglenrlex")):
        order = order_for(keyword, commutative)
        checked = 0
        while checked < 5000:
            m = rand_mono(rng, 2, commutative)
            n = rand_mono(rng, 2, commutative)
            if m == n:
                assert not order.less(m, n) and not order.less(n, m)
                continue
            assert order.less(m, n) != order.less(n, m)
            if order.less(n, m):
                m, n = n, m
            left = rand_mono(rng, 2, commutative, max_len=1, max_deg=2)
            lbase = (left.greatest_component()
                     if left.circ_len() else
                     (CommMonomial.identity(2) if commutative else Word(())))
            ctx = Context(
                left=lbase,
                right=(None if commutative
                       else Word(tuple(rng.randrange(2) for _ in
                                       range(rng.randint(0, 2))))),
                pad=rand_mono(rng, 2, commutative, max_len=2))
            if commutative:
                ctx = Context(left=ctx.left,
                              right=CommMonomial.identity(2), pad=ctx.pad)
            assert order.less(ctx.apply_mon(m), ctx.apply_mon(n))
            checked += 1
    # the single-variable regression: a cube beats a split pair, in
    # any context
    worder = order_for("wtlex", True)
    x = CommMonomial.variable(0, 1)
    cube = RigMonomial.singleton(CommMonomial.variable(0, 1, 3))
    split = RigMonomial.from_components([x, x])
    assert worder.less(split, cube)
    scaled = Context(left=x, right=CommMonomial.identity(1), pad=THETA)
    assert worder.less(scaled.apply_mon(split), scaled.apply_mon(cube))

    # algebra laws on random bags
    for commutative in (True, False):
        for _ in range(200):
            a = rand_mono(rng, 2, commutative)
            b = rand_mono(rng, 2, commutative)
            c = rand_mono(rng, 2, commutative)
            assert a.circ(b) == b.circ(a)
            assert a.circ(b).circ(c) == a.circ(b.circ(c))
            assert a.times(b.circ(c)) == a.times(b).circ(a.times(c))
            assert a.circ(THETA) == a
            assert a.times(THETA) == THETA

    # trace replay against the tree-object basis
    system = BLASS.basis_system()
    for _ in range(100):
        f = rand_poly(rng, 1, True, max_terms=3, max_len=3, max_deg=5)
        nf, trace = normal_form(f, system)
        assert f.sub(trace.replay(system)).terms == nf.terms

    # spolys stay below their ambiguity on random binomial pairs
    pres = FL.presentation
    order = FL.presentation.order()
    ident = CommMonomial.identity(1)
    count = 0
    while count < 200:
        ms = [rand_mono(rng, 1, True, max_len=2, max_deg=3)
              for _ in range(4)]
        if ms[0] == ms[1] or ms[2] == ms[3]:
            continue
        fr = orient_pair(ms[0], ms[1], order)
        gr = orient_pair(ms[2], ms[3], order)
        for rec in compositions(fr, gr, 0, 1, True, ident):
            if not rec.spoly.is_zero():
                lead, _ = order.leading(rec.spoly)
                assert order.less(lead, rec.ambiguity)
        count += 1

    # completions only ever hold oriented monic binomials
    for pre in (FL, BLASS, ZNC):
        rep = complete(pre.presentation.relations,
                       pre.presentation.commutative,
                       pre.presentation.alphabet)
        for _, rel in rep.basis.active():
            assert isinstance(rel.lhs, RigMonomial)
            assert isinstance(rel.rhs, RigMonomial)
            assert rel.lhs != rel.rhs
            assert rep.basis.order.less(rel.rhs, rel.lhs)
    _done("ten thousand order checks, the algebra laws, trace replay, "
          "spoly descent, and binomial closure all hold")
