"""Bounded bidirectional closure search, used as ground truth for the
completion-based decision procedure."""

import random
from collections import deque

import pytest
from conftest import rand_mono

from rigbasis import (
    CONGRUENT,
    NOT_FOUND,
    THETA,
    ClosureBounds,
    ClosureStep,
    Context,
    closure_class,
    closure_eq,
    complete,
    decide_eq,
    normal_form_monomial,
    parse_expr,
    parse_presentation,
    pattern_occurrences,
    preset,
    replay_path,
)
from rigbasis import oracle

BLASS = preset("blass")
FL = preset("fiore-leinster")


def _rels(pre):
    return list(pre.presentation.relations)


def test_seven_trees_witness_path():
    pres = BLASS.presentation
    u = parse_expr("x^7", pres)
    v = parse_expr("x", pres)
    bounds = ClosureBounds(max_degree=8, max_circ_len=6,
                           max_expansions=100_000)
    status, path = closure_eq(u, v, _rels(BLASS), True, pres.alphabet,
                              bounds)
    assert status == CONGRUENT
    assert path
    assert replay_path(u, path, _rels(BLASS)) == v


def test_shorter_powers_not_found():
    pres = BLASS.presentation
    bounds = ClosureBounds(max_degree=6, max_circ_len=5,
                           max_expansions=20_000)
    for k in (2, 3):
        status, path = closure_eq(parse_expr(f"x^{k}", pres),
                                  parse_expr("x", pres),
                                  _rels(BLASS), True, pres.alphabet, bounds)
        assert status == NOT_FOUND
        assert path is None


def test_closure_is_symmetric():
    pres = BLASS.presentation
    bounds = ClosureBounds(max_degree=6, max_circ_len=5,
                           max_expansions=50_000)
    pairs = [("1 + x^2", "x"), ("x^3 + x", "x^2"),
             ("x^2 + x^2 + 1 + 1", "x + x^2 + 1")]
    for a, b in pairs:
        s1, p1 = closure_eq(parse_expr(a, pres), parse_expr(b, pres),
                            _rels(BLASS), True, pres.alphabet, bounds)
        s2, p2 = closure_eq(parse_expr(b, pres), parse_expr(a, pres),
                            _rels(BLASS), True, pres.alphabet, bounds)
        assert s1 == s2 == CONGRUENT
        assert replay_path(parse_expr(a, pres), p1,
                           _rels(BLASS)) == parse_expr(b, pres)
        assert replay_path(parse_expr(b, pres), p2,
                           _rels(BLASS)) == parse_expr(a, pres)


def test_closure_agrees_with_decision_procedure():
    # reduction chains are congruence paths, so nf-equal monomials must
    # be found congruent under generous bounds
    rng = random.Random(801)
    rep = complete(FL.presentation.relations, True,
                   FL.presentation.alphabet)
    pres = FL.presentation
    bounds = ClosureBounds(max_degree=8, max_circ_len=8,
                           max_expansions=100_000)
    checked = 0
    while checked < 15:
        m = rand_mono(rng, 1, True, max_len=3, max_deg=4)
        nf = normal_form_monomial(m, rep.basis)
        if m == nf:
            continue
        verdict, _, _ = decide_eq(m, nf, rep)
        assert verdict == "Equal"
        status, path = closure_eq(m, nf, _rels(FL), True, pres.alphabet,
                                  bounds)
        assert status == CONGRUENT
        assert replay_path(m, path, _rels(FL)) == nf
        checked += 1


def test_empty_path_for_equal_endpoints():
    pres = BLASS.presentation
    u = parse_expr("1 + x^3", pres)
    status, path = closure_eq(u, u, _rels(BLASS), True, pres.alphabet)
    assert status == CONGRUENT
    assert len(path) == 0
    assert replay_path(u, path, _rels(BLASS)) == u


def test_theta_class_is_trivial():
    # nothing rewrites into or out of the empty bag for these relations
    cls = closure_class(THETA, _rels(BLASS), True,
                        BLASS.presentation.alphabet,
                        ClosureBounds(4, 4, 5000))
    assert cls == frozenset([THETA])


def test_unit_chain_class():
    # x = 1 + x pulls every higher 1-block into one class
    chain = preset("chain")
    pres = chain.presentation
    bounds = ClosureBounds(max_degree=2, max_circ_len=6,
                           max_expansions=20_000)
    cls = closure_class(parse_expr("x + 1", pres), _rels(chain), True,
                        pres.alphabet, bounds)
    assert parse_expr("x", pres) in cls
    assert parse_expr("x + 1 + 1", pres) in cls


def test_tree_class_within_small_bounds():
    pres = BLASS.presentation
    bounds = ClosureBounds(max_degree=6, max_circ_len=5,
                           max_expansions=50_000)
    cls = closure_class(parse_expr("x", pres), _rels(BLASS), True,
                        pres.alphabet, bounds)
    assert parse_expr("1 + x^2", pres) in cls
    assert parse_expr("1 + x + x^3", pres) in cls
    # distinct congruence class, same degree range
    assert parse_expr("x^2", pres) not in cls
    # a bag of two squared trees is not a tree
    assert parse_expr("1 + 1 + x^2 + x^2", pres) not in cls


def test_replay_rejects_tampered_paths():
    pres = BLASS.presentation
    u = parse_expr("x^7", pres)
    v = parse_expr("x", pres)
    bounds = ClosureBounds(max_degree=8, max_circ_len=6,
                           max_expansions=100_000)
    _, path = closure_eq(u, v, _rels(BLASS), True, pres.alphabet, bounds)
    with pytest.raises(ValueError):
        replay_path(v, path, _rels(BLASS))
    truncated = path[1:]
    if truncated:
        with pytest.raises(ValueError):
            replay_path(u, truncated, _rels(BLASS))


def test_expansion_budget_cuts_search():
    pres = BLASS.presentation
    bounds = ClosureBounds(max_degree=8, max_circ_len=6, max_expansions=2)
    status, path = closure_eq(parse_expr("x^7", pres),
                              parse_expr("x", pres),
                              _rels(BLASS), True, pres.alphabet, bounds)
    assert status == NOT_FOUND and path is None


def test_degree_bound_blocks_witness():
    # the seven-trees path must pass through degree-7 components, so a
    # degree-6 cap cannot find it
    pres = BLASS.presentation
    bounds = ClosureBounds(max_degree=6, max_circ_len=6,
                           max_expansions=100_000)
    status, _ = closure_eq(parse_expr("x^7", pres), parse_expr("x", pres),
                           _rels(BLASS), True, pres.alphabet, bounds)
    assert status == NOT_FOUND


def test_noncommutative_closure():
    pre = preset("znc")
    pres = pre.presentation
    rels = list(pres.relations)
    bounds = ClosureBounds(max_degree=3, max_circ_len=4,
                           max_expansions=20_000)
    u = parse_expr("x + x'", pres)
    status, path = closure_eq(u, THETA, rels, False, pres.alphabet, bounds)
    assert status == CONGRUENT
    assert replay_path(u, path, rels) == THETA
    # marks migrate through products: x' y ~ x y'
    a = parse_expr("x' y", pres)
    b = parse_expr("x y'", pres)
    status, path = closure_eq(a, b, rels, False, pres.alphabet, bounds)
    assert status == CONGRUENT


# ------------------------------------------- bidirectional vs one-sided

def _reference_neighbors(m, rels, commutative, alphabet, bounds, ident):
    out = []
    for idx, (lhs, rhs) in enumerate(rels):
        for forward in (True, False):
            pat, rep = (lhs, rhs) if forward else (rhs, lhs)
            if pat.is_theta:
                if m.circ_len() + rep.circ_len() > bounds.max_circ_len:
                    continue
                for a, b in oracle._insertion_cofactors(rep, commutative,
                                                        alphabet, bounds):
                    ctx = Context(a, b, m)
                    out.append(ClosureStep(idx, forward, ctx,
                                           ctx.apply_mon(rep)))
                continue
            for ctx in pattern_occurrences(m, pat, commutative, ident):
                res = ctx.apply_mon(rep)
                if res.circ_len() > bounds.max_circ_len:
                    continue
                if res.max_component_degree() > bounds.max_degree:
                    continue
                out.append(ClosureStep(idx, forward, ctx, res))
    return out


def _reference_search(u, rels, commutative, alphabet, bounds, target):
    """The one-sided breadth-first search from u: (parents, hit,
    expansions)."""
    ident = oracle._ident(commutative, alphabet)
    parents = {u: None}
    if target is not None and u == target:
        return parents, True, 0
    queue = deque([u])
    expansions = 0
    while queue and expansions < bounds.max_expansions:
        m = queue.popleft()
        expansions += 1
        for step in _reference_neighbors(m, rels, commutative, alphabet,
                                         bounds, ident):
            r = step.result
            if r in parents:
                continue
            parents[r] = (m, step)
            if target is not None and r == target:
                return parents, True, expansions
            queue.append(r)
    return parents, False, expansions


def _reference_path_length(parents, v):
    n, cur = 0, v
    while parents[cur] is not None:
        cur = parents[cur][0]
        n += 1
    return n


THETA_PRES = parse_presentation("mode: commutative\nvars: x y\n"
                                "rel: x + y = 0\n")
# x^2 y^2 lies outside degree 3 and leaves the bounds only through an
# insertion: x^2 y^2 -> x^2 y^2 + x^3 + 1 -> 1
INSERT_PRES = parse_presentation("mode: commutative\nvars: x y\n"
                                 "rel: x + y^2 = 0\nrel: x^3 + 1 = 0\n")

# (presentation, bounds, class seeds, monomials outside the bounds)
DIFFERENTIAL_CASES = {
    "blass": (BLASS.presentation, ClosureBounds(6, 5),
              ["x", "x^2", "x^3", "1 + x"],
              ["x^7", "x + x + x + x + x + x", "1 + x^2 + x + x + x + x"]),
    "fiore-leinster": (FL.presentation, ClosureBounds(5, 5),
                       ["x", "x^2", "1 + x^3"],
                       ["x^6", "1 + x + x^2 + x + x + x"]),
    "chain": (preset("chain").presentation, ClosureBounds(3, 6),
              ["x", "1", "x^2 + 1"],
              ["x^4", "x + 1 + 1 + 1 + 1 + 1 + 1"]),
    "znc": (preset("znc").presentation, ClosureBounds(2, 3),
            ["x y", "x + x'", "y"],
            ["x y x", "x + x' + y + y'"]),
    "theta": (THETA_PRES, ClosureBounds(3, 5),
              ["x y", "x", "x^2 + y"],
              ["x^4", "x^4 + x + y", "x y^3 + x y + y^2"]),
    "theta-insert": (INSERT_PRES, ClosureBounds(3, 4), ["1", "x", "y"],
                     ["x^2 y^2", "x^2 y^2 + x"]),
}


def _differential_pairs(name, rng):
    pres, bounds, seeds, outside = DIFFERENTIAL_CASES[name]
    rels = list(pres.relations)
    classes = [sorted(_reference_search(parse_expr(s, pres), rels,
                                        pres.commutative, pres.alphabet,
                                        bounds, None)[0],
                      key=lambda m: m.skey)
               for s in seeds]
    members = [m for cls in classes for m in cls]
    far = [parse_expr(t, pres) for t in outside]
    pairs = []
    for cls in classes:                       # reachable
        pairs += [(rng.choice(cls), rng.choice(cls)) for _ in range(4)]
    for _ in range(6):                        # mostly unreachable
        pairs.append((rng.choice(members), rng.choice(members)))
    u = rng.choice(members)
    pairs.append((u, u))
    for m in far:                             # u or v outside the bounds
        pairs += [(m, rng.choice(members)), (rng.choice(members), m),
                  (m, m)]
    pairs += [(a, b) for a in far for b in far if a != b]
    return pres, rels, bounds, pairs


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_bidirectional_matches_one_sided(name):
    rng = random.Random(f"bidirectional {name}")
    pres, rels, bounds, pairs = _differential_pairs(name, rng)
    found = 0
    for u, v in pairs:
        parents, hit, expansions = _reference_search(
            u, rels, pres.commutative, pres.alphabet, bounds, v)
        status, path = closure_eq(u, v, rels, pres.commutative,
                                  pres.alphabet, bounds)
        if path is not None:
            assert replay_path(u, path, rels) == v
        if not hit and expansions >= bounds.max_expansions:
            continue
        assert status == (CONGRUENT if hit else NOT_FOUND), (u, v)
        if hit:
            assert len(path) == _reference_path_length(parents, v), (u, v)
            found += 1
    assert found >= 12


def _eq(pres, left, right, bounds):
    u, v = parse_expr(left, pres), parse_expr(right, pres)
    rels = list(pres.relations)
    status, path = closure_eq(u, v, rels, pres.commutative, pres.alphabet,
                              bounds)
    if path is not None:
        assert replay_path(u, path, rels) == v
    return status, path


def test_out_of_bounds_start_reaches_by_theta_insertion():
    # x^4 exceeds the degree bound, so inserting x + y = 0 into it gives
    # monomials outside the bounds that the one-sided search still
    # reaches; the search from both ends must reach them too
    bounds = ClosureBounds(3, 5)
    for text, steps in (("x^4 + x + y", 1), ("x^4 + x + y + x y + y^2", 2)):
        status, path = _eq(THETA_PRES, "x^4", text, bounds)
        assert status == CONGRUENT and len(path) == steps
    # the only way back into the bounds passes through an insertion
    status, path = _eq(INSERT_PRES, "x^2 y^2", "1", ClosureBounds(3, 4))
    assert status == CONGRUENT and len(path) == 2
    # from inside the bounds nothing outside them is reachable
    status, _ = _eq(THETA_PRES, "x", "x + x^4 + y^4", bounds)
    assert status == NOT_FOUND


@pytest.mark.parametrize("left, right", [("x^7", "x"), ("x", "x^7")])
def test_seven_trees_meet_in_the_middle(left, right):
    pres = BLASS.presentation
    u, v = parse_expr(left, pres), parse_expr(right, pres)
    status, path = closure_eq(u, v, _rels(BLASS), True, pres.alphabet)
    assert status == CONGRUENT and len(path) == 18
    assert replay_path(u, path, _rels(BLASS)) == v
    # the one-sided search visits 1,219 (x^7 first) and 1,247 monomials
    visited, _ = oracle._search(u, _rels(BLASS), True, pres.alphabet,
                                ClosureBounds(), v)
    assert len(visited) < 600


def test_expansion_cap_counts_both_sides(monkeypatch):
    pres = BLASS.presentation
    u, v = parse_expr("x^7", pres), parse_expr("x", pres)
    expanded = []
    neighbors = oracle._neighbors

    def counting(m, *args):
        expanded.append(m)
        return neighbors(m, *args)

    monkeypatch.setattr(oracle, "_neighbors", counting)
    status, _ = closure_eq(u, v, _rels(BLASS), True, pres.alphabet)
    assert status == CONGRUENT
    assert u in expanded and v in expanded
    n = len(expanded)

    def run(cap):
        return closure_eq(u, v, _rels(BLASS), True, pres.alphabet,
                          ClosureBounds(max_expansions=cap))[0]

    assert run(n) == CONGRUENT
    assert run(n - 1) == NOT_FOUND


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_closure_class_matches_one_sided(name):
    pres, bounds, seeds, outside = DIFFERENTIAL_CASES[name]
    rels = list(pres.relations)
    for text in seeds + outside:
        u = parse_expr(text, pres)
        parents, _, _ = _reference_search(u, rels, pres.commutative,
                                          pres.alphabet, bounds, None)
        assert closure_class(u, rels, pres.commutative, pres.alphabet,
                             bounds) == frozenset(parents)
