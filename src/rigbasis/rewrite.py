"""Occurrence search and normal forms for oriented binomial systems.

A relation is an oriented pair of rig monomials (greater side first).
Rewriting replaces a context-applied occurrence of the greater side by
the same context applied to the smaller side.  Every reduction returns
a replayable trace: f = sum of coeff * context[relation] + normal_form.
Occurrence search is first-fit on plain tuples: a left side is compiled
to its anchor's exponent vector or letters and its runs, candidates are
cofactor vectors or (component, offset) pairs tested in key order
against the target's run counts, and only the fit used becomes
cofactors and a Context.
A rewrite step is a one-term update: the target's coefficient moves to
context[rhs] and every other term stays as it is.
split_normal_form, for confluent systems only, assembles a normal form
from the normal forms of parts and returns no trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, sub

from .terms import ZERO, CommMonomial, Polynomial, RigMonomial, Word
from .ordering import RigOrder


class ReductionError(RuntimeError):
    pass


class ReductionBudgetExhausted(ReductionError):
    """normal_form stopped at its step limit before reaching a normal form."""

    def __init__(self, max_steps):
        super().__init__(f"reduction budget exhausted: step limit of "
                         f"{max_steps} reached")


@dataclass(frozen=True)
class Context:
    """Rewriting site: components are scaled by left/right, pad is circ-ed on.

    Applying to theta leaves only the pad.  In commutative mode right is
    the identity and carries no information.
    """

    left: object
    right: object
    pad: RigMonomial

    def apply_mon(self, m: RigMonomial) -> RigMonomial:
        return m.scaled(self.left, self.right).circ(self.pad)

    def apply(self, f: Polynomial) -> Polynomial:
        out = Polynomial()
        for m, c in f.terms.items():
            k = self.apply_mon(m)
            acc = out.terms.get(k, 0) + c
            if acc:
                out.terms[k] = acc
            elif k in out.terms:
                del out.terms[k]
        return out


@dataclass(frozen=True)
class Occurrence:
    rel_id: int
    context: Context


@dataclass(frozen=True)
class Relation:
    """Oriented monic binomial: lhs rewrites to rhs, lhs > rhs."""

    lhs: RigMonomial
    rhs: RigMonomial

    def poly(self) -> Polynomial:
        p = Polynomial.monomial(self.lhs)
        return p.sub(Polynomial.monomial(self.rhs))

    def pair(self):
        return (self.lhs, self.rhs)

    @cached_property
    def delta(self):
        """lhs - rhs as a signed multiset {exps or letters: count}, with
        zero counts dropped; composition's zero test shifts it."""
        d = {}
        for m, sign in ((self.lhs, 1), (self.rhs, -1)):
            for b, k in m.runs:
                key = _key(b)
                d[key] = d.get(key, 0) + sign * k
        return {key: k for key, k in d.items() if k}

    @cached_property
    def compiled_lhs(self):
        """lhs compiled for occurrence search (_compile); relations are
        shared across snapshots, so each is compiled once."""
        return _compile(self.lhs)


def orient_pair(m: RigMonomial, n: RigMonomial, order: RigOrder) -> Relation:
    c = order.compare(m, n)
    if c == 0:
        raise ValueError("relation with identical sides")
    return Relation(m, n) if c > 0 else Relation(n, m)


class System:
    """Immutable snapshot: mode, alphabet, order, append-only relation log.

    active_ids selects the relations rewriting may use; retired entries
    stay in the log so recorded traces keep replaying.
    """

    __slots__ = ("commutative", "alphabet", "order", "relations",
                 "active_ids", "ident")

    def __init__(self, commutative, alphabet, order, relations,
                 active_ids=None):
        self.commutative = bool(commutative)
        self.alphabet = alphabet
        self.order = order
        self.relations = tuple(relations)
        if active_ids is None:
            active_ids = range(len(self.relations))
        self.active_ids = tuple(sorted(active_ids))
        if commutative:
            self.ident = CommMonomial.identity(len(alphabet))
        else:
            self.ident = Word(())

    def active(self):
        return [(i, self.relations[i]) for i in self.active_ids]

    def active_relations(self):
        return [self.relations[i] for i in self.active_ids]

    def without(self, rel_id):
        return System(self.commutative, self.alphabet, self.order,
                      self.relations,
                      [i for i in self.active_ids if i != rel_id])


def _key(b):
    """A base monomial as plain data: exponent vector or letter tuple."""
    return b.exps if isinstance(b, CommMonomial) else b.letters


def _compile(pattern: RigMonomial):
    """pattern as plain data for _matches, or None for theta: (anchor key,
    anchor degree, anchor multiplicity, ((key, multiplicity), ...) over
    the other runs).  The anchor is the greatest component."""
    if pattern.is_theta:
        return None
    *rest, (anchor, k) = pattern.runs
    return (_key(anchor), anchor.degree(), k,
            tuple((_key(b), n) for b, n in rest))


def _run_counts(m: RigMonomial, commutative: bool) -> dict:
    """base -> multiplicity over the runs of m, in run order, keyed by the
    base's exponent vector (commutative) or letter tuple."""
    if commutative:
        return {b.exps: k for b, k in m.runs}
    return {b.letters: k for b, k in m.runs}


def _matches(m: RigMonomial, counts: dict, pat, commutative: bool):
    """Every fit of the compiled pattern pat in m, lazily, in (left,
    right) key order, as (left, right, need): the cofactors as plain
    tuples (right is None in commutative mode) and {key: multiplicity}
    of left . pattern . right, which m's run counts cover.

    Any fit puts the anchor inside a component c = left . anchor . right
    whose multiplicity covers the anchor's, which bounds the candidates;
    (left, right) determines c, so they are distinct.  Multiplying by the
    cofactors is injective on base monomials, so every other run is
    checked on its own against counts.  Commutative candidates come
    straight from m's ascending runs: left = c - anchor, and subtracting
    the same vector from every c keeps the order of their (degree,
    exponents) keys.  Noncommutative candidates are (component, offset)
    pairs, sorted on the (left.skey, right.skey) they stand for.
    """
    akey, adeg, ak, rest = pat
    if commutative:
        for c, n in m.runs:
            if n < ak or c.skey[0] < adeg:
                continue
            left = tuple(map(sub, c.exps, akey))
            if min(left) < 0:
                continue
            need = {c.exps: ak}
            for e, k in rest:
                s = tuple(map(add, left, e))
                if counts.get(s, 0) < k:
                    break
                need[s] = k
            else:
                yield left, None, need
        return

    def skeys(cand):
        w, o = cand
        r = o + adeg
        return (o, w[:o][::-1]), (len(w) - r, w[r:][::-1])

    cands = []
    for c, n in m.runs:
        if n >= ak:
            w = c.letters
            for o in range(len(w) - adeg + 1):
                if w[o:o + adeg] == akey:
                    cands.append((w, o))
    if len(cands) > 1:
        cands.sort(key=skeys)
    for w, o in cands:
        left, right = w[:o], w[o + adeg:]
        need = {w: ak}
        for e, k in rest:
            s = left + e + right
            if counts.get(s, 0) < k:
                break
            need[s] = k
        else:
            yield left, right, need


def _fit_context(m: RigMonomial, counts: dict, fit, commutative: bool,
                 ident) -> Context:
    """The Context of one fit: its cofactors, and m minus what it needs
    (counts holds the keys of m's runs in run order)."""
    left, right, need = fit
    pad = []
    for (b, n), key in zip(m.runs, counts):
        n -= need.get(key, 0)
        if n:
            pad.append((b, n))
    pad = RigMonomial._canonical(tuple(pad))
    if commutative:
        return Context(CommMonomial(left), ident, pad)
    return Context(Word(left), Word(right), pad)


def pattern_occurrences(m: RigMonomial, pattern: RigMonomial,
                        commutative: bool, ident) -> list[Context]:
    """All contexts c with c[pattern] = m, ordered by (left, right) key.

    The pattern is compiled on the spot, candidates are tested on
    exponent vectors or letter offsets (_matches), and only the fits
    become Contexts.  A theta pattern matches everything with the whole
    target as pad.
    """
    pat = _compile(pattern)
    if pat is None:
        return [Context(ident, ident, m)]
    counts = _run_counts(m, commutative)
    return [_fit_context(m, counts, fit, commutative, ident)
            for fit in _matches(m, counts, pat, commutative)]


def occurs(m: RigMonomial, pattern: RigMonomial, commutative: bool,
           ident) -> bool:
    """Whether some context c has c[pattern] = m; stops at the first fit
    and builds nothing from it."""
    pat = _compile(pattern)
    if pat is None:
        return True
    fits = _matches(m, _run_counts(m, commutative), pat, commutative)
    return next(fits, None) is not None


def find_occurrences(m: RigMonomial, system: System) -> list[Occurrence]:
    out = []
    for i, rel in system.active():
        for ctx in pattern_occurrences(m, rel.lhs, system.commutative,
                                       system.ident):
            out.append(Occurrence(i, ctx))
    return out


def first_occurrence(m: RigMonomial, system: System):
    """The first occurrence in (relation index, left, right) order, or None.

    First-fit: relations are tried in index order, each on its left side
    compiled once (Relation.compiled_lhs), and each one's candidates in
    key order; only the first fit becomes cofactors and a Context.  This
    is the first entry of find_occurrences, found without building the
    others.
    """
    commutative, ident = system.commutative, system.ident
    counts = _run_counts(m, commutative)
    relations = system.relations
    for i in system.active_ids:
        pat = relations[i].compiled_lhs
        if pat is None:
            return Occurrence(i, Context(ident, ident, m))
        for fit in _matches(m, counts, pat, commutative):
            return Occurrence(i, _fit_context(m, counts, fit, commutative,
                                              ident))
    return None


def is_irreducible(m: RigMonomial, system: System) -> bool:
    return first_occurrence(m, system) is None


@dataclass(frozen=True)
class TraceStep:
    coeff: object
    rel_id: int
    context: Context


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple

    def replay(self, system: System) -> Polynomial:
        """Sum of coeff * context[relation] over the recorded steps."""
        acc = Polynomial.zero()
        for st in self.steps:
            rel = system.relations[st.rel_id]
            acc = acc.add(st.context.apply(rel.poly()).scale(st.coeff))
        return acc


def normal_form(f: Polynomial, system: System, max_steps: int = 10 ** 6):
    """Fully reduce f; returns (normal form, trace).

    Repeatedly eliminates the greatest reducible support monomial, using
    the first occurrence in (relation index, left, right) order.  The
    eliminated monomials strictly decrease, so the trace satisfies the
    strict-descent shape.  A step is a one-term update: the context maps
    the relation's lhs to the target itself, so subtracting
    alpha * context[lhs - rhs] removes the target's term and adds alpha
    to the coefficient of context[rhs]; no other term changes.
    """
    work = Polynomial()
    work.terms = terms = dict(f.terms)
    steps = []
    known_irr = set()
    while True:
        target = occ = None
        for m in work.support():
            if m in known_irr:
                continue
            o = first_occurrence(m, system)
            if o is None:
                known_irr.add(m)
                continue
            target, occ = m, o
            break
        if target is None:
            break
        if len(steps) >= max_steps:
            raise ReductionBudgetExhausted(max_steps)
        alpha = terms.pop(target)
        out = occ.context.apply_mon(system.relations[occ.rel_id].rhs)
        acc = terms.get(out, ZERO) + alpha
        if acc:
            terms[out] = acc
        else:
            del terms[out]
        steps.append(TraceStep(alpha, occ.rel_id, occ.context))
    return work, ReductionTrace(tuple(steps))


def normal_form_monomial(m: RigMonomial, system: System,
                         max_steps: int = 10 ** 6) -> RigMonomial:
    """Normal form of a single monomial; stays a single monomial because
    every relation is a binomial."""
    nf, _ = normal_form(Polynomial.monomial(m), system, max_steps)
    if len(nf.terms) != 1:
        raise ReductionError("monomial did not reduce to a monomial")
    (mono, coeff), = nf.terms.items()
    if coeff != 1:
        raise ReductionError("monomial reduction changed the coefficient")
    return mono


def _split_base(b):
    """b = b1 . b2 with deg b1 = deg b / 2: by degree for a commutative
    exponent vector, at the midpoint for a word."""
    if isinstance(b, Word):
        half = len(b.letters) // 2
        return Word(b.letters[:half]), Word(b.letters[half:])
    left = b.degree() // 2
    exps = []
    for e in b.exps:
        take = min(e, left)
        exps.append(take)
        left -= take
    b1 = CommMonomial(tuple(exps))
    return b1, b.div(b1)


def split_normal_form(m: RigMonomial, system: System,
                      memo: dict) -> RigMonomial:
    """Normal form of m computed part by part; system must be confluent.

    Under a confluent system nf is a function of the congruence class,
    and the congruence respects both operations, so
    nf(a o b) = nf(nf(a) o nf(b)) and nf(b1 . b2) = nf(nf(b1) . nf(b2)).
    The runs are split in half, a single run's multiplicity is halved,
    and a single base monomial of degree >= 2 is split by degree; only
    the leaves (degree <= 1) and the combined halves reduce directly.
    memo maps monomials to their normal forms; pass one dict per batch
    of inputs.  The result equals normal_form_monomial(m, system), but
    no single trace leads to it, so a non-confluent system (where the
    normal form depends on the strategy) needs the direct path.
    """
    got = memo.get(m)
    if got is not None:
        return got
    runs = m.runs
    whole = m
    if len(runs) > 1:
        half = len(runs) // 2
        parts = (RigMonomial._canonical(runs[:half]),
                 RigMonomial._canonical(runs[half:]))
        join = RigMonomial.circ
    elif runs and runs[0][1] > 1:
        base, k = runs[0]
        parts = (RigMonomial.singleton(base, k // 2),
                 RigMonomial.singleton(base, k - k // 2))
        join = RigMonomial.circ
    elif runs and runs[0][0].degree() > 1:
        parts = [RigMonomial.singleton(b) for b in _split_base(runs[0][0])]
        join = RigMonomial.times
    else:
        parts = None
    if parts:
        a, b = (split_normal_form(p, system, memo) for p in parts)
        whole = join(a, b)
    nf = normal_form_monomial(whole, system)
    memo[m] = nf
    return nf


def base_monomials_up_to(alphabet, commutative, max_degree):
    """All base monomials of degree at most max_degree, ascending."""
    out = []
    if commutative:
        nvars = len(alphabet)

        def rec(idx, left, exps):
            if idx == nvars:
                out.append(CommMonomial(tuple(exps)))
                return
            for e in range(left + 1):
                exps.append(e)
                rec(idx + 1, left - e, exps)
                exps.pop()

        rec(0, max_degree, [])
    else:
        ranks = range(len(alphabet))
        frontier = [()]
        out.append(Word(()))
        for _ in range(max_degree):
            nxt = []
            for w in frontier:
                for r in ranks:
                    t = w + (r,)
                    nxt.append(t)
                    out.append(Word(t))
            frontier = nxt
    out.sort(key=lambda b: b.skey)
    return out


def enum_irr(system: System, max_degree: int, max_circ_len: int):
    """All irreducible monomials within the bounds, ascending.

    Enumerates candidate multisets over the bounded base monomials with
    degree pruning, then filters by irreducibility.
    """
    bases = base_monomials_up_to(system.alphabet, system.commutative,
                                 max_degree)
    found = []
    chosen = []

    def rec(idx, deg_left, len_left):
        m = RigMonomial.from_components(chosen)
        if not is_irreducible(m, system):
            # every circ-extension keeps the occurrence, prune the subtree
            return
        found.append(m)
        if not len_left:
            return
        for j in range(idx, len(bases)):
            d = bases[j].degree()
            if d > deg_left:
                break
            chosen.append(bases[j])
            rec(j, deg_left - d, len_left - 1)
            chosen.pop()

    rec(0, max_degree, max_circ_len)
    found.sort(key=lambda m: m.skey)
    return found
