"""Occurrence search and normal forms for oriented binomial systems.

A relation is an oriented pair of rig monomials (greater side first).
Rewriting replaces a context-applied occurrence of the greater side by
the same context applied to the smaller side.  Every reduction returns
a replayable trace: f = sum of coeff * context[relation] + normal_form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import CommMonomial, Polynomial, RigMonomial, Word
from .ordering import RigOrder


class ReductionError(RuntimeError):
    pass


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


def pattern_occurrences(m: RigMonomial, pattern: RigMonomial,
                        commutative: bool, ident) -> list[Context]:
    """All contexts c with c[pattern] = m, ordered by (left, right) key.

    The search anchors on the greatest component of the pattern: any
    match must place it inside some component of m, which bounds the
    candidate cofactors.  A theta pattern matches everything with the
    whole target as pad.
    """
    if pattern.is_theta:
        return [Context(ident, ident, m)]
    anchor = pattern.greatest_component()
    cands = set()
    if commutative:
        for c in m.distinct_components():
            if anchor.divides(c):
                cands.add((c.div(anchor), ident))
    else:
        for c in m.distinct_components():
            for a, b in c.occurrences(anchor):
                cands.add((a, b))
    out = []
    for a, b in sorted(cands, key=lambda ab: (ab[0].skey, ab[1].skey)):
        req = pattern.scaled(a, b)
        if m.includes(req):
            out.append(Context(a, b, m.difference(req)))
    return out


def find_occurrences(m: RigMonomial, system: System) -> list[Occurrence]:
    out = []
    for i, rel in system.active():
        for ctx in pattern_occurrences(m, rel.lhs, system.commutative,
                                       system.ident):
            out.append(Occurrence(i, ctx))
    return out


def first_occurrence(m: RigMonomial, system: System):
    for i, rel in system.active():
        ctxs = pattern_occurrences(m, rel.lhs, system.commutative,
                                   system.ident)
        if ctxs:
            return Occurrence(i, ctxs[0])
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
    strict-descent shape.
    """
    work = f
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
            raise ReductionError("reduction budget exhausted")
        alpha = work.terms[target]
        rel = system.relations[occ.rel_id]
        work = work.sub(occ.context.apply(rel.poly()).scale(alpha))
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
