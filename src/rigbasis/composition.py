"""Ambiguity enumeration and S-polynomials for pairs of relations.

Commutative pairs: for each component pair (u of lhs f, v of lhs g) the
cofactors a = lcm(u,v)/u and b = lcm(u,v)/v overlap the scaled leading
monomials; the ambiguity is the circ-lcm of a*lhs_f and b*lhs_g.

Noncommutative pairs come in two kinds per component pair (p, q):
  intersection  a proper overlap, p = b o and q = o a with a, b, o all
                nonempty; ambiguity lcm_circ(lhs_f * a, b * lhs_g)
  inclusion     an embedding p = a q b (a, b possibly empty); ambiguity
                lcm_circ(lhs_f, a * lhs_g * b)
Separated placements are not enumerated; their S-polynomials reduce via
combinations with smaller leading terms, and admitting them would make
the candidate set infinite.

Every relation is a unit binomial lhs - rhs, and both contexts carry
their lhs onto the ambiguity w.  The w terms of ctx_f[f] - ctx_g[g]
therefore cancel: an S-pair of two unit binomials is the monomial pair
(ctx_g[g.rhs], ctx_f[f.rhs]), standing for ctx_g[g.rhs] - ctx_f[f.rhs],
and it is zero exactly when the two monomials coincide.  Records store
the pair and build the Polynomial only when asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Polynomial, RigMonomial, lcm_circ
from .rewrite import Context, Relation, System, normal_form

KIND_COMM = "commutative-pair"
KIND_INTERSECTION = "intersection"
KIND_INCLUSION = "inclusion"


@dataclass(frozen=True)
class CompositionRecord:
    f_id: int
    g_id: int
    kind: str
    p: object            # site component from lhs of f
    q: object            # site component from lhs of g
    a: object            # derived cofactors
    b: object
    ambiguity: RigMonomial
    mf: RigMonomial      # ctx_f[f.rhs]
    mg: RigMonomial      # ctx_g[g.rhs]
    ctx_f: Context
    ctx_g: Context

    @property
    def spoly(self) -> Polynomial:
        """ctx_f[f] - ctx_g[g], which is mg - mf."""
        return Polynomial(((self.mf, -1), (self.mg, 1)))


def _record(f: Relation, g: Relation, f_id, g_id, kind, p, q, a, b,
            ctx_f: Context, ctx_g: Context, w: RigMonomial,
            lf: RigMonomial, lg: RigMonomial):
    """Record for one site, or None when its S-polynomial vanishes.

    lf and lg are f.lhs and g.lhs already scaled by the cofactors of
    ctx_f and ctx_g; padding them must give w.
    """
    if lf.circ(ctx_f.pad) != w or lg.circ(ctx_g.pad) != w:
        raise AssertionError("composition contexts do not meet the ambiguity")
    mf = ctx_f.apply_mon(f.rhs)
    mg = ctx_g.apply_mon(g.rhs)
    if mf == mg:
        return None
    if not max(mf.skey, mg.skey) < w.skey:
        raise AssertionError("S-polynomial is not below its ambiguity")
    return CompositionRecord(f_id, g_id, kind, p, q, a, b, w, mf, mg,
                             ctx_f, ctx_g)


def comm_compositions(f: Relation, g: Relation, f_id: int, g_id: int,
                      ident) -> list:
    """Records for every component pair; duplicates by cofactor dropped."""
    out = []
    seen = set()
    for u in f.lhs.distinct_components():
        for v in g.lhs.distinct_components():
            l = u.lcm(v)
            a = l.div(u)
            b = l.div(v)
            key = (a.skey, b.skey)
            if key in seen:
                continue
            seen.add(key)
            fa = f.lhs.scaled(a)
            gb = g.lhs.scaled(b)
            w, uu, vv = lcm_circ(fa, gb)
            rec = _record(f, g, f_id, g_id, KIND_COMM, u, v, a, b,
                          Context(a, ident, uu), Context(b, ident, vv),
                          w, fa, gb)
            if rec is not None:
                out.append(rec)
    return out


def nc_compositions(f: Relation, g: Relation, f_id: int, g_id: int,
                    ident) -> list:
    """Intersection and inclusion records for the ordered pair (f, g)."""
    out = []
    seen = set()
    for p in f.lhs.distinct_components():
        for q in g.lhs.distinct_components():
            lp, lq = p.letters, q.letters
            # intersections: nonempty suffix of p = prefix of q, proper
            for k in range(1, min(len(lp), len(lq))):
                if lp[len(lp) - k:] != lq[:k]:
                    continue
                a = type(q)(lq[k:])
                b = type(p)(lp[:len(lp) - k])
                key = (KIND_INTERSECTION, a.skey, b.skey)
                if key in seen:
                    continue
                seen.add(key)
                fa = f.lhs.scaled(ident, a)
                bg = g.lhs.scaled(b, ident)
                w, uu, vv = lcm_circ(fa, bg)
                rec = _record(f, g, f_id, g_id, KIND_INTERSECTION, p, q,
                              a, b, Context(ident, a, uu),
                              Context(b, ident, vv), w, fa, bg)
                if rec is not None:
                    out.append(rec)
            # inclusions: p = a q b over every embedding of q in p
            for a, b in p.occurrences(q):
                key = (KIND_INCLUSION, a.skey, b.skey)
                if key in seen:
                    continue
                seen.add(key)
                agb = g.lhs.scaled(a, b)
                w, uu, vv = lcm_circ(f.lhs, agb)
                rec = _record(f, g, f_id, g_id, KIND_INCLUSION, p, q,
                              a, b, Context(ident, ident, uu),
                              Context(a, b, vv), w, f.lhs, agb)
                if rec is not None:
                    out.append(rec)
    return out


def compositions(f: Relation, g: Relation, f_id: int, g_id: int,
                 commutative: bool, ident) -> list:
    """Records of the ordered pair (f, g) whose S-polynomial is nonzero.

    Every comparison here is a sort-key comparison, so the order the
    relations were oriented by is not needed.
    """
    if commutative:
        return comm_compositions(f, g, f_id, g_id, ident)
    return nc_compositions(f, g, f_id, g_id, ident)


def is_trivial(h: Polynomial, system: System, w: RigMonomial) -> bool:
    ok, _ = triviality(h, system, w)
    return ok


def triviality(h: Polynomial, system: System, w: RigMonomial):
    """(True, None) when h reduces to zero, else (False, witness).

    The witness is the monic normal form that survives reduction.  A
    full reduction certificate only rewrites monomials at or below the
    leading term of h, so zero normal form establishes triviality
    modulo (system, w).
    """
    if h.is_zero():
        return True, None
    lead, _ = system.order.leading(h)
    if not system.order.less(lead, w):
        raise ValueError("polynomial is not below the ambiguity")
    nf, _ = normal_form(h, system)
    if nf.is_zero():
        return True, None
    return False, system.order.make_monic(nf)
