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
(ctx_g[g.rhs], ctx_f[f.rhs]), standing for ctx_g[g.rhs] - ctx_f[f.rhs].
It is zero exactly when rf.a + (w - lf.a) = rg.b + (w - lg.b) (a, b the
cofactors, + - on multisets), i.e. when (rf - lf).a = (rg - lg).b.  As
scaling is injective on base monomials, compositions() compares each
relation's signed delta (Relation.delta) shifted by its cofactors, and
makes a cheap CompositionRecord per nonzero site at or below the degree
cap, if one is given; a site above it is only counted.  A record's
ambiguity is built on first read (completion: when the record's key
prefix reaches the top of the queue), its contexts and S-pair likewise
(completion: on pop with both parents active; verify: always).
"""

from __future__ import annotations

from operator import add

from .terms import CommMonomial, Polynomial, RigMonomial, Word
from .rewrite import Context, Relation, System, normal_form

KIND_COMM = "commutative-pair"
KIND_INTERSECTION = "intersection"
KIND_INCLUSION = "inclusion"


class CompositionRecord:
    """One composition site of the ordered pair (f, g), built in stages.

    Set when made: f, g, f_id, g_id, kind, the sites p (of lhs f) and q
    (of lhs g), the cofactors a and b, the context cofactors cf and cg
    as (left, right) pairs, and degree, the ambiguity's greatest
    component degree.  key_prefix() gives the first two items of the
    ambiguity's sort key without building it.  Built on first read:
    ambiguity; then, by _record, mf = ctx_f[f.rhs], mg = ctx_g[g.rhs],
    ctx_f and ctx_g.
    """

    __slots__ = ("f", "g", "f_id", "g_id", "kind", "p", "q", "a", "b", "cf",
                 "cg", "degree", "_lf", "_lg", "_ambiguity", "_built")

    def __init__(self, f, g, f_id, g_id, kind, p, q, a, b, cf, cg, degree):
        self.f, self.g, self.f_id, self.g_id = f, g, f_id, g_id
        self.kind, self.p, self.q, self.a, self.b = kind, p, q, a, b
        self.cf, self.cg, self.degree = cf, cg, degree
        self._ambiguity = self._built = None

    @property
    def ambiguity(self) -> RigMonomial:
        if self._ambiguity is None:
            self._lf = self.f.lhs.scaled(*self.cf)
            self._lg = self.g.lhs.scaled(*self.cg)
            self._ambiguity = self._lf.lcm(self._lg)
        return self._ambiguity

    def key_prefix(self):
        """(g.skey, m) == ambiguity.skey[:2], without building w.

        Scaling keeps the base order, so the greatest component of each
        scaled lhs is its greatest base scaled, with the same
        multiplicity; g is the greater of the two, and the lcm takes the
        larger multiplicity when they coincide.
        """
        (bf, mf), (bg, mg) = self.f.lhs.runs[-1], self.g.lhs.runs[-1]
        (lf, rf), (lg, rg) = self.cf, self.cg
        kf = lf.mul(bf).mul(rf).skey
        kg = lg.mul(bg).mul(rg).skey
        if kf == kg:
            return kf, max(mf, mg)
        return (kf, mf) if kf > kg else (kg, mg)

    def _build(self):
        """(mf, mg, ctx_f, ctx_g), made by _record on the first call."""
        if self._built is None:
            w = self.ambiguity
            if (w.max_component_degree() != self.degree
                    or _record(self.f, self.g, self.f_id, self.g_id,
                               self.kind, self.p, self.q, self.a, self.b,
                               Context(*self.cf, w.difference(self._lf)),
                               Context(*self.cg, w.difference(self._lg)),
                               w, self._lf, self._lg, self) is None):
                raise AssertionError("built record contradicts the zero "
                                     "test or the predicted degree")
        return self._built

    mf = property(lambda self: self._build()[0])
    mg = property(lambda self: self._build()[1])
    ctx_f = property(lambda self: self._build()[2])
    ctx_g = property(lambda self: self._build()[3])

    @property
    def spoly(self) -> Polynomial:
        """ctx_f[f] - ctx_g[g], which is mg - mf."""
        mf, mg = self._build()[:2]
        return Polynomial(((mf, -1), (mg, 1)))


def _record(f: Relation, g: Relation, f_id, g_id, kind, p, q, a, b,
            ctx_f: Context, ctx_g: Context, w: RigMonomial,
            lf: RigMonomial, lg: RigMonomial, rec=None):
    """Built record for one site, or None when its S-polynomial vanishes.

    lf and lg are f.lhs and g.lhs already scaled by the cofactors of
    ctx_f and ctx_g; padding them must give w.  rec, when given, is the
    site's lazy record, which is filled in place instead of copied.
    """
    if lf.circ(ctx_f.pad) != w or lg.circ(ctx_g.pad) != w:
        raise AssertionError("composition contexts do not meet the ambiguity")
    mf = ctx_f.apply_mon(f.rhs)
    mg = ctx_g.apply_mon(g.rhs)
    if mf == mg:
        return None
    if not max(mf.skey, mg.skey) < w.skey:
        raise AssertionError("S-polynomial is not below its ambiguity")
    if rec is None:
        rec = CompositionRecord(f, g, f_id, g_id, kind, p, q, a, b,
                                (ctx_f.left, ctx_f.right),
                                (ctx_g.left, ctx_g.right),
                                w.max_component_degree())
    rec._lf, rec._lg, rec._ambiguity = lf, lg, w
    rec._built = (mf, mg, ctx_f, ctx_g)
    return rec


def _shifted(delta, left, right):
    """delta with every base monomial c replaced by left.c.right."""
    if left.is_identity and right.is_identity:
        return delta
    if isinstance(left, CommMonomial):
        e = left.exps
        return {tuple(map(add, k, e)): n for k, n in delta.items()}
    l, r = left.letters, right.letters
    return {l + k + r: n for k, n in delta.items()}


def compositions(f: Relation, g: Relation, f_id: int, g_id: int,
                 commutative: bool, ident, max_degree=None,
                 skipped=None) -> list:
    """Records of the ordered pair (f, g) whose S-polynomial is nonzero,
    one per site; duplicates by cofactor are dropped.

    With max_degree, a nonzero site whose degree exceeds it gets no
    record: its degree is appended to the list skipped instead.

    Every comparison here is a sort-key comparison, so the order the
    relations were oriented by is not needed.
    """
    out = []
    seen = set()
    df, dg = f.delta, g.delta
    hf = f.lhs.max_component_degree()
    hg = g.lhs.max_component_degree()

    def site(kind, p, q, a, b, cf, cg):
        key = (kind, a.skey, b.skey)
        if key in seen:
            return
        seen.add(key)
        # a shift keeps the number of entries, so unequal sizes differ
        if len(df) != len(dg) or _shifted(df, *cf) != _shifted(dg, *cg):
            degree = max(hf + cf[0].degree() + cf[1].degree(),
                         hg + cg[0].degree() + cg[1].degree())
            if max_degree is not None and degree > max_degree:
                skipped.append(degree)
                return
            out.append(CompositionRecord(f, g, f_id, g_id, kind, p, q, a, b,
                                         cf, cg, degree))

    for p in f.lhs.distinct_components():
        for q in g.lhs.distinct_components():
            if commutative:
                l = p.lcm(q)
                a, b = l.div(p), l.div(q)
                site(KIND_COMM, p, q, a, b, (a, ident), (b, ident))
                continue
            lp, lq = p.letters, q.letters
            # intersections: nonempty suffix of p = prefix of q, proper
            for k in range(1, min(len(lp), len(lq))):
                if lp[len(lp) - k:] == lq[:k]:
                    a, b = Word(lq[k:]), Word(lp[:len(lp) - k])
                    site(KIND_INTERSECTION, p, q, a, b, (ident, a), (b, ident))
            # inclusions: p = a q b over every embedding of q in p
            for a, b in p.occurrences(q):
                site(KIND_INCLUSION, p, q, a, b, (ident, ident), (a, b))
    return out


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
