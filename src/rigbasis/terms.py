"""Core value types: words, commutative monomials, rig monomials, polynomials.

A rig monomial is a finite multiset of base monomials.  The additive
identity theta is the empty multiset; it is absorbing for the product
and distinct from the zero polynomial.  All values here are immutable
and hashable, so they can be shared freely across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import le, sub

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*\Z")


class Alphabet:
    """Ordered set of generator names; position = ascending precedence."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        seen = set()
        for n in names:
            if not IDENT_RE.match(n):
                raise ValueError(f"invalid generator name: {n!r}")
            if n in seen:
                raise ValueError(f"duplicate generator name: {n!r}")
            seen.add(n)
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def rank(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown symbol: {name!r}") from None

    def name(self, rank):
        return self.names[rank]

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"


class Word:
    """Noncommutative base monomial: a sequence of letter ranks.

    The sort key orders by length first, then by letter ranks read right
    to left, which is the comparison the noncommutative engine uses.
    """

    __slots__ = ("letters", "skey", "_hash")

    def __init__(self, letters=()):
        letters = tuple(letters)
        skey = (len(letters), tuple(reversed(letters)))
        self.letters = letters
        self.skey = skey
        self._hash = hash(("w", skey))

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Word({list(self.letters)!r})"

    @property
    def is_identity(self):
        return not self.letters

    def degree(self):
        return len(self.letters)

    def mul(self, other):
        if not self.letters:
            return other
        if not other.letters:
            return self
        return Word(self.letters + other.letters)

    def occurrences(self, sub):
        """All splittings self = a . sub . b, as (a, b) word pairs."""
        s, t = self.letters, sub.letters
        n, k = len(s), len(t)
        out = []
        for i in range(n - k + 1):
            if s[i:i + k] == t:
                out.append((Word(s[:i]), Word(s[i + k:])))
        return out


class CommMonomial:
    """Commutative base monomial: a dense exponent vector.

    The sort key is total degree first, then exponents read from the
    highest-precedence variable down (degree lex).
    """

    __slots__ = ("exps", "skey", "_hash")

    def __init__(self, exps):
        exps = tuple(exps)
        skey = (sum(exps), tuple(reversed(exps)))
        self.exps = exps
        self.skey = skey
        self._hash = hash(("c", skey))

    @classmethod
    def identity(cls, nvars):
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, rank, nvars, exp=1):
        exps = [0] * nvars
        exps[rank] = exp
        return cls(exps)

    def __eq__(self, other):
        return isinstance(other, CommMonomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CommMonomial({list(self.exps)!r})"

    @property
    def is_identity(self):
        return self.skey[0] == 0

    def degree(self):
        return self.skey[0]

    def mul(self, other):
        if not self.skey[0]:
            return other
        if not other.skey[0]:
            return self
        return CommMonomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other):
        return all(map(le, self.exps, other.exps))

    def div(self, other):
        """Quotient self / other; caller guarantees divisibility."""
        return CommMonomial(tuple(map(sub, self.exps, other.exps)))

    def lcm(self, other):
        return CommMonomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))


class RigMonomial:
    """Finite multiset of base monomials, stored as sorted run-length pairs.

    runs is a tuple of (base, multiplicity) with bases strictly ascending
    by skey.  The empty tuple is theta.  skey is the flat tuple
    (b1.skey, m1, b2.skey, m2, ...) over the runs in descending order,
    so its length is twice the number of runs.  Base keys sit at even
    positions and multiplicities at odd ones; comparing skeys
    lexicographically realizes the multiset extension of the base order
    (a proper prefix is smaller): at the first differing run, a greater
    base wins, and with equal bases the larger multiplicity wins, because
    the other multiset continues with a smaller base or ends.
    """

    __slots__ = ("runs", "skey", "_hash")

    def __init__(self, runs=()):
        runs = tuple(runs)
        # canonicalize unless already sorted-strict with positive counts
        ok = all(m > 0 for _, m in runs)
        if ok:
            for i in range(len(runs) - 1):
                if runs[i][0].skey >= runs[i + 1][0].skey:
                    ok = False
                    break
        if not ok:
            acc = {}
            for b, m in runs:
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m:
                    acc[b] = acc.get(b, 0) + m
            runs = tuple(sorted(acc.items(), key=lambda r: r[0].skey))
        skey = []
        for b, m in reversed(runs):
            skey.append(b.skey)
            skey.append(m)
        self.runs = runs
        self.skey = tuple(skey)
        self._hash = hash(("r", self.skey))

    @classmethod
    def from_components(cls, comps):
        return cls(tuple((b, 1) for b in comps))

    @classmethod
    def singleton(cls, base, mult=1):
        return cls(((base, mult),)) if mult else THETA

    def __eq__(self, other):
        return isinstance(other, RigMonomial) and self.skey == other.skey

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RigMonomial({list(self.runs)!r})"

    @property
    def is_theta(self):
        return not self.runs

    def components(self):
        """Expanded components, ascending, with multiplicity."""
        for b, m in self.runs:
            for _ in range(m):
                yield b

    def distinct_components(self):
        return [b for b, _ in self.runs]

    def greatest_component(self):
        if not self.runs:
            raise ValueError("theta has no components")
        return self.runs[-1][0]

    def multiplicity(self, base):
        for b, m in self.runs:
            if b == base:
                return m
        return 0

    def circ_len(self):
        return sum(m for _, m in self.runs)

    def total_degree(self):
        return sum(b.degree() * m for b, m in self.runs)

    def max_component_degree(self):
        # base sort keys lead with the degree, so the greatest base has it
        return self.runs[-1][0].degree() if self.runs else 0

    def circ(self, other):
        """Multiset union (the semiring addition on monomials)."""
        if not self.runs:
            return other
        if not other.runs:
            return self
        out = []
        i = j = 0
        a, b = self.runs, other.runs
        while i < len(a) and j < len(b):
            ka, kb = a[i][0].skey, b[j][0].skey
            if ka < kb:
                out.append(a[i]); i += 1
            elif kb < ka:
                out.append(b[j]); j += 1
            else:
                out.append((a[i][0], a[i][1] + b[j][1])); i += 1; j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return RigMonomial(tuple(out))

    def times(self, other):
        """All pairwise base products; theta absorbs."""
        if not self.runs or not other.runs:
            return THETA
        out = []
        for b, m in self.runs:
            for c, k in other.runs:
                out.append((b.mul(c), m * k))
        return RigMonomial(tuple(out))

    def scaled(self, left, right=None):
        """Multiply every component by base monomials on both sides."""
        if not self.runs or (left.is_identity
                             and (right is None or right.is_identity)):
            return self
        out = []
        for b, m in self.runs:
            c = left.mul(b)
            if right is not None:
                c = c.mul(right)
            out.append((c, m))
        return RigMonomial(tuple(out))

    def lcm(self, other):
        """Least common multiple for circ: the pointwise multiplicity max."""
        out = []
        i = j = 0
        a, b = self.runs, other.runs
        while i < len(a) and j < len(b):
            ka, kb = a[i][0].skey, b[j][0].skey
            if ka < kb:
                out.append(a[i]); i += 1
            elif kb < ka:
                out.append(b[j]); j += 1
            else:
                out.append((a[i][0], max(a[i][1], b[j][1]))); i += 1; j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return RigMonomial(tuple(out))

    def includes(self, other):
        """Multiset containment: other is a submultiset of self."""
        i = 0
        a = self.runs
        for b, m in other.runs:
            kb = b.skey
            while i < len(a) and a[i][0].skey < kb:
                i += 1
            if i >= len(a) or a[i][0].skey != kb or a[i][1] < m:
                return False
        return True

    def difference(self, other):
        """Multiset difference; caller guarantees containment."""
        if not other.runs:
            return self
        out = []
        j = 0
        b = other.runs
        for base, m in self.runs:
            if j < len(b) and b[j][0].skey == base.skey:
                m -= b[j][1]
                j += 1
                if m < 0:
                    raise ValueError("difference without containment")
            if m:
                out.append((base, m))
        if j < len(b):
            raise ValueError("difference without containment")
        return RigMonomial(tuple(out))


THETA = RigMonomial(())


def lcm_circ(m, n):
    """Least common multiple for the multiset union.

    Returns (w, u, v) with w = m circ u = n circ v and w = m.lcm(n).
    """
    w = m.lcm(n)
    return w, w.difference(m), w.difference(n)


ZERO = Fraction(0)
ONE = Fraction(1)


class Polynomial:
    """Finite linear combination of rig monomials over exact rationals.

    Stored coefficients are nonzero.  The polynomial with the single
    term 1*theta is not the zero polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c:
                    acc = t.get(m, ZERO) + c
                    if acc:
                        t[m] = acc
                    elif m in t:
                        del t[m]
        self.terms = t

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, m, coeff=ONE):
        p = cls()
        c = Fraction(coeff)
        if c:
            p.terms[m] = c
        return p

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"Polynomial({sorted(self.terms.items(), key=lambda t: t[0].skey)!r})"

    def is_zero(self):
        return not self.terms

    def coeff(self, m):
        return self.terms.get(m, ZERO)

    def support(self):
        """Support monomials, descending by skey (greatest first)."""
        return sorted(self.terms, key=lambda m: m.skey, reverse=True)

    def items_desc(self):
        return [(m, self.terms[m]) for m in self.support()]

    def add(self, other):
        t = dict(self.terms)
        for m, c in other.terms.items():
            acc = t.get(m, ZERO) + c
            if acc:
                t[m] = acc
            elif m in t:
                del t[m]
        p = Polynomial()
        p.terms = t
        return p

    def neg(self):
        p = Polynomial()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        c = Fraction(c)
        p = Polynomial()
        if c:
            p.terms = {m: c * k for m, k in self.terms.items()}
        return p

    def times(self, other):
        out = Polynomial()
        t = out.terms
        for m, c in self.terms.items():
            for n, d in other.terms.items():
                k = m.times(n)
                acc = t.get(k, ZERO) + c * d
                if acc:
                    t[k] = acc
                elif k in t:
                    del t[k]
        return out

    def circ(self, other):
        out = Polynomial()
        t = out.terms
        for m, c in self.terms.items():
            for n, d in other.terms.items():
                k = m.circ(n)
                acc = t.get(k, ZERO) + c * d
                if acc:
                    t[k] = acc
                elif k in t:
                    del t[k]
        return out
