"""Monomial orderings on rig monomials.

The shipped order is the multiset extension of a base monomial order:
sort both component multisets descending and compare lexicographically,
a proper prefix counting as smaller.  Theta (the empty multiset) is the
unique minimum.  This extension is compatible with rewriting contexts
because scaling components is strictly monotone on the base order and
padding adds the same components to both sides of a comparison.

Base orders are keyed by keyword:
  wtlex       degree, then exponents from the highest-precedence
              variable down (commutative mode)
  deglenrlex  word length, then letters right to left (noncommutative)

The canonical storage order of RigMonomial agrees with the matching
base order, so comparison keys coincide with the structural keys the
value types precompute.  The test suite checks that agreement against
an independent reimplementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import CommMonomial, Polynomial, Word

LESS, EQUAL, GREATER = -1, 0, 1

ORDER_KEYWORDS = {
    "wtlex": True,        # keyword -> commutative mode
    "deglenrlex": False,
}


def default_keyword(commutative):
    return "wtlex" if commutative else "deglenrlex"


def order_for(keyword, commutative):
    """Resolve an order keyword, enforcing the keyword/mode pairing."""
    if keyword not in ORDER_KEYWORDS:
        raise ValueError(f"unknown order keyword: {keyword!r}")
    if ORDER_KEYWORDS[keyword] != commutative:
        mode = "commutative" if commutative else "noncommutative"
        raise ValueError(f"order {keyword!r} does not apply to {mode} mode")
    return RigOrder(keyword, commutative)


@dataclass(frozen=True)
class RigOrder:
    """Multiset extension of the base order selected by keyword."""

    keyword: str
    commutative: bool

    def base_key(self, b):
        """Comparison key for a base monomial."""
        expected = CommMonomial if self.commutative else Word
        if not isinstance(b, expected):
            raise TypeError(f"expected {expected.__name__}, got {type(b).__name__}")
        return b.skey

    def key(self, m):
        """Comparison key for a rig monomial (its runs, descending)."""
        return m.skey

    def compare(self, m, n):
        km, kn = m.skey, n.skey
        if km < kn:
            return LESS
        if km > kn:
            return GREATER
        return EQUAL

    def less(self, m, n):
        return m.skey < n.skey

    def sorted_ascending(self, monomials):
        return sorted(monomials, key=lambda m: m.skey)

    def leading(self, f: Polynomial):
        """Greatest support monomial with its coefficient."""
        if f.is_zero():
            raise ValueError("no leading term: zero polynomial")
        m = max(f.terms, key=lambda m: m.skey)
        return m, f.terms[m]

    def make_monic(self, f: Polynomial):
        m, c = self.leading(f)
        if c == 1:
            return f
        return f.scale(1 / c)
