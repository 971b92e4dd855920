"""Presentation files, expression parsing, and canonical rendering.

File format, one declaration per line ('#' starts a comment):

    mode: commutative | noncommutative
    vars: x y ...          # declaration order = ascending precedence
    order: wtlex | deglenrlex   (optional; defaults per mode)
    rel: EXPR = EXPR

Expressions: '+' is the semiring addition, juxtaposition or '*' the
product, '^' a natural-number power, '0' the additive identity, '1' the
empty base monomial.  Every expression denotes a single rig monomial;
sums of products expand by distributivity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .terms import (Alphabet, CommMonomial, Polynomial, RigMonomial, THETA,
                    Word)
from .ordering import (ORDER_KEYWORDS, RigOrder, default_keyword, order_for)
from .rewrite import System, orient_pair


class PresentationError(ValueError):
    pass


@dataclass
class Presentation:
    commutative: bool
    alphabet: Alphabet
    order_keyword: str
    relations: list = field(default_factory=list)

    @property
    def mode_name(self):
        return "commutative" if self.commutative else "noncommutative"

    def order(self) -> RigOrder:
        return order_for(self.order_keyword, self.commutative)

    def system(self) -> System:
        """Orient the declared relations into a rewriting system."""
        order = self.order()
        rels = [orient_pair(m, n, order) for m, n in self.relations]
        return System(self.commutative, self.alphabet, order, tuple(rels))


_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)"
                    r"|(?P<nat>\d+)"
                    r"|(?P<punct>[+*^()])"
                    r"|(?P<bad>\S))")


def _tokenize(text):
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise PresentationError(f"unexpected character {m.group('bad')!r}")
        out.append((m.lastgroup, m.group(m.lastgroup)))
    out.append(("end", ""))
    return out


class _ExprParser:
    """Recursive descent over: expr := term (+ term)*;
    term := factor (*? factor)*; factor := atom (^ nat)?;
    atom := 0 | 1 | ident | ( expr )."""

    def __init__(self, text, alphabet: Alphabet, commutative: bool):
        self.toks = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.commutative = commutative
        if commutative:
            self.ident_mono = RigMonomial.singleton(
                CommMonomial.identity(len(alphabet)))
        else:
            self.ident_mono = RigMonomial.singleton(Word(()))

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_punct(self, ch):
        kind, val = self.take()
        if kind != "punct" or val != ch:
            raise PresentationError(f"expected {ch!r}, found {val or 'end'!r}")

    def parse(self) -> RigMonomial:
        m = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise PresentationError(f"trailing input at {val!r}")
        return m

    def expr(self) -> RigMonomial:
        m = self.term()
        while self.peek() == ("punct", "+"):
            self.take()
            m = m.circ(self.term())
        return m

    def _starts_factor(self):
        kind, val = self.peek()
        return kind in ("ident", "nat") or (kind == "punct" and val == "(")

    def term(self) -> RigMonomial:
        m = self.factor()
        while True:
            if self.peek() == ("punct", "*"):
                self.take()
                m = m.times(self.factor())
            elif self._starts_factor():
                m = m.times(self.factor())
            else:
                return m

    def factor(self) -> RigMonomial:
        m = self.atom()
        if self.peek() == ("punct", "^"):
            self.take()
            kind, val = self.take()
            if kind != "nat":
                raise PresentationError("exponent must be a natural number")
            n = int(val)
            if n == 0:
                if m.is_theta:
                    raise PresentationError("0^0 is undefined")
                return self.ident_mono
            # repeated squaring; times is associative, so the result is
            # the same as n - 1 successive products
            acc = None
            while True:
                if n & 1:
                    acc = m if acc is None else acc.times(m)
                n >>= 1
                if not n:
                    return acc
                m = m.times(m)
        return m

    def atom(self) -> RigMonomial:
        kind, val = self.take()
        if kind == "nat":
            if val == "0":
                return THETA
            if val == "1":
                return self.ident_mono
            raise PresentationError(f"unexpected number {val!r}")
        if kind == "ident":
            try:
                rank = self.alphabet.rank(val)
            except KeyError:
                raise PresentationError(f"unknown symbol {val!r}") from None
            if self.commutative:
                base = CommMonomial.variable(rank, len(self.alphabet))
            else:
                base = Word((rank,))
            return RigMonomial.singleton(base)
        if kind == "punct" and val == "(":
            m = self.expr()
            self.expect_punct(")")
            return m
        raise PresentationError(f"unexpected token {val or 'end'!r}")


def parse_expr(text: str, p: Presentation) -> RigMonomial:
    return _ExprParser(text, p.alphabet, p.commutative).parse()


def parse_expr_raw(text, alphabet, commutative) -> RigMonomial:
    return _ExprParser(text, alphabet, commutative).parse()


def parse_presentation(text: str) -> Presentation:
    mode = None
    names = None
    keyword = None
    rel_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("mode", "vars", "order", "rel"):
            raise PresentationError(f"line {lineno}: expected "
                                    f"'mode:', 'vars:', 'order:' or 'rel:'")
        rest = rest.strip()
        if key == "mode":
            if mode is not None:
                raise PresentationError(f"line {lineno}: duplicate mode line")
            if rest not in ("commutative", "noncommutative"):
                raise PresentationError(f"line {lineno}: unknown mode {rest!r}")
            mode = rest
        elif key == "vars":
            if names is not None:
                raise PresentationError(f"line {lineno}: duplicate vars line")
            names = rest.split()
            if not names:
                raise PresentationError(f"line {lineno}: empty vars line")
        elif key == "order":
            if keyword is not None:
                raise PresentationError(f"line {lineno}: duplicate order line")
            keyword = rest
        else:
            rel_lines.append((lineno, rest))
    if mode is None:
        raise PresentationError("missing mode line")
    if names is None:
        raise PresentationError("missing vars line")
    commutative = mode == "commutative"
    try:
        alphabet = Alphabet(names)
    except ValueError as e:
        raise PresentationError(str(e)) from None
    if keyword is None:
        keyword = default_keyword(commutative)
    try:
        order_for(keyword, commutative)
    except ValueError as e:
        raise PresentationError(str(e)) from None
    p = Presentation(commutative, alphabet, keyword, [])
    for lineno, body in rel_lines:
        sides = body.split("=")
        if len(sides) != 2:
            raise PresentationError(f"line {lineno}: rel needs exactly "
                                    f"one '='")
        lhs = parse_expr(sides[0], p)
        rhs = parse_expr(sides[1], p)
        if lhs == rhs:
            raise PresentationError(f"line {lineno}: relation sides are "
                                    f"identical")
        p.relations.append((lhs, rhs))
    return p


def render_base(b, alphabet: Alphabet) -> str:
    if isinstance(b, CommMonomial):
        if b.is_identity:
            return "1"
        parts = []
        for rank, e in enumerate(b.exps):
            if e == 1:
                parts.append(alphabet.name(rank))
            elif e > 1:
                parts.append(f"{alphabet.name(rank)}^{e}")
        return " ".join(parts)
    if isinstance(b, Word):
        if b.is_identity:
            return "1"
        parts = []
        run = None
        count = 0
        for r in b.letters + (None,):
            if r == run:
                count += 1
                continue
            if run is not None:
                name = alphabet.name(run)
                parts.append(name if count == 1 else f"{name}^{count}")
            run, count = r, 1
        return " ".join(parts)
    raise TypeError(f"not a base monomial: {b!r}")


def render_monomial(m: RigMonomial, alphabet: Alphabet) -> str:
    if m.is_theta:
        return "0"
    return " + ".join(render_base(c, alphabet) for c in m.components())


def render_polynomial(f: Polynomial, alphabet: Alphabet) -> str:
    if f.is_zero():
        return "0"
    out = []
    for m, c in f.items_desc():
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        chunk = f"{mag}({render_monomial(m, alphabet)})"
        if not out:
            out.append(chunk if c > 0 else f"-{chunk}")
        else:
            out.append(f"{' + ' if c > 0 else ' - '}{chunk}")
    return "".join(out)


def render_relation(rel, alphabet: Alphabet) -> str:
    return (f"{render_monomial(rel.lhs, alphabet)} = "
            f"{render_monomial(rel.rhs, alphabet)}")


def render_presentation(p: Presentation) -> str:
    lines = [f"mode: {p.mode_name}",
             f"vars: {' '.join(p.alphabet.names)}",
             f"order: {p.order_keyword}"]
    for m, n in p.relations:
        lines.append(f"rel: {render_monomial(m, p.alphabet)} = "
                     f"{render_monomial(n, p.alphabet)}")
    return "\n".join(lines) + "\n"


def render_system_file(system: System) -> str:
    mode = "commutative" if system.commutative else "noncommutative"
    lines = [f"mode: {mode}",
             f"vars: {' '.join(system.alphabet.names)}",
             f"order: {system.order.keyword}"]
    for rel in system.active_relations():
        lines.append(f"rel: {render_relation(rel, system.alphabet)}")
    return "\n".join(lines) + "\n"


def render_trace(trace, system: System) -> list:
    """One line per step: coeff * (left) [rel #k] (right) + pad."""
    lines = []
    a = system.alphabet
    for st in trace.steps:
        ctx = st.context
        lines.append(f"{st.coeff} * ({render_base(ctx.left, a)}) "
                     f"[rel #{st.rel_id}] ({render_base(ctx.right, a)}) "
                     f"+ {render_monomial(ctx.pad, a)}")
    return lines
