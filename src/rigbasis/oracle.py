"""Bounded brute-force congruence closure over raw relation pairs.

This is the engine's independent ground truth on small instances: a
breadth-first search that applies every relation at every occurrence in
both directions, with no normal forms, orders, or completion involved.
Paths are recorded so every answer replays step by step.

`closure_eq` searches from both ends, one whole layer at a time: forward
from u and backward from v, each time on the side with the smaller
frontier, until one side reaches a monomial the other has seen.  Every
step can be undone within the bounds, so the backward side uses the
same neighbours, and its half of the path is spliced in with each step
reversed.  The first meeting gives a shortest witness path, of the
length a search from u alone finds.  `closure_class` searches from u
alone.

Bounds: max_degree caps the degree of each component of a visited
monomial (a total-degree cap would wall off identities whose shortest
witness paths pass through large intermediate monomials), max_circ_len
caps the component count, and max_expansions caps expanded monomials,
counted over both sides.  The start u is the one monomial that may lie
outside the bounds: its own steps are taken, and so are insertions of a
theta-side relation into it (or into what those insertions leave).
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import CommMonomial, RigMonomial, Word
from .rewrite import Context, base_monomials_up_to, pattern_occurrences

CONGRUENT = "Congruent"
NOT_FOUND = "NotFoundWithinBounds"


@dataclass(frozen=True)
class ClosureBounds:
    max_degree: int = 10
    max_circ_len: int = 8
    max_expansions: int = 100_000

    def admits(self, m: RigMonomial) -> bool:
        return (m.circ_len() <= self.max_circ_len
                and m.max_component_degree() <= self.max_degree)


@dataclass(frozen=True)
class ClosureStep:
    """One rewrite: context[pattern side] = source, context[other side]
    = result.  forward means the pair was applied left to right."""

    rel_index: int
    forward: bool
    context: Context
    result: RigMonomial


def _ident(commutative, alphabet):
    if commutative:
        return CommMonomial.identity(len(alphabet))
    return Word(())


def _insertion_cofactors(rep, commutative, alphabet, bounds):
    """Cofactor pairs (a, b) for expanding with a theta-side relation."""
    budget = bounds.max_degree - rep.max_component_degree()
    if budget < 0:
        return []
    ident = _ident(commutative, alphabet)
    bases = base_monomials_up_to(alphabet, commutative, budget)
    if commutative:
        return [(a, ident) for a in bases]
    out = []
    for a in bases:
        for b in bases:
            if a.degree() + b.degree() <= budget:
                out.append((a, b))
    return out


def _moves(rels, commutative, alphabet, bounds):
    """Each relation direction as (index, forward, pattern, replacement,
    change in circ length, insertion cofactors if the pattern is theta)."""
    out = []
    for idx, (lhs, rhs) in enumerate(rels):
        for forward in (True, False):
            pat, rep = (lhs, rhs) if forward else (rhs, lhs)
            inserts = (_insertion_cofactors(rep, commutative, alphabet,
                                            bounds)
                       if pat.is_theta else None)
            out.append((idx, forward, pat, rep,
                        rep.circ_len() - pat.circ_len(), inserts))
    return out


def _neighbors(m, moves, commutative, bounds, ident):
    out = []
    room = bounds.max_circ_len - m.circ_len()
    for idx, forward, pat, rep, grow, inserts in moves:
        # a result's circ length is m's plus grow in every context
        if grow > room:
            continue
        if inserts is not None:
            for a, b in inserts:
                ctx = Context(a, b, m)
                out.append(ClosureStep(idx, forward, ctx, ctx.apply_mon(rep)))
            continue
        for ctx in pattern_occurrences(m, pat, commutative, ident):
            res = ctx.apply_mon(rep)
            if res.max_component_degree() > bounds.max_degree:
                continue
            out.append(ClosureStep(idx, forward, ctx, res))
    return out


def _search(u, rels, commutative, alphabet, bounds, target):
    """Breadth-first search from u, and back from target if one is given.

    Returns (visited, path): visited holds the monomials either side
    reached, and path is a shortest witness path from u to target, or
    None if target is None or was not found within the bounds.

    Both sides grow by whole layers, the smaller frontier first, and the
    search stops at the first monomial both sides have seen.  Before a
    layer is expanded no monomial within d_f steps of u lies within d_b
    steps of target, so every path has more than d_f + d_b steps and a
    meeting in that layer has exactly d_f + d_b + 1.  Inside the bounds
    every step can be undone, so the backward side expands with the same
    neighbours as the forward side.  Monomials outside the bounds are
    reached only from an out-of-bounds u, and only by chains of
    theta-side insertions; the forward side expands alone while its
    frontier holds one, and a target outside the bounds can only be
    met in that phase.
    """
    fwd = {u: None}
    bwd = {} if target is None else {target: None}
    if u == target:
        return fwd.keys(), []
    stray = not bounds.admits(u)
    inside = target is not None and bounds.admits(target)
    ident = _ident(commutative, alphabet)
    moves = _moves(rels, commutative, alphabet, bounds)
    sides = ((fwd, bwd), (bwd, fwd))
    frontiers = [[u], [target]]
    expansions = 0
    while frontiers[0] and (target is None
                            or (frontiers[1] if inside else stray)):
        side = 0 if (stray or not inside
                     or len(frontiers[0]) <= len(frontiers[1])) else 1
        seen, other = sides[side]
        layer = []
        for m in frontiers[side]:
            if expansions >= bounds.max_expansions:
                return fwd.keys() | bwd.keys(), None
            expansions += 1
            for step in _neighbors(m, moves, commutative, bounds, ident):
                r = step.result
                if r in seen:
                    continue
                seen[r] = (m, step)
                if r in other:
                    return fwd.keys() | bwd.keys(), _splice(fwd, bwd, r)
                layer.append(r)
        frontiers[side] = layer
        if side == 0 and stray:
            stray = not all(map(bounds.admits, layer))
    return fwd.keys() | bwd.keys(), None


def _splice(fwd, bwd, meet):
    """The path u -> meet from fwd, then meet -> target from bwd, whose
    steps ran from target towards meet and are reversed here."""
    steps = []
    cur = meet
    while fwd[cur] is not None:
        prev, step = fwd[cur]
        steps.append(step)
        cur = prev
    steps.reverse()
    cur = meet
    while bwd[cur] is not None:
        nxt, step = bwd[cur]
        steps.append(ClosureStep(step.rel_index, not step.forward,
                                 step.context, nxt))
        cur = nxt
    return steps


def closure_eq(u: RigMonomial, v: RigMonomial, rels, commutative: bool,
               alphabet, bounds: ClosureBounds = None):
    """(status, path): Congruent with a shortest replayable witness path
    from u to v, found by searching from both ends, or
    NotFoundWithinBounds (which proves nothing).  max_expansions counts
    the monomials expanded on both sides."""
    if bounds is None:
        bounds = ClosureBounds()
    _, path = _search(u, rels, commutative, alphabet, bounds, v)
    if path is not None:
        return CONGRUENT, path
    return NOT_FOUND, None


def closure_class(u: RigMonomial, rels, commutative: bool, alphabet,
                  bounds: ClosureBounds = None) -> frozenset:
    """All monomials reachable from u within the bounds."""
    if bounds is None:
        bounds = ClosureBounds()
    visited, _ = _search(u, rels, commutative, alphabet, bounds, None)
    return frozenset(visited)


def replay_path(u: RigMonomial, path, rels) -> RigMonomial:
    """Re-execute a witness path, checking every step, and return the
    final monomial."""
    cur = u
    for step in path:
        lhs, rhs = rels[step.rel_index]
        pat, rep = (lhs, rhs) if step.forward else (rhs, lhs)
        if step.context.apply_mon(pat) != cur:
            raise ValueError("path step does not match its source")
        cur = step.context.apply_mon(rep)
        if cur != step.result:
            raise ValueError("path step result mismatch")
    return cur
