"""Completion of binomial presentations and the word-problem decision.

The worklist processes ambiguities smallest first.  Surviving
S-polynomials are appended as new oriented relations; relations whose
sides become reducible retire permanently and their reduced forms
re-enter through the same append path, so the relation log is
append-only and recorded traces always replay.  The final basis is
minimalized, autoreduced, and sorted, which makes it canonical for the
ideal regardless of input order or tie-breaking.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace

from .terms import Polynomial, RigMonomial
from .ordering import RigOrder, default_keyword, order_for
from .rewrite import (Relation, System, normal_form, normal_form_monomial,
                      occurs, orient_pair, split_normal_form)
# unused here, but perfbench/tracer.py wraps it at this lookup site by name
from .rewrite import pattern_occurrences  # noqa: F401
from .composition import compositions, triviality

STATUS_COMPLETE = "Complete"
STATUS_TRUNCATED = "Truncated"

EQUAL = "Equal"
DISTINCT = "Distinct"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class CompletionLimits:
    """Caps for the completion loop.

    max_ambiguity_degree bounds the degree of the greatest component of
    any ambiguity the loop will process; larger ambiguities are skipped
    and force a Truncated status.  max_steps caps processed records.
    """

    max_ambiguity_degree: int = 24
    max_steps: int = 200_000


@dataclass
class CompletionReport:
    basis: System
    status: str
    stats: dict
    limits: CompletionLimits


def _as_relation(p: Polynomial) -> Relation:
    """Monic polynomial -> oriented binomial relation, with shape checks."""
    items = p.items_desc()
    if len(items) != 2:
        raise AssertionError("completion produced a non-binomial relation")
    (lead, c1), (rest, c2) = items
    if c1 != 1 or c2 != -1:
        raise AssertionError("completion produced non-unit coefficients")
    return Relation(lead, rest)


class _Completer:
    def __init__(self, commutative, alphabet, order, limits, tie_seed):
        self.commutative = commutative
        self.alphabet = alphabet
        self.order = order
        self.limits = limits
        self.rng = random.Random(tie_seed) if tie_seed is not None else None
        self.log = []
        self.active = []          # parallel bools
        self.heap = []
        self.seq = 0
        self.stats = {
            "pairs_examined": 0,
            "records_queued": 0,
            "relations_added": 0,
            "relations_retired": 0,
            "truncation_skips": 0,
            "max_ambiguity_degree_seen": 0,
        }
        self.snapshot_cache = None

    def snapshot(self) -> System:
        if self.snapshot_cache is None:
            ids = [i for i, a in enumerate(self.active) if a]
            self.snapshot_cache = System(self.commutative, self.alphabet,
                                         self.order, tuple(self.log), ids)
        return self.snapshot_cache

    def _tiebreak(self):
        return self.rng.random() if self.rng is not None else 0.0

    def enqueue_pairs(self, new_id):
        """Queue the records of every pair with the new relation.

        A record enters the heap on its key prefix, the first two items
        of its ambiguity's sort key, and its exact key is computed only
        when that entry reaches the top (see run).  The tie-break is
        drawn here, once per record, in enumeration order.
        """
        ids = [i for i, a in enumerate(self.active) if a]
        pairs = [(new_id, new_id)]
        for j in ids:
            if j != new_id:
                pairs.append((new_id, j))
                pairs.append((j, new_id))
        stats, cap = self.stats, self.limits.max_ambiguity_degree
        skipped = []
        for fi, gi in pairs:
            recs = compositions(self.log[fi], self.log[gi], fi, gi,
                                self.commutative, self.snapshot().ident,
                                cap, skipped)
            for rec in recs:
                if rec.degree > stats["max_ambiguity_degree_seen"]:
                    stats["max_ambiguity_degree_seen"] = rec.degree
                self.seq += 1
                heappush(self.heap, (rec.key_prefix(), self._tiebreak(),
                                     self.seq, rec, False))
            stats["records_queued"] += len(recs)
        if skipped:
            stats["truncation_skips"] += len(skipped)
            stats["max_ambiguity_degree_seen"] = max(
                stats["max_ambiguity_degree_seen"], *skipped)

    def integrate(self, p: Polynomial):
        """Reduce p against the current basis; append a survivor and
        cascade retirement of relations it now reduces."""
        queue = deque([p])
        while queue:
            h = queue.popleft()
            nf, _ = normal_form(h, self.snapshot())
            if nf.is_zero():
                continue
            rel = _as_relation(self.order.make_monic(nf))
            new_id = len(self.log)
            self.log.append(rel)
            self.active.append(True)
            self.snapshot_cache = None
            self.stats["relations_added"] += 1
            ident = self.snapshot().ident
            for j, alive in enumerate(self.active):
                if not alive or j == new_id:
                    continue
                old = self.log[j]
                if (occurs(old.lhs, rel.lhs, self.commutative, ident)
                        or occurs(old.rhs, rel.lhs, self.commutative, ident)):
                    self.active[j] = False
                    self.snapshot_cache = None
                    self.stats["relations_retired"] += 1
                    queue.append(old.poly())
            self.enqueue_pairs(new_id)

    def run(self, pairs):
        for m, n in pairs:
            p = Polynomial.monomial(m).sub(Polynomial.monomial(n))
            if p.is_zero():
                raise ValueError("zero relation in input")
            self.integrate(p)
        # Entries are (key, tie-break, seq, record, exact).  A prefix
        # entry sorts before the exact entry of the same record, and
        # seq is unique, so exact entries pop in the order of a heap
        # keyed by the full ambiguity.  A prefix entry at the top is
        # replaced by its exact entry whether or not its parents are
        # still active, so the heap holds the same records at every
        # step-cap check as one keyed exactly from the start.
        heap = self.heap
        hit_step_cap = False
        while heap:
            if self.stats["pairs_examined"] >= self.limits.max_steps:
                hit_step_cap = True
                break
            _, tie, seq, rec, exact = heap[0]
            if not exact:
                heapreplace(heap, (rec.ambiguity.skey, tie, seq, rec, True))
                continue
            heappop(heap)
            if not (self.active[rec.f_id] and self.active[rec.g_id]):
                continue
            self.stats["pairs_examined"] += 1
            self.integrate(rec.spoly)
        truncated = hit_step_cap or self.stats["truncation_skips"] > 0
        return STATUS_TRUNCATED if truncated else STATUS_COMPLETE


def complete(pairs, commutative, alphabet, order: RigOrder = None,
             limits: CompletionLimits = None,
             tie_seed=None) -> CompletionReport:
    """Run completion on oriented-or-not monomial pairs.

    pairs may come in either orientation; each is oriented by the order
    first.  Returns the canonical reduced basis with Complete status
    only when no ambiguity was skipped and the worklist drained.
    """
    if order is None:
        order = order_for(default_keyword(commutative), commutative)
    if limits is None:
        limits = CompletionLimits()
    comp = _Completer(commutative, alphabet, order, limits, tie_seed)
    status = comp.run(pairs)
    basis = reduce_system(comp.snapshot())
    stats = dict(comp.stats)
    stats["basis_size"] = len(basis.relations)
    return CompletionReport(basis, status, stats, limits)


def minimalize(system: System) -> System:
    """Drop relations whose leading monomial matches inside another's.

    Scans ascending by leading monomial and keeps the first occurrence,
    so the result is deterministic.
    """
    rels = sorted(system.active_relations(),
                  key=lambda r: (r.lhs.skey, r.rhs.skey))
    kept = []
    for rel in rels:
        if not any(occurs(rel.lhs, k.lhs, system.commutative, system.ident)
                   for k in kept):
            kept.append(rel)
    return System(system.commutative, system.alphabet, system.order,
                  tuple(kept))


def autoreduce(system: System) -> System:
    """Reduce every relation's support against the others, to fixpoint.

    Expects a minimal system, so leading terms are stable and only the
    smaller sides can change.
    """
    rels = list(system.active_relations())
    changed = True
    while changed:
        changed = False
        for i, rel in enumerate(rels):
            others = System(system.commutative, system.alphabet,
                            system.order,
                            tuple(r for j, r in enumerate(rels) if j != i))
            nf, _ = normal_form(rel.poly(), others)
            new = _as_relation(system.order.make_monic(nf))
            if new.lhs != rel.lhs:
                raise AssertionError("autoreduce moved a leading term of a "
                                     "minimal system")
            if new != rel:
                rels[i] = new
                changed = True
    rels.sort(key=lambda r: (r.lhs.skey, r.rhs.skey))
    return System(system.commutative, system.alphabet, system.order,
                  tuple(rels))


def reduce_system(system: System) -> System:
    return autoreduce(minimalize(system))


def composition_checks(system: System):
    """Yield (record, ok, witness) for every composition of the active
    relations, over ordered pairs, as triviality judges it."""
    act = system.active()
    for i, ri in act:
        for j, rj in act:
            for rec in compositions(ri, rj, i, j, system.commutative,
                                    system.ident):
                yield (rec, *triviality(rec.spoly, system, rec.ambiguity))


def verify(system: System):
    """Check that every composition of active relations is trivial.

    Returns (ok, witnesses); each witness pairs the composition record
    with the monic normal form that survived reduction.
    """
    witnesses = [(rec, wit) for rec, ok, wit in composition_checks(system)
                 if not ok]
    return (not witnesses), witnesses


def decide_eq(u: RigMonomial, v: RigMonomial, report: CompletionReport):
    """Three-valued word-problem decision against a completion report.

    Returns (verdict, nf_u, nf_v).  Equal normal forms certify the
    congruence whatever the status; differing ones refute it only when
    the basis is Complete.  A Complete basis is confluent, so the normal
    forms are computed part by part (split_normal_form, one memo shared
    by u and v for this call); a Truncated one keeps the direct path,
    whose result depends on the rewrite strategy.
    """
    if report.status == STATUS_COMPLETE:
        memo = {}
        nu = split_normal_form(u, report.basis, memo)
        nv = split_normal_form(v, report.basis, memo)
        return (EQUAL if nu == nv else DISTINCT), nu, nv
    nu = normal_form_monomial(u, report.basis)
    nv = normal_form_monomial(v, report.basis)
    return (EQUAL if nu == nv else UNKNOWN), nu, nv


def system_from_pairs(pairs, commutative, alphabet,
                      order: RigOrder = None) -> System:
    """Orient raw pairs into a system without completing."""
    if order is None:
        order = order_for(default_keyword(commutative), commutative)
    rels = [orient_pair(m, n, order) for m, n in pairs]
    return System(commutative, alphabet, order, tuple(rels))
