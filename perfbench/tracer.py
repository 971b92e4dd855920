"""Span tracing of the rigbasis layers, installed from outside the library.

The library's modules import each other's functions by name, so a
function is wrapped at every place a caller looks it up (for example
`rigbasis.completion.normal_form` as well as `rigbasis.rewrite.normal_form`).
Each wrapped call records one span: name, start, end and the index of
the enclosing span.  Spans stay in memory; `write_spans` stores them
when the run ends.  Self time is a span's duration minus the durations
of its direct children, accumulated when the span closes.

The term algebra (`terms`) is only counted, not timed: its calls are
too many and too short for a span each.
"""

from __future__ import annotations

import functools
import time
from array import array

# (span name, [(module, attribute), ...]): every lookup site of a layer's
# public functions, as the library's own imports bind them.
SPAN_SITES = [
    ("cli.main", [("cli", "main")]),
    ("frontend.parse", [
        ("frontend", "parse_presentation"), ("frontend", "parse_expr"),
        ("frontend", "parse_expr_raw"), ("cli", "parse_presentation"),
        ("cli", "parse_expr"), ("presets", "parse_expr")]),
    ("frontend.render", [
        ("frontend", n) for n in (
            "render_base", "render_monomial", "render_polynomial",
            "render_relation", "render_presentation", "render_system_file",
            "render_trace")] + [
        ("cli", n) for n in (
            "render_monomial", "render_polynomial", "render_relation",
            "render_presentation", "render_trace")]),
    ("completion.complete", [
        ("completion", "complete"), ("cli", "complete"),
        ("presets", "complete")]),
    ("completion.reduce_system", [("completion", "reduce_system")]),
    ("completion.verify", [("completion", "verify"), ("cli", "verify")]),
    ("composition.compositions", [
        ("composition", "compositions"), ("completion", "compositions"),
        ("cli", "compositions")]),
    ("composition.triviality", [
        ("composition", "triviality"), ("completion", "triviality"),
        ("cli", "triviality")]),
    ("rewrite.normal_form", [
        ("rewrite", "normal_form"), ("completion", "normal_form"),
        ("composition", "normal_form"), ("cli", "normal_form")]),
    ("rewrite.first_occurrence", [("rewrite", "first_occurrence")]),
    ("rewrite.pattern_occurrences", [
        ("rewrite", "pattern_occurrences"),
        ("completion", "pattern_occurrences"),
        ("oracle", "pattern_occurrences")]),
    ("oracle.search", [("oracle", "_search")]),
]

# count-only wrappers for functions whose results feed a counter
COUNT_SITES = [
    ("oracle.closure_eq", [
        ("oracle", "closure_eq"), ("cli", "closure_eq"),
        ("presets", "closure_eq")]),
    ("composition.record", [("composition", "_record")]),
]

STAT_KEYS = ("pairs_examined", "records_queued", "truncation_skips",
             "relations_added", "relations_retired")


class Tracer:
    """Installs wrappers on the rigbasis modules in `rb` and records spans."""

    def __init__(self, rb):
        self.rb = rb
        self.names = []
        self.ids = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.saved = []
        self.calls, self.self_s, self.total_s = [], [], []
        self.counts = dict.fromkeys(
            ["records_built", "nf_steps", "max_input_circ_len",
             "first_occurrence_hits", "monomials_built", "skey_items",
             "scaled_calls", "circ_calls", "oracle_nodes",
             "oracle_path_steps"] + list(STAT_KEYS), 0)

    def reset(self):
        """Zero the aggregates (spans are kept: they are written at the end).
        Counters are zeroed in place, because the wrappers hold them."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        for k in self.counts:
            self.counts[k] = 0

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self.ids[name]

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span named name."""
        nid = self._id(name)
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_end[idx] = t1
                stack.pop()
                dur = t1 - t0
                self.self_s[nid] += dur - frame[1]
                self.total_s[nid] += dur
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        rb, c = self.rb, self.counts
        after = {
            "completion.complete": self._after_complete,
            "rewrite.normal_form": self._after_normal_form,
            "rewrite.first_occurrence": self._after_first_occurrence,
            "oracle.search": self._after_search,
        }
        for name, sites in SPAN_SITES:
            for mod, attr in sites:
                owner = getattr(rb, mod)
                self._patch(owner, attr,
                            self.span(name, getattr(owner, attr),
                                      after.get(name)))

        def counted(fn, hook):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(result)
                return result
            return wrapper

        def on_closure_eq(result):
            status, path = result
            if path is not None:
                c["oracle_path_steps"] += len(path)

        def on_record(_):
            c["records_built"] += 1

        hooks = {"oracle.closure_eq": on_closure_eq,
                 "composition.record": on_record}
        for name, sites in COUNT_SITES:
            for mod, attr in sites:
                owner = getattr(rb, mod)
                self._patch(owner, attr,
                            counted(getattr(owner, attr), hooks[name]))

        mono = rb.terms.RigMonomial
        init, scaled, circ = mono.__init__, mono.scaled, mono.circ

        def mono_init(self_, runs=()):
            init(self_, runs)
            c["monomials_built"] += 1
            c["skey_items"] += len(self_.skey)

        def mono_scaled(self_, left, right=None):
            c["scaled_calls"] += 1
            return scaled(self_, left, right)

        def mono_circ(self_, other):
            c["circ_calls"] += 1
            return circ(self_, other)

        self._patch(mono, "__init__", mono_init)
        self._patch(mono, "scaled", mono_scaled)
        self._patch(mono, "circ", mono_circ)

    def uninstall(self):
        while self.saved:
            owner, attr, old = self.saved.pop()
            setattr(owner, attr, old)

    def _after_complete(self, report, args):
        for k in STAT_KEYS:
            self.counts[k] += report.stats[k]

    def _after_normal_form(self, result, args):
        _, trace = result
        self.counts["nf_steps"] += len(trace.steps)
        top = max((m.circ_len() for m in args[0].terms), default=0)
        if top > self.counts["max_input_circ_len"]:
            self.counts["max_input_circ_len"] = top

    def _after_first_occurrence(self, result, args):
        if result is not None:
            self.counts["first_occurrence_hits"] += 1

    def _after_search(self, result, args):
        parents, _ = result
        self.counts["oracle_nodes"] += len(parents)

    def layer_metrics(self):
        """The per-layer metrics of the calls recorded since reset()."""
        def calls(name):
            return self.calls[self.ids[name]] if name in self.ids else 0

        def ms(name, table=None):
            table = self.self_s if table is None else table
            return 1000.0 * table[self.ids[name]] if name in self.ids else 0.0

        c = self.counts
        fo_calls = calls("rewrite.first_occurrence")
        search_s = ms("oracle.search", self.total_s) / 1000.0
        out = {
            "composition.compositions.calls": (calls("composition.compositions"), "count"),
            "composition.compositions.self_ms": (ms("composition.compositions"), "ms"),
            "composition.records_built": (c["records_built"], "count"),
            "composition.triviality.calls": (calls("composition.triviality"), "count"),
            "composition.triviality.self_ms": (ms("composition.triviality"), "ms"),
            "completion.complete.calls": (calls("completion.complete"), "count"),
            "completion.complete.self_ms": (ms("completion.complete"), "ms"),
            "completion.complete.total_ms": (ms("completion.complete", self.total_s), "ms"),
            "completion.reduce_system.self_ms": (ms("completion.reduce_system"), "ms"),
            "completion.verify.self_ms": (ms("completion.verify"), "ms"),
            "completion.examined_ratio": (
                c["pairs_examined"] / c["records_queued"]
                if c["records_queued"] else 0.0, "ratio"),
        }
        for k in STAT_KEYS:
            out[f"completion.{k}"] = (c[k], "count")
        out.update({
            "rewrite.normal_form.calls": (calls("rewrite.normal_form"), "count"),
            "rewrite.normal_form.self_ms": (ms("rewrite.normal_form"), "ms"),
            "rewrite.nf_steps": (c["nf_steps"], "count"),
            "rewrite.max_input_circ_len": (c["max_input_circ_len"], "count"),
            "rewrite.first_occurrence.calls": (fo_calls, "count"),
            "rewrite.first_occurrence.self_ms": (ms("rewrite.first_occurrence"), "ms"),
            "rewrite.first_occurrence.hit_ratio": (
                c["first_occurrence_hits"] / fo_calls if fo_calls else 0.0,
                "ratio"),
            "rewrite.pattern_occurrences.calls": (calls("rewrite.pattern_occurrences"), "count"),
            "rewrite.pattern_occurrences.self_ms": (ms("rewrite.pattern_occurrences"), "ms"),
            "terms.monomials_built": (c["monomials_built"], "count"),
            "terms.skey_items": (c["skey_items"], "count"),
            "terms.scaled.calls": (c["scaled_calls"], "count"),
            "terms.circ.calls": (c["circ_calls"], "count"),
            "oracle.search.calls": (calls("oracle.search"), "count"),
            "oracle.search.self_ms": (ms("oracle.search"), "ms"),
            "oracle.nodes": (c["oracle_nodes"], "count"),
            "oracle.nodes_per_s": (
                c["oracle_nodes"] / search_s if search_s else 0.0, "1/s"),
            "oracle.path_steps": (c["oracle_path_steps"], "count"),
            "frontend.parse.self_ms": (ms("frontend.parse"), "ms"),
            "frontend.render.self_ms": (ms("frontend.render"), "ms"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_ms": (ms("cli.main"), "ms"),
        })
        return out

    def write_spans(self, path):
        """One line per span, in the order the spans opened: name, start and
        end in microseconds from the first span, and the parent's 0-based
        position in that order (-1 for a root span)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{names[self.span_name[i]]},"
                         f"{(self.span_start[i] - t0) * 1e6:.1f},"
                         f"{(self.span_end[i] - t0) * 1e6:.1f},"
                         f"{self.span_parent[i]}\n")
