"""rigbasis benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the library from `src/`.
Workloads: presets, normal-forms, saturate, closure (see workloads.py).

The seed generates every input before timing starts.  The timed window
runs whole rounds over the workload's ops, one op after another, until
at least `--seconds` have passed.  Outputs are checked after the window.
Times are reported at the reference speed: a fixed pure-Python kernel
runs after every op and every set-up, and each time is scaled by the
kernel's nominal time over its measured time nearby (see README.md).
With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics; with `--trace 1` untraced and traced rounds
alternate after a warm-up round and it carries the per-layer metrics of one round, plus the
tracing overhead.  Spans of a traced run are written to
`.perfbench-out/spans-<workload>.csv`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("terms", "ordering", "rewrite", "composition", "completion",
           "frontend", "oracle", "presets", "cli")
# set-up repeats: at least this many, and until this much time is spent,
# so that the median spans more than one short slow phase of the machine
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10
# the reference kernel: REF_LOOPS iterations take REF_S at the reference
# speed; it is timed SETUP_REFS times after each set-up and once after
# each op
REF_LOOPS = 30_000
REF_S = 0.0025
SETUP_REFS = 5

clock = time.perf_counter


def reference_time():
    """Wall time of a fixed kernel that calls no library code and keeps
    no objects, so it tracks only the machine's speed at the moment."""
    t0 = clock()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return clock() - t0


def import_rigbasis():
    """A fresh import of the library, so each set-up pays for it."""
    for name in [n for n in sys.modules
                 if n == "rigbasis" or n.startswith("rigbasis.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"rigbasis.{m}") for m in MODULES})


class Loop:
    """The closed loop: one client runs the ops one after another.

    Keeps each op's (index, time, round), the reference kernel's
    (round, time) after each op, each op's first (result, error), and the
    ops whose later outputs differed from their first."""

    def __init__(self, ops):
        self.ops = ops
        self.keys = [op.key or (lambda r: r) for op in ops]
        self.samples, self.first, self.differ = [], {}, set()
        self.refs, self.rounds = [], 0

    def run(self, seconds, calls=None):
        """Whole rounds until seconds have passed (at least one); returns
        the window's wall time.  Comparing an output with the op's first
        one and timing the reference kernel are not timed: their time is
        taken out of the window."""
        calls = calls or [op.call for op in self.ops]
        first, untimed = self.first, 0.0
        start = clock()
        while True:
            r = self.rounds
            self.rounds += 1
            for i, call in enumerate(calls):
                t0 = clock()
                try:
                    result, error = call(), None
                except Exception as e:  # a failing op is a measured outcome
                    result, error = None, f"{type(e).__name__}: {e}"
                t1 = clock()
                self.samples.append((i, t1 - t0, r))
                key = self.keys[i](result) if error is None else error
                if i not in first:
                    first[i] = (result, error, key)
                elif key != first[i][2]:
                    self.differ.add(i)
                self.refs.append((r, reference_time()))
                untimed += clock() - t1
            if clock() - start - untimed >= seconds:
                return clock() - start - untimed

    def corrected(self):
        """Each op's time at the reference speed: scaled by REF_S over the
        median reference time of its round."""
        per_round = {}
        for r, t in self.refs:
            per_round.setdefault(r, []).append(t)
        factor = {r: REF_S / statistics.median(v)
                  for r, v in per_round.items()}
        return [dt * factor[r] for _, dt, r in self.samples]


def check_outcomes(loop, budget_s):
    """(failed, wrong, messages).  The first output of each op is checked
    against its reference; later rounds must repeat it exactly."""
    ops, verdict = loop.ops, {}
    for i, (result, error, _) in loop.first.items():
        if error is not None:
            verdict[i] = error
            continue
        try:
            verdict[i] = ops[i].check(result)
        except Exception as e:  # a malformed output fails its check
            verdict[i] = f"check raised {type(e).__name__}: {e}"
        if verdict[i] is None and i in loop.differ:
            verdict[i] = "a later output differs from the op's first output"
    failed = wrong = 0
    messages = []
    for i, dt, _ in loop.samples:
        bad = verdict[i]
        if bad is not None:
            wrong += 1
        elif dt > budget_s:
            bad = f"took {dt:.2f} s, over the {budget_s:.0f} s budget"
        if bad is not None:
            failed += 1
            if len(messages) < 10:
                messages.append(f"{ops[i].label}: {bad}")
    return failed, wrong, messages


def slowest(loop, count=4):
    """Labels of the slowest ops by median time, for the report."""
    per_op = {}
    for i, dt, _ in loop.samples:
        per_op.setdefault(i, []).append(dt)
    top = sorted(per_op, key=lambda i: -statistics.median(per_op[i]))[:count]
    return ", ".join(f"{loop.ops[i].label} {1000 * statistics.median(per_op[i]):.0f}"
                     f" ms x{len(per_op[i])}" for i in top)


def tail(samples):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples beyond it (the maximum when there are fewer)."""
    s = sorted(samples)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return s[k], 100.0 * (k + 1) / n


def emit(metrics, ok, attempted, failed, lines):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "rigbasis")):
        print(f"error: no rigbasis package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 64

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        # set-up, repeated; the first one is timed from process start
        setups, setup_refs = [], []
        t0 = T_START
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            rb = import_rigbasis()
            wl = WORKLOADS[args.workload](rb, args.seed, workdir)
            setups.append(clock() - t0)
            setup_refs += [reference_time() for _ in range(SETUP_REFS)]
            t0 = clock()
        if args.trace:
            return traced(args, rb, wl)
        loop = Loop(wl.ops)
        window = loop.run(args.seconds)
        failed, wrong, messages = check_outcomes(loop, wl.budget_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = loop.corrected()
    raw = [dt for _, dt, _ in loop.samples]
    n = len(times)
    tail_s, pct = tail(times)
    setup_ref = statistics.median(setup_refs)
    ref = statistics.median(t for _, t in loop.refs)
    metrics = {
        "setup_s": (statistics.median(setups) * REF_S / setup_ref, "s"),
        "op_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "op_ms_tail": (1000.0 * tail_s, "ms"),
        "ops_per_s": (n / sum(times), "1/s"),
        "ok_share": (1.0 - failed / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    emit(metrics, wrong == 0, n, failed, [
        f"workload {args.workload}, seed {args.seed}: {n // len(wl.ops)} "
        f"rounds of {len(wl.ops)} ops, {n} samples in {window:.2f} s",
        f"  inputs: {wl.sizes}",
        f"  slowest ops: {slowest(loop)}",
        f"  setup_s is the median of {len(setups)} set-ups; op_ms_tail is "
        f"p{pct:.1f} ({TAIL_BEYOND} of {n} samples beyond it)",
        f"  fail_share {failed / n:.4f} ({failed} of {n} ops failed)",
        f"  reference kernel {1000 * ref:.3f} ms in the window and "
        f"{1000 * setup_ref:.3f} ms in set-up (nominal {1000 * REF_S} ms); "
        f"uncorrected: setup_s {statistics.median(setups):.4f}, op_ms_p50 "
        f"{1000 * statistics.median(raw):.2f}, op_ms_tail "
        f"{1000 * tail(raw)[0]:.1f}, ops_per_s {n / window:.3f}",
    ] + [f"  FAIL {m}" for m in messages])
    return 0


def traced(args, rb, wl):
    """After a warm-up round, alternate an untraced and a traced round
    until --seconds have passed; report one round's per-layer metrics."""
    from tracer import Tracer
    tracer = Tracer(rb)
    loop = Loop(wl.ops)
    roots = [tracer.span(f"op.{args.workload}", op.call) for op in wl.ops]
    per_round = []
    start = clock()
    # the first round of a process is slower (up to a sixth on
    # saturate), so it would bias the tracing overhead
    loop.run(0)
    while True:
        loop.run(0)
        tracer.install()
        tracer.reset()
        try:
            loop.run(0, roots)
        finally:
            tracer.uninstall()
        per_round.append(tracer.layer_metrics())
        if clock() - start >= args.seconds:
            break
    failed, wrong, messages = check_outcomes(loop, wl.budget_s)
    # counts from the first traced round, times as medians over rounds
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "count":
            repeats = {r[name][0] for r in per_round}
            if len(repeats) > 1:
                messages.append(f"count {name} differs between rounds: "
                                f"{sorted(repeats)}")
                wrong += 1
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(r[name][0] for r in per_round),
                             unit)
    # after the warm-up, rounds alternate untraced and traced; their
    # times at the reference speed
    round_s = [0.0] * loop.rounds
    for (_, _, r), dt in zip(loop.samples, loop.corrected()):
        round_s[r] += dt
    u, t = statistics.median(round_s[1::2]), statistics.median(round_s[2::2])
    metrics["trace.round_ms"] = (1000.0 * u, "ms")
    metrics["trace.overhead_ms"] = (1000.0 * (t - u), "ms")
    outdir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"spans-{args.workload}.csv")
    tracer.write_spans(path)
    emit(metrics, wrong == 0, len(loop.samples), failed, [
        f"workload {args.workload}, seed {args.seed}, traced: a warm-up, "
        f"{len(per_round)} untraced and {len(per_round)} traced rounds of "
        f"{len(wl.ops)} ops; per-layer values are per round",
        f"  {len(tracer.span_start)} spans written to "
        f"{os.path.relpath(path, ROOT)}",
    ] + [f"  FAIL {m}" for m in messages])
    return 0


if __name__ == "__main__":
    sys.exit(main())
