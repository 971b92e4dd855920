"""The four benchmark workloads: seeded inputs, the ops of one round, and
the output checks.

Each `build_*` function does the whole set-up of its workload (input
generation, parsing, rendering files, completing the bases the ops
need) and returns a `Workload`.  An op's `call` is the timed part; its `check`
runs after the timed window and compares the output with a reference
the code under test did not compute: closed forms, the presets'
normal-form families, integer-polynomial arithmetic, or the closure
oracle's replayed witness paths.

The library is reached through module attributes at call time
(`rb.completion.complete`, never a bound name), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass

PERIOD = {"fiore-leinster": 4, "blass": 6}


@dataclass
class Op:
    label: str
    call: object          # () -> result, the timed part
    check: object         # result -> None when correct, else a message
    key: object = None    # result -> a value that repeats exactly when the
                          # output does (default: the result itself)


@dataclass
class Workload:
    ops: list
    budget_s: float       # an op slower than this counts as failed
    sizes: str            # the input sizes, for the report


# ---------------------------------------------------------------- references

def powers_congruent(a, b, period):
    """Closed form of x^a = x^b for the one-generator presets."""
    return a == b or (a >= 1 and b >= 1 and (a - b) % period == 0)


def render_base(b, names):
    """Rendering of a base monomial in the CLI's format, written
    independently of `rigbasis.frontend`."""
    if hasattr(b, "exps"):
        parts = [names[r] if e == 1 else f"{names[r]}^{e}"
                 for r, e in enumerate(b.exps) if e]
    else:
        parts = []
        for r, grp in itertools.groupby(b.letters):
            n = len(list(grp))
            parts.append(names[r] if n == 1 else f"{names[r]}^{n}")
    return " ".join(parts) or "1"


def render_mono(m, names):
    comps = [render_base(b, names) for b, k in m.runs for _ in range(k)]
    return " + ".join(comps) or "0"


def pair_set(pairs, names):
    return {frozenset((render_mono(l, names), render_mono(r, names)))
            for l, r in pairs}


def parse_one_var(rb, text):
    """'1 + x + x^4' -> the one-generator rig monomial it names."""
    hist = {}
    if text != "0":
        for comp in text.split(" + "):
            d = 0 if comp == "1" else 1 if comp == "x" else int(comp[2:])
            hist[d] = hist.get(d, 0) + 1
    return rb.terms.RigMonomial(tuple(
        (rb.terms.CommMonomial((d,)), k) for d, k in sorted(hist.items())))


WORDS = [(), ("x",), ("y",), ("x", "y"), ("y", "x"), ("x", "x"), ("y", "y")]


def rand_intpoly(rng, lengths):
    """An integer polynomial in x, y with one term of coefficient +-1 per
    entry of lengths, a random word of that length; a word drawn twice
    keeps its first sign, so the |coefficients| sum to len(lengths)."""
    p = {}
    for n in lengths:
        w = tuple(rng.choice("xy") for _ in range(n))
        p[w] = p.get(w, 0) + (p[w] // abs(p[w]) if w in p
                              else rng.choice((-1, 1)))
    return p


def cli_call(rb, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = rb.cli.main(argv)
        return rc, out.getvalue()
    return call


def expect(cond, message):
    return None if cond else message


def oracle_certifies(rb, rels, commutative, alphabet, bounds):
    """A check: u ~ v must be Congruent with a witness path that replays."""
    def certify(u, v):
        status, path = rb.oracle.closure_eq(u, v, rels, commutative,
                                            alphabet, bounds)
        if status != rb.oracle.CONGRUENT:
            return "closure oracle finds no witness"
        if rb.oracle.replay_path(u, path, rels) != v:
            return "witness path does not replay"
        return None
    return certify


# ------------------------------------------------------------------ presets

def build_presets(rb, seed, workdir):
    """CLI commands, in process, over files rendered from the presets."""
    rng = random.Random(seed)
    pr = rb.presets
    files = {}
    for name in pr.preset_names():
        pre = pr.preset(name)
        files[name] = os.path.join(workdir, f"{name}.txt")
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(rb.frontend.render_presentation(pre.presentation))
        if pre.basis_pairs is not None:
            files[name + ".basis"] = os.path.join(workdir, f"{name}.basis.txt")
            with open(files[name + ".basis"], "w", encoding="utf-8") as fh:
                fh.write(rb.frontend.render_system_file(pre.basis_system()))

    ops = []

    def json_check(want, status):
        def check(result):
            rc, out = result
            doc = json.loads(out)
            got = {frozenset((r["lhs"], r["rhs"])) for r in doc["basis"]}
            return (expect(rc == 0, f"exit code {rc}")
                    or expect(doc["status"] == status, doc["status"])
                    or expect(got == want, "basis differs from the claimed one"))
        return check

    for name in ("fiore-leinster", "blass", "znc", "nat"):
        pre = pr.preset(name)
        want = pair_set(pre.basis_pairs, pre.presentation.alphabet.names)
        ops.append(Op(f"verify {name}",
                      cli_call(rb, ["verify", files[name + ".basis"], "--json"]),
                      json_check(want, "verified")))
        ops.append(Op(f"complete {name}",
                      cli_call(rb, ["complete", files[name], "--json"]),
                      json_check(want, "Complete")))

    for name, period in PERIOD.items():
        family = pr.preset(name).family
        a = rng.randint(1, 14 - period)
        pairs = [(a, a + period)] + [(rng.randint(1, 14), rng.randint(1, 14))
                                     for _ in range(2)]
        for a, b in pairs:
            def check(result, a=a, b=b, family=family, period=period):
                rc, out = result
                equal = powers_congruent(a, b, period)
                head, _, nfs = out.strip().partition(", nf = ")
                forms = [parse_one_var(rb, t) for t in nfs.split(" != ")]
                return (expect(head == ("EQUAL" if equal else "DISTINCT")
                               and rc == (0 if equal else 1),
                               f"x^{a} vs x^{b}: {out.strip()}")
                        or expect(all(family(m) for m in forms),
                                  "normal form outside the family"))
            ops.append(Op(f"eq {name} x^{a} x^{b}",
                          cli_call(rb, ["eq", files[name], f"x^{a}", f"x^{b}"]),
                          check))

    znc_names = pr.preset("znc").presentation.alphabet.names
    img = lambda p: render_mono(pr.sign_encode(p), znc_names)
    p, q = rand_intpoly(rng, (0, 1, 2)), rand_intpoly(rng, (1, 1, 2))
    prod = pr.intpoly_mul(p, q)
    other = pr.intpoly_add(prod, {rng.choice(WORDS): 1})
    for right, equal in ((prod, True), (other, False)):
        def check(result, equal=equal):
            rc, out = result
            return expect(out.startswith("EQUAL" if equal else "DISTINCT")
                          and rc == (0 if equal else 1), out.strip())
        ops.append(Op(f"eq znc product {'equal' if equal else 'distinct'}",
                      cli_call(rb, ["eq", files["znc"],
                                    f"({img(p)})({img(q)})", img(right)]),
                      check))

    # x^7 ~ x searched from both ends: the slowest ops, two per round
    for a, b in ((7, 1), (1, 7)):
        ops.append(Op(f"oracle-eq blass x^{a} x^{b}",
                      cli_call(rb, ["oracle-eq", files["blass"], f"x^{a}",
                                    f"x^{b}"]),
                      lambda r: expect(r[0] == 0
                                       and r[1].startswith("CONGRUENT"),
                                       r[1].strip())))

    for name in PERIOD:
        k = rng.randint(5, 9)
        pre = pr.preset(name)
        p_ = pre.presentation
        certify = oracle_certifies(rb, p_.relations, True, p_.alphabet,
                                   rb.oracle.ClosureBounds(10, 7))
        start = rb.frontend.parse_expr(f"x^{k}", p_)

        def check(result, family=pre.family, certify=certify, start=start):
            rc, out = result
            lines = out.splitlines()
            if rc != 0 or not lines or not lines[-1].startswith("nf = ("):
                return f"unexpected output {out[-80:]!r}"
            nf = parse_one_var(rb, lines[-1][len("nf = ("):-1])
            return (expect(len(lines) > 1, "empty trace")
                    or expect(family(nf), "normal form outside the family")
                    or certify(start, nf))
        ops.append(Op(f"nf --trace {name} x^{k}",
                      cli_call(rb, ["nf", files[name + ".basis"], f"x^{k}",
                                    "--trace"]), check))

    for d in range(8, 13):
        want = "".join(
            [f"status: Truncated\nrelations: {d}\n"]
            + [f"1 + {'x' if k == 1 else f'x^{k}'} = "
               f"{'x' if k == 1 else f'x^{k}'}\n" for k in range(1, d + 1)])
        ops.append(Op(f"complete chain --max-deg {d}",
                      cli_call(rb, ["complete", files["chain"], "--max-deg",
                                    str(d)]),
                      lambda r, want=want: expect(r == (2, want),
                                                  "chain basis differs")))
    rng.shuffle(ops)
    return Workload(ops, 5.0, "4 verify + 4 complete on presets, 8 eq, "
                    "2 oracle-eq, 2 nf --trace (x^5..x^9), "
                    "5 chain complete (--max-deg 8..12)")


# ------------------------------------------------------------- normal-forms

def build_normal_forms(rb, seed, workdir):
    """decide_eq / normal_form against bases completed during set-up."""
    rng = random.Random(seed)
    pr, comp = rb.presets, rb.completion
    reports = {}
    for name in ("fiore-leinster", "blass", "znc"):
        p = pr.preset(name).presentation
        reports[name] = comp.complete(p.relations, p.commutative, p.alphabet,
                                      order=p.order())
    ops = []

    # the median op is a tall fiore-leinster one (1 to 4 ms): each x^k
    # meets every x^j, j <= 4, so those ops are more than half of the
    # round whatever the seed, and the median falls well inside them
    # instead of in the gap above them; blass's tall ops (8 to 400 ms)
    # meet the congruent x^j and a random one
    partners = {"fiore-leinster": lambda k, period: range(1, period + 1),
                "blass": lambda k, period: (k % period or period,
                                            rng.randint(1, period))}
    for name, period in PERIOD.items():
        family = pr.preset(name).family
        p = pr.preset(name).presentation
        rep = reports[name]
        for k, j in ((k, j) for k in range(14, 27)
                     for j in partners[name](k, period)):
            u, v = (rb.frontend.parse_expr(f"x^{e}", p) for e in (k, j))

            def check(result, k=k, j=j, family=family, period=period):
                verdict, nu, nv = result
                want = comp.EQUAL if powers_congruent(k, j, period) \
                    else comp.DISTINCT
                return (expect(verdict == want, f"x^{k} vs x^{j}: {verdict}")
                        or expect(family(nu) and family(nv),
                                  "normal form outside the family"))
            ops.append(Op(f"{name} x^{k} vs x^{j}",
                          lambda u=u, v=v, rep=rep: comp.decide_eq(u, v, rep),
                          check))

    # the slowest op, fiore-leinster (1+x)^11, runs twice a round, so
    # its samples fill op_ms_tail's top eleven whether a run holds six
    # rounds or ten; once a round, a fast run (eleven rounds) would move
    # the tail onto the next shape, a third cheaper
    wide = {"fiore-leinster": (6, 7, 8, 9, 10, 11, 11), "blass": range(6, 10)}
    for name, ks in wide.items():
        family = pr.preset(name).family
        p = pr.preset(name).presentation
        basis = reports[name].basis
        for k in ks:
            f = rb.terms.Polynomial.monomial(
                rb.frontend.parse_expr(f"(1 + x)^{k}", p))

            def call(f=f, basis=basis):
                nf, trace = rb.rewrite.normal_form(f, basis)
                return nf, len(trace.steps)

            def check(result, family=family):
                nf, _ = result
                if len(nf.terms) != 1:
                    return "normal form is not a single monomial"
                (m, c), = nf.terms.items()
                return (expect(c == 1, "coefficient changed")
                        or expect(family(m), "normal form outside the family"))
            ops.append(Op(f"{name} (1+x)^{k}", call, check))

    znc = reports["znc"]
    alphabet = pr.preset("znc").presentation.alphabet
    enc = lambda poly: pr.sign_encode(poly, alphabet)
    cases = []
    # the cost of a seeded product swings with its cancellations, so the
    # seeded ones stay small (in the cheap half of the round whatever
    # the seed)
    shapes = {2: (0, 1), 3: (0, 1, 2)}
    for wp, wq in ((2, 2), (2, 3), (3, 3)):
        p, q = rand_intpoly(rng, shapes[wp]), rand_intpoly(rng, shapes[wq])
        cases.append((f"{wp}x{wq} product", enc(p).times(enc(q)),
                      enc(pr.intpoly_mul(p, q)), True))
        cases.append((f"{wp}+{wq} sum", enc(p).circ(enc(q)),
                      enc(pr.intpoly_add(p, q)), True))
        if wq >= 3:
            bumped = pr.intpoly_add(pr.intpoly_mul(p, q),
                                    {rng.choice(WORDS): rng.choice((-1, 1))})
            cases.append((f"{wp}x{wq} product vs a neighbour",
                          enc(p).times(enc(q)), enc(bumped), False))
    # fixed powers: the larger znc shapes, 5 to 170 ms each
    fixed = [("x + y' + e' + x y",
              {("x",): 1, ("y",): -1, (): -1, ("x", "y"): 1}, (2, 3)),
             ("x y + y' x + e'", {("x", "y"): 1, ("y", "x"): -1, (): -1}, (3,)),
             ("x + y + x y'", {("x",): 1, ("y",): 1, ("x", "y"): -1}, (3,)),
             ("y' + x x + e'", {("y",): -1, ("x", "x"): 1, (): -1}, (3,)),
             ("x' + y x + 1", {("x",): -1, ("y", "x"): 1, (): 1}, (3,))]
    for text, poly, exps in fixed:
        for e in exps:
            power = poly
            for _ in range(e - 1):
                power = pr.intpoly_mul(power, poly)
            cases.append((f"({text})^{e}", rb.frontend.parse_expr(
                f"({text})^{e}", pr.preset("znc").presentation),
                enc(power), True))
    for label, u, v, equal in cases:
        def check(result, equal=equal):
            verdict, nu, nv = result
            want = comp.EQUAL if equal else comp.DISTINCT
            return (expect(verdict == want, f"{verdict}, expected {want}")
                    or expect(pr.znc_family(nu, alphabet)
                              and pr.znc_family(nv, alphabet),
                              "normal form outside the znc family"))
        ops.append(Op(f"znc {label}",
                      lambda u=u, v=v: comp.decide_eq(u, v, znc), check))
    rng.shuffle(ops)
    return Workload(ops, 10.0, "tall x^14..x^26 on fiore-leinster, each against "
                    "every x^j, j <= 4, and on blass, each against its "
                    "congruent x^j and a random x^j, j <= 6; "
                    "wide (1+x)^6..11 on fiore-leinster (circ_len up to "
                    "2048; ^11 twice), (1+x)^6..9 on blass; znc images of seeded products "
                    "and sums (circ_len up to 9), of (x + y' + e' + x y)^2 and ^3 "
                    "(16 and 64 components) and of four fixed cubes")


# ----------------------------------------------------------------- saturate

def build_saturate(rb, seed, workdir):
    """complete with explicit limits on presentations with no finite basis."""
    rng = random.Random(seed)
    comp, oracle = rb.completion, rb.oracle

    def presentation(mode, eq):
        lhs, rhs = eq.split(" = ")
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        return rb.frontend.parse_presentation(
            f"mode: {mode}\nvars: x y\nrel: {lhs} = {rhs}\n")

    comm = presentation("commutative", "x + y = 1 + x")
    nc = presentation("noncommutative", "1 + y^2 = x y")
    chain = rb.presets.preset("chain").presentation
    certified = {}

    def basis_key(report):
        return (report.status, tuple(r.pair() for r in
                                     report.basis.active_relations()),
                tuple(sorted(report.stats.items())))

    def certify_all(p, bounds):
        certify = oracle_certifies(rb, p.relations, p.commutative,
                                   p.alphabet, bounds)

        def check(report):
            if report.status != comp.STATUS_TRUNCATED:
                return f"status {report.status} on a presentation with no " \
                       f"finite basis"
            for rel in report.basis.active_relations():
                key = (id(p), rel.lhs, rel.rhs)
                if key not in certified:
                    certified[key] = certify(rel.lhs, rel.rhs)
                if certified[key]:
                    return f"relation not certified: {certified[key]}"
            return None
        return check

    ops = []
    for steps in (100, 150, 200, 250, 275, 300):
        ops.append(Op(f"x + y = 1 + x, degree 6, {steps} steps",
                      lambda s=steps: comp.complete(
                          comm.relations, True, comm.alphabet,
                          order=comm.order(),
                          limits=comp.CompletionLimits(6, s)),
                      certify_all(comm, oracle.ClosureBounds(6, 6)),
                      basis_key))
    for steps in (100, 200_000):
        ops.append(Op(f"1 + y^2 = x y, degree 4, {steps} steps",
                      lambda s=steps: comp.complete(
                          nc.relations, False, nc.alphabet, order=nc.order(),
                          limits=comp.CompletionLimits(4, s)),
                      certify_all(nc, oracle.ClosureBounds(6, 7)), basis_key))
    names = chain.alphabet.names
    for d in range(8, 13):
        want = [f"1 + {render_base(b, names)} = {render_base(b, names)}"
                for b in (rb.terms.CommMonomial((k,)) for k in range(1, d + 1))]

        def check(report, want=want):
            got = [f"{render_mono(r.lhs, names)} = {render_mono(r.rhs, names)}"
                   for r in report.basis.active_relations()]
            return (expect(report.status == comp.STATUS_TRUNCATED,
                           report.status)
                    or expect(got == want, "chain basis differs"))
        ops.append(Op(f"chain, degree {d}",
                      lambda d=d: comp.complete(
                          chain.relations, True, chain.alphabet,
                          order=chain.order(),
                          limits=comp.CompletionLimits(d)), check, basis_key))
    rng.shuffle(ops)
    return Workload(ops, 20.0, "x + y = 1 + x at degree 6 with 100/150/200/250/275/"
                    "300 steps; 1 + y^2 = x y (noncommutative) at degree 4 with 100 "
                    "and 200,000 steps; "
                    "chain at degree 8..12")


# ------------------------------------------------------------------ closure

THETA_TEXT = "mode: commutative\nvars: x y\nrel: x + y = 0\n"


def build_closure(rb, seed, workdir):
    """closure_class / closure_eq, the bounded breadth-first oracle."""
    rng = random.Random(seed)
    pr, oracle = rb.presets, rb.oracle
    B = oracle.ClosureBounds
    pres = {name: pr.preset(name).presentation
            for name in ("fiore-leinster", "blass", "znc")}
    pres["theta"] = rb.frontend.parse_presentation(THETA_TEXT)
    reports = {}

    # class inputs: (presentation, representatives of one class, bounds,
    # how many per round); representatives of one class give one node set
    classes = [("znc", ["x y", "x' y'"], B(3, 3), 1),
               ("blass", ["x^2", "x^8"], B(10, 7), 4),
               ("fiore-leinster", ["x^2", "x^6"], B(10, 7), 4),
               ("theta", ["x y", "x y + x + y"], B(4, 6), 1)]
    ops = []
    for name, reps, bounds, count in classes:
        p = pres[name]
        for text in rng.choices(reps, k=count):
            u = rb.frontend.parse_expr(text, p)
            ops.append(Op(f"class {name} {text}",
                          lambda u=u, p=p, b=bounds: oracle.closure_class(
                              u, p.relations, p.commutative, p.alphabet, b),
                          class_check(rb, pres[name], u, reports)))

    for name, period in PERIOD.items():
        p = pres[name]
        congruent = [(a, a + period) for a in range(1, 9 - period)]
        distinct = [(a, b) for a in range(1, 9) for b in range(1, a)
                    if not powers_congruent(a, b, period)]
        for a, b in (rng.choice(congruent), rng.choice(distinct)):
            ops.append(eq_op(rb, name, p, f"x^{a}", f"x^{b}", B(9, 6),
                             powers_congruent(a, b, period)))
    ops.append(eq_op(rb, "theta", pres["theta"], "x",
                     rng.choice(["x + x + y", "x + x y + y^2"]), B(4, 6),
                     True))
    rng.shuffle(ops)
    return Workload(ops, 30.0, "classes: znc x y at (3, 3), 4 of blass x^2 and "
                    "4 of fiore-leinster x^2 at (10, 7), x + y = 0 at (4, 6); "
                    "closure_eq on powers up to x^8 at (9, 6)")


def class_check(rb, p, u, reports):
    """Every member of a class shares one normal form under the completed
    basis (completed after the window, once per presentation)."""
    def check(members):
        if id(p) not in reports:
            reports[id(p)] = rb.completion.complete(
                p.relations, p.commutative, p.alphabet, order=p.order())
        report = reports[id(p)]
        if report.status != rb.completion.STATUS_COMPLETE:
            return "reference basis did not complete"
        cache = reports.setdefault(("nf", id(p)), {})
        nfs = set()
        for m in members:
            if m not in cache:
                cache[m] = rb.rewrite.normal_form_monomial(m, report.basis)
            nfs.add(cache[m])
        return (expect(u in members, "class misses its own start")
                or expect(len(nfs) == 1,
                          f"class members have {len(nfs)} normal forms"))
    return check


def eq_op(rb, name, p, left, right, bounds, congruent):
    oracle = rb.oracle
    u, v = (rb.frontend.parse_expr(t, p) for t in (left, right))

    def check(result):
        status, path = result
        if not congruent:
            return expect(status == oracle.NOT_FOUND,
                          f"{left} ~ {right} claimed for distinct powers")
        if status != oracle.CONGRUENT:
            return f"{left} ~ {right} not found within bounds"
        return expect(oracle.replay_path(u, path, p.relations) == v,
                      "witness path does not replay")
    return Op(f"eq {name} {left} ~ {right}",
              lambda: oracle.closure_eq(u, v, p.relations, p.commutative,
                                        p.alphabet, bounds), check)


WORKLOADS = {
    "presets": build_presets,
    "normal-forms": build_normal_forms,
    "saturate": build_saturate,
    "closure": build_closure,
}
