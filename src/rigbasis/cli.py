"""Command-line entry point.

Exit codes: 0 success / Equal / verified; 1 Distinct / not a basis /
failed demo; 2 Unknown / Truncated / not found within bounds; 64 usage
errors; 65 unreadable or malformed input.  Output is deterministic:
same inputs, same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .terms import Polynomial
from .rewrite import normal_form
# unused here, but perfbench/tracer.py wraps them at this lookup site by name
from .composition import compositions, triviality  # noqa: F401
from .completion import (CompletionLimits, CompletionReport, DISTINCT, EQUAL,
                         STATUS_COMPLETE, STATUS_TRUNCATED, UNKNOWN,
                         complete, composition_checks, decide_eq, verify)
from .frontend import (PresentationError, parse_expr, parse_presentation,
                       render_monomial, render_polynomial, render_relation,
                       render_presentation, render_trace)
from .oracle import CONGRUENT, ClosureBounds, closure_eq, replay_path
from .presets import (blass_family_truncation, blass_even_map, znc_shape,
                      nat_congruence_generator, noetherian_chain_demo,
                      preset, preset_names, sign_encode_check, transport_check)
from .rewrite import enum_irr

EX_OK = 0
EX_DISTINCT = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65


class CliError(Exception):
    """Bad input data; maps to exit code 65."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        return parse_presentation(text)
    except PresentationError as e:
        raise CliError(f"{path}: {e}") from None


def _expr(text, p):
    try:
        return parse_expr(text, p)
    except (PresentationError, KeyError, ValueError) as e:
        raise CliError(f"bad expression {text!r}: {e}") from None


def _json(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def _json_report(status, system, stats):
    a = system.alphabet
    basis = [{"lhs": render_monomial(r.lhs, a),
              "rhs": render_monomial(r.rhs, a)}
             for r in system.active_relations()]
    return _json({"status": status, "basis": basis, "stats": stats})


def _print_basis(system):
    a = system.alphabet
    for rel in system.active_relations():
        print(render_relation(rel, a))


def cmd_complete(args):
    p = _load(args.file)
    defaults = CompletionLimits()
    limits = CompletionLimits(
        args.max_deg if args.max_deg is not None
        else defaults.max_ambiguity_degree,
        args.max_steps if args.max_steps is not None
        else defaults.max_steps)
    report = complete(p.relations, p.commutative, p.alphabet,
                      order=p.order(), limits=limits)
    if args.json:
        print(_json_report(report.status, report.basis, report.stats))
    else:
        print(f"status: {report.status}")
        print(f"relations: {len(report.basis.active_ids)}")
        _print_basis(report.basis)
    return EX_OK if report.status == STATUS_COMPLETE else EX_UNKNOWN


def cmd_verify(args):
    p = _load(args.file)
    system = p.system()
    a = system.alphabet
    total = 0
    witnesses = []
    for rec, ok, wit in composition_checks(system):
        total += 1
        if args.list_ambiguities:
            print(f"(#{rec.f_id}, #{rec.g_id}) {rec.kind} "
                  f"w = {render_monomial(rec.ambiguity, a)} "
                  f"spoly = {render_polynomial(rec.spoly, a)}")
        if not ok:
            witnesses.append((rec, wit))
    status = "verified" if not witnesses else "not-a-basis"
    if args.json:
        stats = {"compositions": total, "nontrivial": len(witnesses)}
        print(_json_report(status, system, stats))
    elif witnesses:
        print(f"NOT A BASIS: {len(witnesses)} of {total} compositions "
              f"are nontrivial")
        for rec, wit in witnesses:
            print(f"(#{rec.f_id}, #{rec.g_id}) {rec.kind} "
                  f"w = {render_monomial(rec.ambiguity, a)} "
                  f"survives as {render_polynomial(wit, a)}")
    else:
        print(f"VERIFIED: all {total} compositions trivial")
    return EX_OK if not witnesses else EX_DISTINCT


def cmd_nf(args):
    p = _load(args.file)
    system = p.system()
    m = _expr(args.expr, p)
    nf, trace = normal_form(Polynomial.monomial(m), system)
    if args.trace:
        for line in render_trace(trace, system):
            print(line)
    print(f"nf = {render_polynomial(nf, system.alphabet)}")
    return EX_OK


def cmd_eq(args):
    p = _load(args.file)
    report = complete(p.relations, p.commutative, p.alphabet,
                      order=p.order())
    u = _expr(args.left, p)
    v = _expr(args.right, p)
    verdict, nu, nv = decide_eq(u, v, report)
    lhs = render_monomial(nu, p.alphabet)
    rhs = render_monomial(nv, p.alphabet)
    if args.json:
        print(_json({"verdict": verdict, "status": report.status,
                     "nf": [lhs, rhs]}))
    elif verdict == EQUAL:
        print(f"EQUAL, nf = {lhs}")
    elif verdict == DISTINCT:
        print(f"DISTINCT, nf = {lhs} != {rhs}")
    else:
        print(f"UNKNOWN (basis truncated), nf = {lhs} ?= {rhs}")
    if verdict == EQUAL:
        return EX_OK
    return EX_DISTINCT if verdict == DISTINCT else EX_UNKNOWN


def cmd_irr(args):
    p = _load(args.file)
    system = p.system()
    for m in enum_irr(system, args.max_deg, args.max_len):
        print(render_monomial(m, system.alphabet))
    return EX_OK


def cmd_reduce_basis(args):
    from .completion import reduce_system
    p = _load(args.file)
    _print_basis(reduce_system(p.system()))
    return EX_OK


def cmd_oracle_eq(args):
    p = _load(args.file)
    u = _expr(args.left, p)
    v = _expr(args.right, p)
    defaults = ClosureBounds()
    bounds = ClosureBounds(
        args.max_deg if args.max_deg is not None else defaults.max_degree,
        args.max_len if args.max_len is not None else defaults.max_circ_len,
        args.max_expansions if args.max_expansions is not None
        else defaults.max_expansions)
    status, path = closure_eq(u, v, p.relations, p.commutative, p.alphabet,
                              bounds)
    if status == CONGRUENT:
        if replay_path(u, path, p.relations) != v:
            raise AssertionError("witness path failed to replay")
        print(f"CONGRUENT (witness path, {len(path)} steps)")
        return EX_OK
    print("NOT FOUND within bounds (not a disequality proof)")
    return EX_UNKNOWN


def cmd_preset(args):
    try:
        pre = preset(args.name)
    except KeyError:
        raise CliError(f"unknown preset {args.name!r}; "
                       f"choose from: {', '.join(preset_names())}") from None
    if args.basis:
        if pre.basis_pairs is None:
            raise CliError(f"preset {args.name!r} states no finite basis")
        from .frontend import render_system_file
        print(render_system_file(pre.basis_system()), end="")
    else:
        print(render_presentation(pre.presentation), end="")
    return EX_OK


# demo scenarios: each returns a list of (label, passed) checks

def _demo_comm(name, eq_cases, distinct_cases, irr_bounds):
    pre = preset(name)
    p = pre.presentation
    checks = []
    ok, _ = verify(pre.basis_system())
    checks.append(("claimed basis verifies", ok))
    report = complete(p.relations, p.commutative, p.alphabet)
    got = {r.pair() for r in report.basis.active_relations()}
    want = {r.pair() for r in pre.basis_system().active_relations()}
    checks.append(("completion reproduces the claimed basis",
                   report.status == STATUS_COMPLETE and got == want))
    for left, right in eq_cases:
        verdict, nu, _ = decide_eq(_expr(left, p), _expr(right, p), report)
        checks.append((f"{left} equals {right}", verdict == EQUAL))
    for left, right in distinct_cases:
        verdict, _, _ = decide_eq(_expr(left, p), _expr(right, p), report)
        checks.append((f"{left} distinct from {right}", verdict == DISTINCT))
    deg, ln = irr_bounds
    irr = enum_irr(report.basis, deg, ln)
    checks.append((f"irreducibles within degree {deg} lie in the "
                   f"normal-form family",
                   bool(irr) and all(pre.family(m) for m in irr)))
    return checks, report, p


def demo_fiore_leinster():
    checks, _, _ = _demo_comm("fiore-leinster", [("x^5", "x")],
                              [("x^2", "x"), ("x^3", "x"), ("x^4", "x")],
                              (6, 4))
    return checks


def demo_blass():
    checks, report, p = _demo_comm(
        "blass", [("x^7", "x")],
        [(f"x^{k}", "x") for k in range(2, 7)], (6, 4))
    status, path = closure_eq(_expr("x", p), _expr("1 + x^2", p),
                              p.relations, True, p.alphabet,
                              ClosureBounds(4, 4, 1000))
    checks.append(("closure oracle reaches 1 + x^2 from x",
                   status == CONGRUENT and len(path) == 1))
    members = blass_family_truncation(2)
    checks.append(("normal-form transport is a bijection on the "
                   "small truncation",
                   transport_check(members, blass_even_map, report)))
    return checks


def demo_znc():
    pre = preset("znc")
    p = pre.presentation
    system = pre.basis_system()
    checks = []
    report = complete(p.relations, p.commutative, p.alphabet)
    got = {r.pair() for r in report.basis.active_relations()}
    want = {r.pair() for r in system.active_relations()}
    checks.append(("completing the schemas adds only the inverse-unit "
                   "square rule",
                   report.status == STATUS_COMPLETE and got == want))
    ok, _ = verify(system)
    checks.append(("the claimed basis verifies", ok))
    irr = enum_irr(system, 3, 2)
    checks.append(("irreducibles within degree 3 match the "
                   "first-letter-mark shape",
                   bool(irr) and all(znc_shape(m, system.alphabet)
                                     for m in irr)))
    cases = [
        ({("x",): 1, ("y",): -1}, {("x", "x"): 1, (): -2}),
        ({(): -1}, {("y",): 2, ("x", "y"): -1}),
        ({("x", "y"): 1, ("y", "x"): 1}, {("x",): -3}),
    ]
    passed = all(sign_encode_check(q, r, system) for q, r in cases)
    checks.append(("sums and products transport through the sign "
                   "encoding", passed))
    return checks


def demo_nat():
    checks = [
        ("{4~2, 5~2} collapses to 3~2",
         nat_congruence_generator([(4, 2), (5, 2)]) == (3, 2)),
        ("{2~2} generates the identity congruence",
         nat_congruence_generator([(2, 2)]) is None),
        ("{7~3} stays 7~3",
         nat_congruence_generator([(7, 3)]) == (7, 3)),
    ]
    return checks


def demo_chain():
    pre = preset("chain")
    p = pre.presentation
    report = complete(p.relations, p.commutative, p.alphabet,
                      limits=CompletionLimits(max_ambiguity_degree=6))
    rels = report.basis.active_relations()
    checks = [("completion truncates at the degree cap",
               report.status == STATUS_TRUNCATED),
              ("truncated basis has one relation per degree",
               len(rels) == 6)]
    evidence = noetherian_chain_demo(4)
    checks.append(("each congruence in the chain is strictly larger",
                   all(strict for _, strict in evidence)))
    return checks


_DEMOS = {
    "fiore-leinster": demo_fiore_leinster,
    "blass": demo_blass,
    "znc": demo_znc,
    "nat": demo_nat,
    "chain": demo_chain,
}


def cmd_demo(args):
    try:
        runner = _DEMOS[args.name]
    except KeyError:
        raise CliError(f"unknown demo {args.name!r}; "
                       f"choose from: {', '.join(sorted(_DEMOS))}") from None
    checks = runner()
    failed = 0
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}: {label}")
        failed += not passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EX_OK if not failed else EX_DISTINCT


def build_parser():
    parser = _Parser(prog="rigbasis",
                     description="Rewriting bases for free semiring "
                                 "presentations.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    c = sub.add_parser("complete", help="run completion on a presentation")
    c.add_argument("file")
    c.add_argument("--max-deg", type=int, default=None,
                   help="skip ambiguities whose greatest component degree "
                        "exceeds this")
    c.add_argument("--max-steps", type=int, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_complete)

    c = sub.add_parser("verify", help="check every composition is trivial")
    c.add_argument("file")
    c.add_argument("--list-ambiguities", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("nf", help="normal form of an expression")
    c.add_argument("file")
    c.add_argument("expr")
    c.add_argument("--trace", action="store_true")
    c.set_defaults(func=cmd_nf)

    c = sub.add_parser("eq", help="decide equality of two expressions")
    c.add_argument("file")
    c.add_argument("left")
    c.add_argument("right")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_eq)

    c = sub.add_parser("irr", help="enumerate irreducible monomials")
    c.add_argument("file")
    c.add_argument("--max-deg", type=int, required=True)
    c.add_argument("--max-len", type=int, required=True)
    c.set_defaults(func=cmd_irr)

    c = sub.add_parser("reduce-basis",
                       help="minimalize and autoreduce the relations")
    c.add_argument("file")
    c.set_defaults(func=cmd_reduce_basis)

    c = sub.add_parser("oracle-eq",
                       help="bounded congruence-closure search")
    c.add_argument("file")
    c.add_argument("left")
    c.add_argument("right")
    c.add_argument("--max-deg", type=int, default=None)
    c.add_argument("--max-len", type=int, default=None)
    c.add_argument("--max-expansions", type=int, default=None)
    c.set_defaults(func=cmd_oracle_eq)

    c = sub.add_parser("preset", help="print a built-in presentation file")
    c.add_argument("name")
    c.add_argument("--basis", action="store_true",
                   help="emit the preset's claimed basis instead of its "
                        "defining relations")
    c.set_defaults(func=cmd_preset)

    c = sub.add_parser("demo", help="run a built-in scenario")
    c.add_argument("name")
    c.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EX_USAGE
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
