"""Command-line interface: exit codes, output contracts, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rigbasis
from rigbasis import parse_expr, parse_presentation, preset
from rigbasis.cli import main


@pytest.fixture()
def blass_file(tmp_path):
    f = tmp_path / "tree.rig"
    f.write_text("mode: commutative\nvars: x\norder: wtlex\n"
                 "rel: x = 1 + x^2\n")
    return str(f)


@pytest.fixture()
def chain_file(tmp_path):
    f = tmp_path / "chain.rig"
    f.write_text("mode: commutative\nvars: x\nrel: 1 + x = x\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------


def test_complete_reports_basis(blass_file, capsys):
    code, out, _ = run(capsys, "complete", blass_file)
    assert code == 0
    assert "status: Complete" in out
    assert "relations: 5" in out
    assert "1 + x^2 = x" in out


def test_complete_json_contract(blass_file, capsys):
    code, out, _ = run(capsys, "complete", blass_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["basis", "stats", "status"]
    assert doc["status"] == "Complete"
    assert len(doc["basis"]) == 5
    assert all(sorted(r) == ["lhs", "rhs"] for r in doc["basis"])
    # the rendered sides parse back to monomials over the same file
    pres = parse_presentation(open(blass_file).read())
    for r in doc["basis"]:
        parse_expr(r["lhs"], pres)
        parse_expr(r["rhs"], pres)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_complete_truncated_exit(chain_file, capsys):
    code, out, _ = run(capsys, "complete", chain_file, "--max-deg", "6")
    assert code == 2
    assert "status: Truncated" in out


def test_verify_passes_on_basis(tmp_path, capsys):
    f = tmp_path / "basis.rig"
    from rigbasis import render_system_file
    f.write_text(render_system_file(preset("blass").basis_system()))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert out.startswith("VERIFIED: all ")


def test_verify_fails_on_defining_relation(blass_file, capsys):
    code, out, _ = run(capsys, "verify", blass_file)
    assert code == 1
    assert out.startswith("NOT A BASIS:")


def test_verify_list_ambiguities(blass_file, capsys):
    code, out, _ = run(capsys, "verify", blass_file, "--list-ambiguities")
    assert code == 1
    pat = re.compile(r"^\(#\d+, #\d+\) [a-z-]+ w = .+ spoly = .+$")
    lines = [l for l in out.splitlines() if " spoly = " in l]
    assert lines
    for line in lines:
        assert pat.match(line), line
    # the summary line follows the listing
    assert any(l.startswith("NOT A BASIS:") for l in out.splitlines())


def test_verify_json(blass_file, capsys):
    code, out, _ = run(capsys, "verify", blass_file, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "not-a-basis"
    assert doc["stats"]["compositions"] > 0
    assert doc["stats"]["nontrivial"] > 0


@pytest.fixture()
def blass_basis_file(tmp_path):
    from rigbasis import render_system_file
    f = tmp_path / "tree-basis.rig"
    f.write_text(render_system_file(preset("blass").basis_system()))
    return str(f)


def test_nf_plain_and_trace(blass_file, blass_basis_file, capsys):
    # under the lone defining relation nothing in x^7 matches
    code, out, _ = run(capsys, "nf", blass_file, "x^7")
    assert code == 0
    assert out.strip() == "nf = (x^7)"
    # the completed basis collapses it
    code, out, _ = run(capsys, "nf", blass_basis_file, "x^7")
    assert code == 0
    assert out.strip() == "nf = (x)"
    code, out, _ = run(capsys, "nf", blass_basis_file, "x^7", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "nf = (x)"
    assert len(lines) > 1
    assert all("[rel #" in l for l in lines[:-1])


def test_exhausted_step_budget_is_an_unknown_exit(blass_file,
                                                 blass_basis_file,
                                                 monkeypatch, capsys):
    # nf and eq stop with an error naming the step limit and exit 2
    # instead of a traceback with exit 1 (Distinct's code)
    from rigbasis import rewrite
    monkeypatch.setattr(rewrite.normal_form, "__defaults__", (50,))
    monkeypatch.setattr(rewrite.normal_form_monomial, "__defaults__", (50,))
    for argv in (("nf", blass_basis_file, "(1+x)^9"),
                 ("nf", blass_basis_file, "(1+x)^9", "--trace"),
                 ("eq", blass_file, "(1+x)^9", "x"),
                 ("eq", blass_file, "(1+x)^9", "x", "--json")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == ("error: reduction budget exhausted: step limit of 50 "
                       "reached\n")


def test_other_reduction_errors_still_raise(blass_file, monkeypatch):
    # only budget exhaustion is an expected outcome; an internal
    # reduction failure stays an exception
    from rigbasis import ReductionError, cli

    def broken(*args):
        raise ReductionError("monomial did not reduce to a monomial")

    monkeypatch.setattr(cli, "decide_eq", broken)
    with pytest.raises(ReductionError, match="did not reduce"):
        main(["eq", blass_file, "x^7", "x"])


def test_eq_equal(blass_file, capsys):
    code, out, _ = run(capsys, "eq", blass_file, "x^7", "x")
    assert code == 0
    assert out.strip() == "EQUAL, nf = x"


def test_eq_distinct(blass_file, capsys):
    code, out, _ = run(capsys, "eq", blass_file, "x^3", "x")
    assert code == 1
    assert out.startswith("DISTINCT, nf = ")
    assert "!=" in out


def test_eq_unknown_on_truncated(chain_file, capsys):
    code, out, _ = run(capsys, "eq", chain_file, "1 + x^30", "x^30")
    assert code == 2
    assert out.startswith("UNKNOWN (basis truncated), nf = ")
    assert "?=" in out


def test_eq_json(blass_file, chain_file, capsys):
    # same exit codes as the plain output
    cases = [(blass_file, "x^7", "x", 0,
              {"verdict": "Equal", "status": "Complete", "nf": ["x", "x"]}),
             (blass_file, "x^3", "x", 1,
              {"verdict": "Distinct", "status": "Complete",
               "nf": ["x^3", "x"]}),
             (chain_file, "1 + x^30", "x^30", 2,
              {"verdict": "Unknown", "status": "Truncated",
               "nf": ["1 + x^30", "x^30"]})]
    for path, left, right, want_code, want in cases:
        code, out, _ = run(capsys, "eq", path, left, right, "--json")
        assert code == want_code
        assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_irr_lists_family(blass_file, capsys):
    code, out, _ = run(capsys, "irr", blass_file, "--max-deg", "3",
                       "--max-len", "2")
    assert code == 0
    lines = out.splitlines()
    assert "0" in lines            # the empty bag
    assert "x" in lines
    assert "1 + x^2" not in lines  # reducible
    from rigbasis import blass_family
    pres = preset("blass").presentation
    for line in lines:
        assert blass_family(parse_expr(line, pres))


def test_irr_requires_bounds(blass_file, capsys):
    code, _, _ = run(capsys, "irr", blass_file)
    assert code == 64


def test_reduce_basis(tmp_path, capsys):
    f = tmp_path / "messy.rig"
    f.write_text("mode: commutative\nvars: x\norder: wtlex\n"
                 "rel: x^2 = x\nrel: x^3 = x\nrel: x^4 = x^2\n")
    code, out, _ = run(capsys, "reduce-basis", str(f))
    assert code == 0
    assert out.splitlines() == ["x^2 = x"]


def test_oracle_eq_congruent(blass_file, capsys):
    code, out, _ = run(capsys, "oracle-eq", blass_file, "x^7", "x",
                       "--max-deg", "8", "--max-len", "6")
    assert code == 0
    m = re.match(r"CONGRUENT \(witness path, (\d+) steps\)", out.strip())
    assert m and int(m.group(1)) > 0


def test_oracle_eq_not_found(blass_file, capsys):
    code, out, _ = run(capsys, "oracle-eq", blass_file, "x^2", "x",
                       "--max-deg", "5", "--max-len", "4")
    assert code == 2
    assert out.strip() == "NOT FOUND within bounds (not a disequality proof)"


def test_preset_emits_parseable_presentation(capsys):
    for name in ("fiore-leinster", "blass", "nat", "chain", "znc"):
        code, out, _ = run(capsys, "preset", name)
        assert code == 0
        p = parse_presentation(out)
        assert p.relations


def test_preset_basis_flag(capsys):
    code, out, _ = run(capsys, "preset", "blass", "--basis")
    assert code == 0
    p = parse_presentation(out)
    assert len(p.relations) == 5
    code, _, _ = run(capsys, "preset", "chain", "--basis")
    assert code == 65


def test_preset_unknown_name(capsys):
    code, _, err = run(capsys, "preset", "nosuch")
    assert code == 65
    assert "error" in err


def test_demo_nat(capsys):
    code, out, _ = run(capsys, "demo", "nat")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_demo_chain(capsys):
    code, out, _ = run(capsys, "demo", "chain")
    assert code == 0
    assert "FAIL" not in out


def test_usage_errors(capsys, blass_file):
    assert run(capsys, )[0] == 64
    assert run(capsys, "bogus")[0] == 64
    assert run(capsys, "eq", blass_file)[0] == 64



@pytest.mark.parametrize("argv", [
    ["oracle-eq", "{f}", "x^5", "x", "--max-expansions", "-5"],
    ["oracle-eq", "{f}", "x^5", "x", "--max-deg", "-1"],
    ["oracle-eq", "{f}", "x^5", "x", "--max-len", "-2"],
    ["complete", "{f}", "--max-deg", "-1"],
    ["complete", "{f}", "--max-steps", "-1"],
    ["irr", "{f}", "--max-deg", "-1", "--max-len", "2"],
    ["irr", "{f}", "--max-deg", "2", "--max-len", "-1"],
])
def test_negative_limits_are_usage_errors(argv, blass_file, capsys):
    code, out, err = run(capsys, *[a.format(f=blass_file) for a in argv])
    assert code == 64
    assert out == ""
    assert "must be at least 0" in err


def test_zero_limits_are_accepted(blass_file, capsys):
    assert run(capsys, "irr", blass_file, "--max-deg", "0",
               "--max-len", "0") == (0, "0\n", "")
    code, out, _ = run(capsys, "oracle-eq", blass_file, "x", "x",
                       "--max-expansions", "0")
    assert code == 0
    assert out == "CONGRUENT (witness path, 0 steps)\n"
    code, out, _ = run(capsys, "complete", blass_file, "--max-steps", "0")
    assert code == 2 and "status: Truncated" in out

def test_data_errors(tmp_path, capsys):
    missing = str(tmp_path / "none.rig")
    assert run(capsys, "complete", missing)[0] == 65
    bad = tmp_path / "bad.rig"
    bad.write_text("mode: commutative\nvars: x\nrel: x = x\n")
    assert run(capsys, "verify", str(bad))[0] == 65
    assert run(capsys, "nf", str(tmp_path / "n.rig"), "x")[0] == 65


def test_bad_expression_is_data_error(blass_file, capsys):
    assert run(capsys, "eq", blass_file, "y", "x")[0] == 65
    assert run(capsys, "nf", blass_file, "x +")[0] == 65


def test_cli_output_is_byte_deterministic(blass_file):
    cmds = [
        [sys.executable, "-m", "rigbasis.cli", "complete", blass_file,
         "--json"],
        [sys.executable, "-m", "rigbasis.cli", "irr", blass_file,
         "--max-deg", "4", "--max-len", "3"],
        [sys.executable, "-m", "rigbasis.cli", "preset", "znc"],
    ]
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(rigbasis.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for cmd in cmds:
        a = subprocess.run(cmd, capture_output=True, env=env)
        b = subprocess.run(cmd, capture_output=True, env=env)
        assert a.stdout == b.stdout and a.stdout
        assert a.returncode == b.returncode


# ---------------------------------------------------------------------------
# golden transcript

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"


def cli_transcript():
    """Run the golden commands in the working directory and return one
    block per call: the command line, stdout, stderr lines prefixed with
    `! `, and the exit code.  `preset NAME [--basis]` writes NAME.rig and
    NAME-basis.rig for the calls after it."""
    blocks = []

    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        blocks.append("$ rigbasis " + " ".join(argv) + "\n" + out.getvalue()
                      + "".join(f"! {l}\n" for l in err.getvalue().splitlines())
                      + f"[exit {code}]\n")
        return out.getvalue()

    names = ("fiore-leinster", "blass", "nat", "chain", "znc")
    for name in names:
        Path(f"{name}.rig").write_text(call("preset", name), encoding="utf-8")
        basis = call("preset", name, "--basis")
        if basis:
            Path(f"{name}-basis.rig").write_text(basis, encoding="utf-8")
    for name in names:
        call("complete", f"{name}.rig", "--json")
        call("verify", f"{name}.rig", "--json")
        if name != "chain":
            call("verify", f"{name}-basis.rig", "--json")
    call("nf", "blass-basis.rig", "x^9", "--trace")
    call("nf", "fiore-leinster-basis.rig", "(1+x)^6", "--trace")
    call("eq", "blass.rig", "x^7", "x")
    call("eq", "fiore-leinster.rig", "(1+x)^6", "1 + x")
    call("oracle-eq", "blass.rig", "x^5", "x")
    call("irr", "blass.rig", "--max-deg", "4", "--max-len", "4")
    call("irr", "blass-basis.rig", "--max-deg", "4", "--max-len", "4")
    return "\n".join(blocks)


def test_cli_matches_golden(tmp_path, monkeypatch):
    # any byte of difference is a change of CLI behaviour; after an
    # intended one, write cli_transcript(), run in an empty directory,
    # to GOLDEN and list the change
    monkeypatch.chdir(tmp_path)
    assert cli_transcript() == GOLDEN.read_text(encoding="utf-8")
