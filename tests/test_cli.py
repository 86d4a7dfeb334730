"""Command line surface: exit codes, JSON shape, determinism."""

from __future__ import annotations

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vvmf
from vvmf import MultiplierSpec, PreconditionError, RepInput, structure, unique_operator
from vvmf.cli import _MAX_CLI_DIGITS, _MAX_CLI_PRECISION, _MAX_CLI_WEIGHT, _MAX_CLI_WRONSKIAN, _jsonable, main

from test_modstruct import seeded_cyclic_inputs, seeded_structure_inputs

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

DIM5_ARGS = [
    "classify", "--dim", "5", "--r", "1/12,2/12,3/12,4/12,5/12",
    "--eta-weight", "0", "--chi", "0", "--epsilon", "1", "--assert-t-determined",
]


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run_cli(capsys, argv)
    assert rc == 0, out
    return json.loads(out)


def test_forms_eisenstein(capsys):
    doc = run_json(capsys, ["forms", "--series", "E4", "--precision", "5"])
    assert doc["series"] == "E4" and doc["precision"] == 5
    assert doc["expansion"]["base_exponent"] == "0"
    assert doc["expansion"]["coeffs"][:3] == ["1", "240", "2160"]


def test_forms_eta_power(capsys):
    doc = run_json(capsys, ["forms", "--series", "eta^-3/2", "--precision", "4"])
    assert doc["expansion"]["base_exponent"] == "-1/16"


def test_forms_unknown_series(capsys):
    rc, _ = run_cli(capsys, ["forms", "--series", "zeta"])
    assert rc == 2


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, DIM5_ARGS)
    _, second = run_cli(capsys, DIM5_ARGS)
    assert first == second


def test_mmde_construct(capsys):
    doc = run_json(capsys, ["mmde", "construct", "--roots", "1/12,5/12"])
    op = doc["operator"]
    assert op["order"] == 2
    assert op["weight"] == "2"
    assert op["alphas"] == ["-1/48"]
    assert op["indicial_roots"] == ["1/12", "5/12"]


def test_mmde_order_cap(capsys, tmp_path):
    roots = ",".join("%d/13" % n for n in range(1, 8))
    rc, _ = run_cli(capsys, ["mmde", "construct", "--roots", roots])
    assert rc == 3
    # an operator file is held to the same cap
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"order": 30, "weight": "0", "alphas": ["0"] * 29}), encoding="utf-8")
    rc, out = run_cli(capsys, ["mmde", "construct", "--operator", str(path)])
    assert rc == 3 and out == ""


@pytest.mark.parametrize("argv", [
    ["forms", "--series", "delta", "--precision", "100000"],
    ["mmde", "solve", "--roots", "0,1/3,2/3", "--precision", "100000"],
])
def test_precision_cap(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("computed past the precision cap")

    # the refusal comes before any work, so a missing cap fails fast here
    monkeypatch.setattr(vvmf.cli.forms, "delta", refuse)
    monkeypatch.setattr(vvmf.cli, "solve_fundamental_system", refuse)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("unsupported input:")


def test_precision_cap_boundary(capsys):
    argv = ["forms", "--series", "E4", "--precision"]
    assert main(argv + [str(_MAX_CLI_PRECISION)]) == 0
    assert main(argv + [str(_MAX_CLI_PRECISION + 1)]) == 3


def refuse(*args):
    raise AssertionError("computed past a cap")


@pytest.mark.parametrize("series", ["E%d" % (_MAX_CLI_WEIGHT + 2), "E100000", "E" + "7" * 5000])
def test_weight_cap(capsys, monkeypatch, series):
    # Bernoulli numbers take O(k^2) Fraction steps, so a missing cap would
    # compute for a long time; patched, it fails at once
    monkeypatch.setattr(vvmf.cli.forms, "eisenstein", refuse)
    monkeypatch.setattr(vvmf.cli.forms, "bernoulli", refuse)

    # reading a digit string costs time quadratic in its length, so the
    # cap is checked on the length first
    def short_int(x, *args):
        assert len(str(x)) <= len(str(_MAX_CLI_WEIGHT)), "read a long digit string"
        return int(x, *args)

    monkeypatch.setattr(vvmf.cli, "int", short_int, raising=False)
    assert main(["forms", "--series", series, "--precision", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("unsupported input:")


def test_weight_cap_boundary(capsys):
    assert main(["forms", "--series", "E%d" % _MAX_CLI_WEIGHT, "--precision", "2"]) == 0
    assert main(["forms", "--series", "E000%d" % _MAX_CLI_WEIGHT, "--precision", "2"]) == 0
    assert main(["forms", "--series", "E%d" % (_MAX_CLI_WEIGHT + 1), "--precision", "2"]) == 3
    # a digit that int() does not read is an unknown series, not a traceback
    assert main(["forms", "--series", "E\u00b2", "--precision", "2"]) == 2


@pytest.mark.parametrize("argv", [
    # lcm 1009 and lcm 97: the structure scripts work on unit steps, so the
    # size of the denominators does not set the number of steps
    ["--dim", "4", "--r", "1/1009,2/1009,1006/1009,0", "--assert-t-determined"],
    ["--dim", "4", "--r", "1/1009,2/1009,1006/1009,0", "--assert-t-determined", "--epsilon", "-1"],
    ["--dim", "4", "--r", "1/97,2/97,94/97,0", "--assert-t-determined"],
    ["--dim", "5", "--r", "1/97,2/97,3/97,91/97,0", "--assert-t-determined"],
])
def test_verify_structure_on_long_denominators(capsys, argv):
    doc = run_json(capsys, ["verify-structure"] + argv)
    dim, rs = int(argv[1]), argv[3].split(",")
    epsilon = -1 if "--epsilon" in argv else 1
    rep = RepInput(dim, rs, epsilon, MultiplierSpec.trivial(), t_determined_asserted=True)
    report = structure(rep, 30)
    assert doc == json.loads(json.dumps(_jsonable(report)))
    assert all(v for v in report.values() if isinstance(v, bool))


PAST = "1" + "0" * _MAX_CLI_DIGITS  # the least number of _MAX_CLI_DIGITS + 1 digits


@pytest.mark.parametrize("argv", [
    ["--dim", "4", "--r", "1/%s,2/%s,%d/%s,0" % (PAST, PAST, int(PAST) - 3, PAST), "--assert-t-determined"],
    ["--dim", "5", "--r", "1/%s,2/%s,3/%s,%d/%s,0" % (PAST, PAST, PAST, int(PAST) - 6, PAST), "--assert-t-determined"],
    ["--dim", "5", "--r", "1/12,2/12,3/12,4/12,5/12", "--assert-t-determined", "--eta-weight", "1/" + PAST],
    # a numerator past the cap over a denominator within it
    ["--dim", "4", "--r", "1/5,11/30,8/15,9/10", "--epsilon", "-1", "--eta-weight", "%d/%s" % (int(PAST) + 1, PAST[:-1])],
])
def test_verify_structure_rational_size_cap(capsys, monkeypatch, argv):
    monkeypatch.setattr(vvmf.cli.modstruct, "structure", refuse)
    assert main(["verify-structure"] + argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "beyond %d digits" % _MAX_CLI_DIGITS in err


def test_verify_structure_rational_size_cap_boundary(capsys, monkeypatch):
    top = "9" * _MAX_CLI_DIGITS
    monkeypatch.setattr(vvmf.cli.modstruct, "structure", lambda rep, precision: {"ran": True})
    argv = ["verify-structure", "--dim", "4", "--r", "1/%s,2/%s,%d/%s,0" % (top, top, int(top) - 3, top),
            "--assert-t-determined", "--eta-weight", "%d/%s" % (int(top) - 1, top)]
    assert run_json(capsys, argv) == {"ran": True}


@pytest.mark.parametrize("precision", ["0", "-5"])
def test_verify_structure_refuses_precision_below_one(capsys, monkeypatch, precision):
    monkeypatch.setattr(vvmf.modstruct, "solve_fundamental_system", refuse)
    argv = ["verify-structure", "--dim", "4", "--r", "1/5,11/30,8/15,9/10", "--epsilon", "-1", "--precision=" + precision]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "precision must be >= 1" in err


def test_verify_structure_classifies_before_any_series(capsys, monkeypatch):
    # an input that fails the classification's own checks exits 2
    monkeypatch.setattr(vvmf.modstruct, "solve_fundamental_system", refuse)
    assert main(["verify-structure", "--dim", "4", "--r", "1/1009,2/1009,1006/1009,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "T-determined" in err


@pytest.mark.parametrize("argv", [
    ["--exponents", "1/%s,1/3,1/2,2/3,%d/%s" % (PAST, int(PAST) - 1, PAST), "--c", "0"],
    ["--exponents", "1/6,1/3,1/2,2/3,5/6", "--c", "0," + PAST],
    ["--exponents", "1/6,1/3,1/2,2/3,5/6", "--c", "1/" + PAST],
])
def test_appendix_rational_size_cap(capsys, monkeypatch, argv):
    # the order-six operator grows with the digits of its exponents and of c,
    # so a long rational is refused before any work
    monkeypatch.setattr(vvmf.cli.modstruct, "appendix_demo", refuse)
    assert main(["appendix"] + argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "beyond %d digits" % _MAX_CLI_DIGITS in err


def test_appendix_rational_size_cap_boundary(capsys, monkeypatch):
    top = "9" * _MAX_CLI_DIGITS
    monkeypatch.setattr(vvmf.cli.modstruct, "appendix_demo", lambda *args: {"ran": True})
    argv = ["appendix", "--exponents", "1/%s,1/3,1/2,2/3,%d/%s" % (top, int(top) - 1, top), "--c", "0,-" + top]
    assert run_json(capsys, argv) == {"ran": True}


@pytest.mark.parametrize("argv", [
    ["wronskian", "--roots", "1/7,3/11,5/13,17/19,1/23", "--precision", "200"],
    ["wronskian", "--roots", "1/23,2/19,3/17,5/13,7/11,1/7", "--precision", "31"],
    ["wronskian", "--roots", "1/23,2/19,3/17", "--precision", "61"],
    ["wronskian", "--roots", "1/23", "--precision", "181"],
])
def test_wronskian_cap(capsys, monkeypatch, argv):
    # the precision cap leaves a Wronskian of order 3 to 6 running for
    # seconds to minutes, so order times precision is capped before any work
    monkeypatch.setattr(vvmf.cli, "solve_fundamental_system", refuse)
    monkeypatch.setattr(vvmf.cli, "wronskian_factorization", refuse)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "order times precision" in err


def test_wronskian_cap_boundary(capsys, monkeypatch):
    def reached(L, precision):
        raise PreconditionError("solve reached at order %d" % L.order)

    monkeypatch.setattr(vvmf.cli, "solve_fundamental_system", reached)
    for order in range(1, 7):
        roots = ",".join("%d/7" % n for n in range(order))
        top = _MAX_CLI_WRONSKIAN // order
        assert main(["wronskian", "--roots", roots, "--precision", str(top)]) == 2
        assert "solve reached at order %d" % order in capsys.readouterr().err
        assert main(["wronskian", "--roots", roots, "--precision", str(top + 1)]) == 3
    # the default precision 30 stays accepted at every order
    assert main(["wronskian", "--roots", "0,1/7,2/7,3/7,4/7,5/7"]) == 2


LONG = "7" * (_MAX_CLI_DIGITS + 1)
SIX_ROOTS = "1/7,3/11,5/13,17/19,1/23,2/5"


def write_operator(tmp_path, roots, drop=()):
    rec = unique_operator([Fraction(x) for x in roots.split(",")]).to_record()
    path = tmp_path / "op.json"
    path.write_text(json.dumps({k: v for k, v in rec.items() if k not in drop}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv,operator", [
    (["forms", "--series", "eta^%s/11" % LONG, "--precision", "200"], None),
    (["forms", "--series", "eta^-1/%s" % LONG], None),
    (["mmde", "solve", "--roots", "1/%s,1/3" % LONG, "--precision", "60"], None),
    (["mmde", "construct", "--roots", SIX_ROOTS, "--cusp", LONG], None),
    (["wronskian", "--roots", "1/3,-%s/%s" % (LONG, LONG + "1")], None),
    (["mmde", "solve"], ("1/%s,1/3" % LONG, ())),
    # without stored roots the alphas are checked, and these have 14 to 44 digits
    (["wronskian"], (SIX_ROOTS, ("indicial_roots",))),
])
def test_rational_size_cap(capsys, monkeypatch, tmp_path, argv, operator):
    # series coefficients grow with the digits of the inputs, so a long
    # rational is refused before any operator or series is built
    if operator:
        argv = argv + ["--operator", write_operator(tmp_path, *operator)]
    monkeypatch.setattr(vvmf.cli.forms, "eta_power", refuse)
    monkeypatch.setattr(vvmf.cli, "unique_operator", refuse)
    monkeypatch.setattr(vvmf.cli, "solve_fundamental_system", refuse)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "beyond %d digits" % _MAX_CLI_DIGITS in err


def test_rational_size_cap_boundary(capsys, tmp_path):
    top, past = "9" * _MAX_CLI_DIGITS, "1" + "0" * _MAX_CLI_DIGITS
    for exponent, rc in (("-%s/%s" % (top, top[:-1] + "8"), 0), (past + "/7", 3), ("1/" + past, 3)):
        assert main(["forms", "--series", "eta^" + exponent, "--precision", "3"]) == rc
    for roots, rc in (("1/%s,1/3" % top, 0), ("1/%s,1/3" % past, 3)):
        assert main(["mmde", "solve", "--roots", roots, "--precision", "3"]) == rc
    for cusp, rc in (("-" + top, 0), (past, 3)):
        assert main(["mmde", "construct", "--roots", SIX_ROOTS, "--cusp=" + cusp]) == rc
    capsys.readouterr()
    # a file written by construct is held to the cap on its roots, not on
    # its weight and alphas, which are longer symmetric functions of them
    by_roots = run_json(capsys, ["mmde", "construct", "--roots", SIX_ROOTS])
    assert run_json(capsys, ["mmde", "construct", "--operator", write_operator(tmp_path, SIX_ROOTS)]) == by_roots
    # hp takes no operator and no series name, and stays uncapped
    assert run_json(capsys, ["hp", "--k0", past, "--offsets", "0", "--weight", past])["dim"] == 1


def test_solve_needs_roots_or_an_operator(capsys):
    assert main(["mmde", "solve"]) == 2
    assert capsys.readouterr() == ("", "precondition violated: supply --roots or --operator\n")


@pytest.mark.parametrize("argv", [
    ["mmde", "solve", "--roots=-13/23"],
    ["wronskian", "--roots=12/5,-13/23"],
])
def test_negative_root_is_refused_before_the_solve(capsys, monkeypatch, argv):
    monkeypatch.setattr(vvmf.frobenius, "theta_form", refuse)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "indicial root -13/23 is negative" in err


@pytest.mark.parametrize("argv", [
    ["hp", "--k0", "2", "--offsets", "0", "--weight", "1e1000000"],
    ["hp", "--k0", "1E5", "--offsets", "0", "--weight", "2"],
    ["classify", "--dim", "2", "--r", "1e-1,1/2"],
    ["classify", "--dim", "2", "--r", "1/3,1/2", "--eta-weight", "1e0"],
    ["mmde", "solve", "--roots", "1/3,2e3", "--precision", "5"],
    ["mmde", "construct", "--roots", SIX_ROOTS, "--cusp", "1e5"],
    ["forms", "--series", "eta^1e5"],
    None,
])
def test_exponent_notation_is_refused(capsys, monkeypatch, tmp_path, argv):
    # Fraction reads "1e1000000" by building the whole power of ten, so such
    # a string is refused before it reaches Fraction
    real_new = Fraction.__new__

    def guarded(cls, numerator=0, denominator=None, **kw):
        assert not (isinstance(numerator, str) and "e" in numerator.lower()), numerator
        return real_new(cls, numerator, denominator, **kw)

    if argv is None:
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"order": 2, "weight": "1e3000000", "alphas": ["0"]}), encoding="utf-8")
        argv = ["wronskian", "--operator", str(path)]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(guarded))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exponent notation" in err


def test_hp_at_a_huge_weight(capsys):
    doc = run_json(capsys, ["hp", "--k0", "0", "--offsets", "0", "--weight", str(10**12)])
    assert doc["dim"] == 10**12 // 12 + 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_output_past_the_int_digit_limit(capsys):
    # order 6 at precision 90 prints integers of more than 4300 digits, the
    # interpreter's default limit on int-to-str conversion; main lifts the
    # limit while it builds the output and then puts it back
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        doc = run_json(capsys, ["mmde", "solve", "--roots", "1/7,3/11,5/13,17/19,1/23,2/5", "--precision", "90"])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)
    coeffs = [c for comp in doc["system"]["components"] for c in comp["coeffs"]]
    assert max(len(c) for c in coeffs) > 4300


@pytest.fixture
def default_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("command", [["mmde", "construct"], ["mmde", "solve"], ["wronskian"]])
@pytest.mark.parametrize("weight", ['"1%s"', "1%s"], ids=["string", "number"])
def test_long_digit_string_is_refused_unread(capsys, monkeypatch, tmp_path, default_digit_limit, command, weight):
    # the command runs under the interpreter's digit limit, so a weight of a
    # million digits is refused as it is parsed, not read in time quadratic in
    # its length and only then held to the digit cap
    path = tmp_path / "op.json"
    path.write_text('{"order": 2, "weight": %s, "alphas": ["0"]}' % (weight % ("0" * 10**6)), encoding="utf-8")
    monkeypatch.setattr(vvmf.cli, "_refuse_long_rationals", refuse)
    monkeypatch.setattr(vvmf.cli, "unique_operator", refuse)
    monkeypatch.setattr(vvmf.cli, "solve_fundamental_system", refuse)
    assert main(command + ["--operator", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "4300 digits" in err


def test_derived_values_past_the_digit_limit(capsys, monkeypatch, default_digit_limit):
    # angles of 3,000-digit denominators give a k0 of 12,000 digits: the
    # command hands it to the renderer, which lifts the limit
    p, q = 10**3000 + 19, 10**3000 + 7
    doc = run_json(capsys, ["classify", "--dim", "2", "--r", "1/%d,1/%d" % (p, q)])
    assert len(doc["k0"]) > 4300 and sys.get_int_max_str_digits() == 4300
    # library text past the limit is an unsupported input, not a traceback
    monkeypatch.setattr(vvmf.cli.modstruct, "appendix_demo", lambda *args: {"text": str(10**5000)})
    rc, out = run_cli(capsys, ["appendix", "--exponents", "1/6,1/3,1/2,2/3,5/6", "--c", "0"])
    assert rc == 3 and out == ""


def test_operator_file_boolean_order_exits_2(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text('{"order": true, "weight": "4", "alphas": []}', encoding="utf-8")
    rc, out = run_cli(capsys, ["mmde", "construct", "--operator", str(path)])
    assert rc == 2 and out == ""


def test_mmde_solve_congruent_roots(capsys):
    rc, _ = run_cli(capsys, ["mmde", "solve", "--roots", "0,1"])
    assert rc == 2


def test_mmde_cusp_needs_order_six(capsys):
    rc, _ = run_cli(capsys, ["mmde", "construct", "--roots", "1/12,5/12", "--cusp", "1"])
    assert rc == 2


def test_mmde_solve_normalized_components(capsys):
    doc = run_json(capsys, ["mmde", "solve", "--roots", "1/12,5/12", "--precision", "6"])
    system = doc["system"]
    assert system["weight"] == "2"
    assert system["exponents"] == ["1/12", "5/12"]
    for comp in system["components"]:
        assert comp["coeffs"][0] == "1"
        assert comp["precision"] == 6


def test_operator_file_round_trip(capsys, tmp_path):
    doc = run_json(capsys, ["mmde", "construct", "--roots", "0,1/3,2/3"])
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc["operator"]), encoding="utf-8")
    again = run_json(capsys, ["mmde", "construct", "--operator", str(path)])
    assert again == doc


@pytest.mark.parametrize(
    "content",
    [
        None, "not json", '{"order": 2}', '{"order": 2, "weight": "1/0", "alphas": ["0"]}',
        '{"order": 3, "weight": "2", "alphas": "12"}', '{"order": 2, "weight": "1", "alphas": [true]}',
        '{"a": 1}',
    ],
    ids=["missing", "non_json", "no_weight", "zero_denominator", "string_alphas", "bool_alpha", "no_order"],
)
def test_operator_file_errors_exit_2(capsys, tmp_path, content):
    path = tmp_path / "op.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    rc = main(["mmde", "solve", "--operator", str(path), "--precision", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("precondition violated: cannot read operator file")
    assert str(path) in lines[0]


@pytest.mark.parametrize("command", [["mmde", "construct"], ["mmde", "solve"], ["wronskian"]])
@pytest.mark.parametrize("extra", [["--cusp", "5"], ["--roots", "1/12,5/12"]], ids=["cusp", "roots"])
def test_operator_file_excludes_roots_and_cusp(capsys, tmp_path, command, extra):
    doc = run_json(capsys, ["mmde", "construct", "--roots", "1/12,5/12"])
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc["operator"]), encoding="utf-8")
    rc = main(command + ["--operator", str(path), "--precision", "8"] + extra)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["precondition violated: --operator cannot be combined with --roots or --cusp"]


def test_wronskian(capsys):
    doc = run_json(capsys, ["wronskian", "--roots", "1/12,5/12", "--precision", "8"])
    assert doc["exponent_sum"] == "1/2"
    assert doc["g_weight"] == "0"
    assert doc["gamma"] == "1/3"
    assert doc["g"]["base_exponent"] == "0"


def test_wronskian_weight_zero_rows_keep_their_window(capsys):
    # the roots 1/12, 1/6, 1/4 give a weight-0 operator, so the first
    # derivative row is theta F on F's window; g is known one step further
    # than when a zero product floored that row's window
    doc = run_json(capsys, ["wronskian", "--roots", "1/12,1/6,1/4", "--precision", "12"])
    assert doc["g_weight"] == "0" and doc["gamma"] == "1/864"
    assert doc["g"]["precision"] == 11


def test_classify_dim5_example(capsys):
    doc = run_json(capsys, DIM5_ARGS)
    assert doc["k0"] == "-1"
    assert doc["N"] == 0 and doc["k_N"] == "-1" and doc["n_N"] == 0
    assert doc["offsets"] == [0, 1, 2, 3, 4]
    assert doc["numerator"] == "1+t^2+t^4+t^6+t^8"
    assert doc["dims"]["-1"] == 1 and doc["dims"]["5"] == 3
    assert doc["assumption"] == "T-determined: asserted by caller"


def test_classify_dim5_auto_banner(capsys):
    doc = run_json(capsys, [
        "classify", "--dim", "5", "--r", "6/25,7/25,8/25,13/25,16/25",
    ])
    assert doc["assumption"].startswith("T-determined: auto-set")


def test_classify_dim1(capsys):
    doc = run_json(capsys, ["classify", "--dim", "1", "--r", "6/12"])
    assert doc["k0"] == "6" and doc["offsets"] == [0]
    rc, _ = run_cli(capsys, ["classify", "--dim", "1", "--r", "1/5"])
    assert rc == 2
    rc, _ = run_cli(capsys, ["classify", "--dim", "1", "--r", "1/12,5/12"])
    assert rc == 2


def test_classify_dim4_requires_flag(capsys):
    rc, _ = run_cli(capsys, [
        "classify", "--dim", "4", "--r", "1/24,5/24,7/24,11/24", "--epsilon", "-1",
    ])
    assert rc == 2


# not T-determined by the heuristic
REFUSED_DIM4 = ["--dim", "4", "--r", "8/21,11/21,20/21,17/21", "--eta-weight", "1/3", "--chi", "7"]
T_DETERMINED_REFUSAL = (
    "precondition violated: classification in dimension 4 needs the T-determined hypothesis; "
    "without it the structure is one of: cyclic with offsets {0,1,2,3} at 3*lambda-3, or "
    "offsets {0,1,1,2} at 3*lambda-2. Re-run with the flag asserted if the representation "
    "is known to be T-determined.\n"
)


@pytest.mark.parametrize("command", ["classify", "verify-structure"])
@pytest.mark.parametrize("flags,refusal", [([], T_DETERMINED_REFUSAL)])
def test_dim4_refuses_t_determination_before_parity(capsys, monkeypatch, command, flags, refusal):
    monkeypatch.setattr(vvmf.modstruct, "solve_fundamental_system", refuse)
    assert main([command] + REFUSED_DIM4 + flags) == 2
    assert capsys.readouterr() == ("", refusal)


def test_dim4_asserted_t_determination_answers_with_the_twisted_series(capsys):
    # every dimension 4 input has a parity; this one is the eta^(2/3)-twist
    # of the odd series at eta weight 0, k0 = 3
    for command in ("classify", "verify-structure"):
        doc = run_json(capsys, [command] + REFUSED_DIM4 + ["--assert-t-determined"])
        assert (doc["k0"], doc["offsets"]) == ("10/3", [0, 1, 2, 3])
    assert doc["parity"] == "odd" and doc["generator_weight_matches_k0"] and doc["dims_match"]


def rep_argv(command, rep):
    m = rep.multiplier
    argv = [command, "--dim", str(rep.dimension), "--r", ",".join(str(x) for x in rep.exponents),
            "--eta-weight", str(m.eta_weight), "--chi", str(m.chi_power), "--epsilon", str(rep.epsilon)]
    return argv + ["--assert-t-determined"] * rep.t_determined_asserted


@pytest.mark.parametrize("rep", seeded_cyclic_inputs(20) + seeded_structure_inputs(20))
def test_classify_and_verify_structure_read_one_classification(capsys, rep):
    classified = run_json(capsys, rep_argv("classify", rep))
    verified = run_json(capsys, rep_argv("verify-structure", rep))
    shared = ["k0", "offsets", "numerator"] + ["N", "k_N", "n_N"] * (rep.dimension == 5)
    assert {k: classified[k] for k in shared} == {k: verified[k] for k in shared}
    # the dimension 4 parity is a structure report field only
    assert "parity" not in classified and ("parity" in verified) == (rep.dimension == 4)


def test_classify_bad_rational(capsys):
    rc, _ = run_cli(capsys, ["classify", "--dim", "2", "--r", "1/0"])
    assert rc == 2
    rc, _ = run_cli(capsys, ["mmde", "solve", "--roots", ","])
    assert rc == 2


def test_hp(capsys):
    doc = run_json(capsys, ["hp", "--k0", "2", "--offsets", "0,1", "--weight", "8"])
    assert doc["dim"] == 2
    assert doc["numerator"] == "1+t^2"
    off = run_json(capsys, ["hp", "--k0", "2", "--offsets", "0,1", "--weight", "7"])
    assert off["dim"] == 0


def test_appendix(capsys):
    doc = run_json(capsys, [
        "appendix", "--exponents", "1/6,1/3,1/2,2/3,5/6", "--c", "0,1,-3",
        "--precision", "18",
    ])
    assert doc["indicial_identical_across_c"] is True
    assert doc["residual_zero_iff_c_zero"] is True
    assert doc["all_angles_match"] is True


def test_verify_structure_dim5(capsys):
    doc = run_json(capsys, [
        "verify-structure", "--dim", "5", "--r", "6/25,7/25,8/25,13/25,16/25",
        "--precision", "16",
    ])
    assert doc["N"] == 3
    assert doc["combination_exists"] is True
    assert doc["independent_pair"] is True


def test_verify_structure_dim3_unsupported(capsys):
    # dimensions 1-3 answer with the cyclic report: F0, DF0, D^2F0 from weight 2
    doc = run_json(capsys, [
        "verify-structure", "--dim", "3", "--r", "0,1/3,2/3",
    ])
    assert doc["k0"] == "2" and doc["offsets"] == [0, 1, 2]
    assert doc["numerator"] == "1+t^2+t^4"
    assert doc["generator_weight_matches_k0"] is True and doc["dims_match"] is True
    assert doc["dims"] == [["2", 1, 1], ["4", 1, 1], ["6", 2, 2], ["8", 2, 2], ["10", 3, 3]]


def test_text_format(capsys):
    rc, out = run_cli(capsys, [
        "classify", "--dim", "1", "--r", "6/12", "--format", "text",
    ])
    assert rc == 0
    lines = out.splitlines()
    assert "k0: 6" in lines
    assert any(line.strip() == "6: 1" for line in lines)


def console_script_command():
    """The argv prefix and environment that run the ``vvmf`` console script.

    An installed script on PATH is run as is. Otherwise the declared entry
    point (from the installed metadata, else from ``[project.scripts]`` in
    ``pyproject.toml``) is run the way the generated wrapper runs it, in a
    child whose PYTHONPATH starts with the source tree this suite imports.
    """
    exe = shutil.which("vvmf")
    if exe is not None:
        return [exe], None
    found = importlib.metadata.entry_points(group="console_scripts", name="vvmf")
    if found:
        entry = next(iter(found))
    else:
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["vvmf"]
        entry = importlib.metadata.EntryPoint(
            name="vvmf", value=target, group="console_scripts")
    code = "import sys; from %s import %s; sys.exit(%s())" % (
        entry.module, entry.attr, entry.attr)
    src = str(Path(vvmf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return [sys.executable, "-c", code], env


def test_console_script():
    command, env = console_script_command()
    proc = subprocess.run(
        command + ["forms", "--series", "delta", "--precision", "3"],
        capture_output=True, text=True, check=True, env=env,
    )
    doc = json.loads(proc.stdout)
    assert doc["expansion"]["coeffs"] == ["1", "-24", "252", "-1472"]


def test_dim5_twist_class_is_solved_once(monkeypatch, capsys):
    calls = []
    real = vvmf.classify.dim5_data

    def spy(rep):
        calls.append(rep)
        return real(rep)

    for name, mod in list(sys.modules.items()):
        if (name == "vvmf" or name.startswith("vvmf.")) and getattr(mod, "dim5_data", None) is real:
            monkeypatch.setattr(mod, "dim5_data", spy)
    rc, out = run_cli(capsys, ["classify", "--dim", "5", "--r", "1/12,2/12,3/12,4/12,5/12", "--assert-t-determined"])
    assert rc == 0 and json.loads(out)["N"] == 0
    assert len(calls) == 1
    rep = RepInput(5, tuple(Fraction(k, 12) for k in range(1, 6)), 1, MultiplierSpec(0, 0), t_determined_asserted=True)
    structure(rep, 16)
    assert len(calls) == 2
