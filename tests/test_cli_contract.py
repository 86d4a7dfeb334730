"""The CLI contract for generated argv: exit 0, 2 or 3, no traceback, empty
stdout on a refusal, and the same stdout bytes when a command is rerun.

The argv cover every subcommand, with well-formed and malformed flags,
rationals, series names and operator files.  Precisions stay small or past
the cap, so the whole test runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vvmf import eisenstein, unique_operator
from vvmf.cli import _MAX_CLI_PRECISION, main

OPERATOR = "@operator"  # stands for the path of the generated operator file


def _mostly(good, *others):
    """Draws from good nine times in ten, else from the others."""
    return st.integers(0, 9).flatmap(lambda i: st.one_of(*others) if i == 9 else good)


small_rat = st.builds(
    lambda p, q: str(Fraction(p, q)), st.integers(-30, 60), st.integers(1, 30)
)
bad_rat = st.sampled_from(["", "1/0", "abc", "1/2/3", "1e3", "0.5", "٣", "--", "1" * 5000])
rat = _mostly(small_rat, bad_rat)
bad_list = st.sampled_from(["", ",", "1/2,,1/3", " 1/2", "1/2;1/3"])
roots = _mostly(st.lists(small_rat, min_size=1, max_size=7).map(",".join), bad_list, st.lists(rat, max_size=3).map(",".join))
angle = st.builds(lambda p, q: Fraction(p % q, q), st.integers(0, 24), st.integers(1, 12))
precision = _mostly(
    st.integers(1, 12).map(str),
    st.integers(-3, 0).map(str),
    st.sampled_from([str(_MAX_CLI_PRECISION + 1), "10" * 20, "-" + "9" * 30, "x", "1.5", ""]),
)
series_name = _mostly(
    st.one_of(
        st.sampled_from(["delta", "E2", "E4", "E6", "E12"]),
        small_rat.map(lambda e: "eta^" + e),
    ),
    st.sampled_from(["E", "E-4", "E²", "E4.0", "eta^", "eta^x", "eta^1/0", "zeta", "", "E" + "9" * 40]),
    st.integers(-2, 120).map(lambda k: "E%d" % k),
)


def _mutated(rec: dict, key, value) -> dict:
    """rec with key dropped (value None), kept (value "keep") or set to value."""
    out = dict(rec)
    if value is None:
        out.pop(key, None)
    elif value != "keep":
        out[key] = value
    return out


junk_value = st.sampled_from([True, 1.5, None, [], {}, "x", "1/0", [1, "a"], -1, 7, 10**40, ["1/2"] * 8])
operator_record = st.builds(
    lambda roots, key, value: _mutated(unique_operator(roots).to_record(), key, value),
    st.sampled_from([[Fraction(0)], [Fraction(1, 12), Fraction(5, 12)], [Fraction(0), Fraction(1, 3), Fraction(2, 3)]]),
    st.sampled_from(["order", "weight", "alphas", "indicial_roots", "cusp_c", "extra"]),
    st.one_of(st.just("keep"), st.none(), junk_value),
).map(json.dumps)
series_record = st.builds(
    lambda key, value: json.dumps(_mutated(eisenstein(4, 3).to_record(), key, value)),
    st.sampled_from(["base_exponent", "coeffs", "precision", "grid_denominator"]),
    st.one_of(st.none(), junk_value),
)
operator_file = st.one_of(
    operator_record,
    series_record,
    st.sampled_from(["", "{", "[]", "null", "3", '{"order": 2}', '"text"', "\x00\xff", "[" * 5000]),
)


def flag(name, strategy, keep=True):
    """The (flag, value) pair: kept nine times in ten when keep, else one in
    ten; a value True is a switch."""
    value = _mostly(strategy, st.none()) if keep else _mostly(st.none(), strategy)
    return st.tuples(st.just(name), value)


def command(head, *flags):
    def build(*pairs):
        out = list(head)
        for name, value in pairs:
            if value is True:
                out.append(name)
            elif value is not None:
                # a value that starts with "-" would read as a flag
                out += [name + "=" + value] if value.startswith("-") else [name, value]
        return out

    fmt = flag("--format", _mostly(st.sampled_from(["json", "text"]), st.just("yaml")))
    return st.builds(build, *flags, flag("--precision", precision), fmt)


def operator_command(head):
    by_roots = command(head, flag("--roots", roots), flag("--cusp", rat, keep=False))
    by_file = command(
        head + ["--operator", OPERATOR],
        flag("--roots", roots, keep=False),
        flag("--cusp", rat, keep=False),
    )
    return _mostly(by_roots, by_file)


def rep_command(head):
    def build(dim, rs, extra):
        return [head, "--dim", dim, "--r", ",".join(str(r) for r in rs)] + extra

    dims = st.integers(1, 5).flatmap(
        lambda d: st.tuples(st.just(str(d)), st.lists(angle, min_size=d, max_size=d, unique=True))
    )
    odd = st.tuples(
        st.sampled_from(["0", "6", "-1", "four"]), st.lists(angle, max_size=6)
    )
    tables = st.sampled_from([
        ("4", [Fraction(1, 5), Fraction(11, 30), Fraction(8, 15), Fraction(9, 10)]),
        ("5", [Fraction(n, 12) for n in (1, 2, 3, 4, 5)]),
    ])
    rest = command(
        [],
        flag("--eta-weight", rat, keep=False),
        flag("--chi", st.sampled_from(["0", "1", "5", "11", "12", "-1", "x"]), keep=False),
        flag("--epsilon", _mostly(st.sampled_from(["1", "-1"]), st.just("0"))),
        flag("--assert-t-determined", st.just(True)),
    )
    return st.builds(lambda dr, extra: build(*dr, extra), _mostly(st.one_of(dims, tables), odd), rest)


argv = st.one_of(
    command(["forms"], flag("--series", series_name)),
    operator_command(["mmde", "construct"]),
    operator_command(["mmde", "solve"]),
    operator_command(["wronskian"]),
    rep_command("classify"),
    rep_command("verify-structure"),
    command(
        ["hp"],
        flag("--k0", rat),
        flag("--offsets", _mostly(st.lists(st.integers(0, 6).map(str), min_size=1, max_size=6).map(",".join), st.sampled_from(["a,b", "-1", ""]))),
        flag("--weight", rat),
    ),
    command(
        ["appendix"],
        flag("--exponents", _mostly(st.just("2/22,5/22,8/22,19/22,21/22"), roots)),
        flag("--c", st.lists(small_rat, min_size=1, max_size=3).map(",".join)),
    ),
    st.lists(st.sampled_from(["--help", "-h", "nope", "mmde", "forms", "--series", "E4", "--precision", "3"]), max_size=4),
)


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def operator_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_contract") / "operator.json"


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(args=argv, record=operator_file)
@example(args=["mmde", "construct", "--operator", OPERATOR], record="[" * 5000)
@example(args=["hp", "--k0", "0", "--offsets", "0", "--weight=--"], record="")
@example(args=["forms", "--series", "E4", "--precision=--"], record="")
@example(args=["forms", "--series", "E4", "--format=--"], record="")
@example(args=["appendix", "--exponents", "2/22,5/22,8/22,19/22,21/22", "--c", "0", "--precision=-" + "9" * 30], record="")
def test_cli_contract_holds_for_generated_argv(operator_path, args, record):
    operator_path.write_text(record, encoding="utf-8")
    args = [str(operator_path) if a == OPERATOR else a for a in args]
    rc, out, err = run(args)
    assert rc in (0, 2, 3), (args, rc)
    assert "Traceback" not in err
    if rc != 0:
        assert out == "", args
    assert run(args)[:2] == (rc, out), args
