"""Command line surface with deterministic JSON or text output.

Exit codes: 0 success, 2 precondition violation, 3 unsupported input class.
Every rational is emitted in reduced p/q form; re-parsing an emitted
document and re-emitting it reproduces the bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import forms, modstruct
from .classify import HpSeries, MultiplierSpec, RepInput, classification, hp_dimension
from .deriv import VvmfVector
from .errors import InternalCheckError, PreconditionError, UnsupportedInputError
from .frobenius import solve_fundamental_system
from .mmde import Mmde, unique_operator
from .qseries import QSeries, _rat
from .wronskian import wronskian_factorization

_MAX_CLI_ORDER = 6
_MAX_CLI_PRECISION = 200
_MAX_CLI_WEIGHT = 100
_MAX_CLI_DIGITS = 12  # of a numerator or denominator
_MAX_CLI_WRONSKIAN = 180  # order times precision


def _parse_rat_list(s: str):
    items = [x for x in s.split(",") if x != ""]
    if not items:
        raise PreconditionError("expected a comma-separated list of rationals")
    return [_rat(x) for x in items]


def _refuse_long_rationals(*values) -> None:
    """Exit 3 on a numerator or denominator of more than _MAX_CLI_DIGITS digits; None is skipped."""
    if any(x is not None and max(abs(x.numerator), x.denominator) >= 10**_MAX_CLI_DIGITS for x in values):
        raise UnsupportedInputError("rationals beyond %d digits are not supported" % _MAX_CLI_DIGITS)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, QSeries):
        return x.to_record()
    if isinstance(x, VvmfVector):
        return _jsonable({"weight": x.weight, "exponents": x.exponents, "components": x.components})
    return x


def _render_text(doc, indent=0, lines=None):
    out = lines if lines is not None else []
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                out.append("%s%s:" % (pad, k))
                _render_text(v, indent + 1, out)
            else:
                out.append("%s%s: %s" % (pad, k, v))
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                out.append("%s-" % pad)
                _render_text(v, indent + 1, out)
            else:
                out.append("%s- %s" % (pad, v))
    else:
        out.append("%s%s" % (pad, doc))
    return out


def _output(args) -> str:
    """The command's document, rendered.  The command runs under the limit on
    int-to-str digits of Python >= 3.10.7, so a digit string in an input past
    that limit is refused at once, not read in time quadratic in its length.
    The exact integers of the document can pass the limit, so it is lifted
    while they are rendered; the precision cap bounds their size."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        doc = args.fn(args)
    except ValueError as e:
        # a value derived from long inputs can pass the limit too; the
        # commands hand their rationals to _jsonable unconverted, so this is
        # text the library builds, such as an appendix report
        if "integer string conversion" not in str(e):
            raise
        raise UnsupportedInputError("a value beyond the interpreter's %d-digit limit" % limit) from e
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        doc = _jsonable(doc)
        return json.dumps(doc, indent=2) + "\n" if args.format == "json" else "\n".join(_render_text(doc)) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _series_by_name(name: str, precision: int) -> QSeries:
    if name == "delta":
        return forms.delta(precision)
    if name.startswith("eta^"):
        exponent = _rat(name[4:])
        _refuse_long_rationals(exponent)
        return forms.eta_power(exponent, precision)
    if name.startswith("E") and name[1:].isdecimal():
        # measured before int() reads them: int() raises on a digit string
        # past the interpreter's limit
        digits = name[1:].lstrip("0") or "0"
        if len(digits) > len(str(_MAX_CLI_WEIGHT)) or int(digits) > _MAX_CLI_WEIGHT:
            raise UnsupportedInputError("Eisenstein weight beyond %d is not supported" % _MAX_CLI_WEIGHT)
        return forms.eisenstein(int(digits), precision)
    raise PreconditionError(
        "unknown series %r; use E<k>, delta, or eta^<p/q>" % name
    )


def _operator_from_args(args) -> Mmde:
    if getattr(args, "operator", None):
        if getattr(args, "roots", None) is not None or getattr(args, "cusp", None) is not None:
            raise PreconditionError("--operator cannot be combined with --roots or --cusp")
        try:
            with open(args.operator, "r", encoding="utf-8") as fh:
                L = Mmde.from_record(json.load(fh))
        except (OSError, ValueError, RecursionError, PreconditionError) as e:
            raise PreconditionError("cannot read operator file %r: %r" % (args.operator, e)) from e
        if L.order > _MAX_CLI_ORDER:
            raise UnsupportedInputError("operators beyond order 6 are not supported")
        # stored indicial roots fix the weight and the alphas, which can be far longer
        _refuse_long_rationals(L.cusp_c, *((L.weight, *L.alphas) if L._roots is None else L._roots))
        return L
    if not getattr(args, "roots", None):
        raise PreconditionError("supply --roots or --operator")
    roots = args.roots
    if len(roots) > _MAX_CLI_ORDER:
        raise UnsupportedInputError("construction beyond order 6 is not supported")
    cusp = getattr(args, "cusp", None)
    _refuse_long_rationals(cusp, *roots)
    L = unique_operator(roots)
    if cusp is not None and cusp != 0:
        L = Mmde(L.order, L.weight, L.alphas, cusp_c=cusp, roots=L.indicial_roots)
    return L


def _multiplier_from_args(args) -> MultiplierSpec:
    return MultiplierSpec(args.eta_weight, args.chi)


def _cmd_forms(args) -> dict:
    s = _series_by_name(args.series, args.precision)
    return {"series": args.series, "precision": args.precision, "expansion": s}


def _cmd_mmde_construct(args) -> dict:
    L = _operator_from_args(args)
    return {"operator": L.to_record()}


def _cmd_mmde_solve(args) -> dict:
    L = _operator_from_args(args)
    F = solve_fundamental_system(L, args.precision)
    return {"operator": L.to_record(), "system": F}


def _cmd_wronskian(args) -> dict:
    L = _operator_from_args(args)
    if L.order * args.precision > _MAX_CLI_WRONSKIAN:
        raise UnsupportedInputError(
            "a Wronskian of order %d at precision %d is beyond the cap %d on order times precision"
            % (L.order, args.precision, _MAX_CLI_WRONSKIAN)
        )
    F = solve_fundamental_system(L, args.precision)
    expo, g, g_weight = wronskian_factorization(F)
    gamma = g.coefficient_at(Fraction(0))
    # no D^{n-1} term in L, so by Abel's identity W(F) is gamma eta^{24 e} at weight zero
    if g_weight != 0 or g != gamma * QSeries.one(g.precision):
        raise InternalCheckError("the Wronskian of a solved system is not a constant times an eta power")
    return {
        "operator": L.to_record(),
        "exponent_sum": expo,
        "g_weight": g_weight,
        "gamma": gamma,
        "g": g,
    }


def _cmd_classify(args) -> dict:
    m = _multiplier_from_args(args)
    rep = RepInput(args.dim, args.r, args.epsilon, m, args.assert_t_determined)
    h, branch = classification(rep)
    doc = {
        "k0": h.k0,
        "offsets": list(h.offsets),
        "numerator": h.numerator(),
        "dims": {h.k0 + 2 * kp: hp_dimension(h, h.k0 + 2 * kp) for kp in range(7)},
    }
    # the dimension 4 parity shows in the structure report only
    doc.update((k, v) for k, v in branch.items() if k != "parity")
    if args.dim >= 4:
        doc["assumption"] = (
            "T-determined: asserted by caller"
            if rep.t_determined_asserted
            else "T-determined: auto-set, no proper sub-multiset of angles sums to a multiple of 1/12"
        )
    return doc


def _cmd_hp(args) -> dict:
    h = HpSeries(args.k0, args.offsets)
    return {
        "k0": h.k0,
        "offsets": list(h.offsets),
        "numerator": h.numerator(),
        "weight": args.weight,
        "dim": hp_dimension(h, args.weight),
    }


def _cmd_appendix(args) -> dict:
    _refuse_long_rationals(*args.exponents, *args.c)
    return modstruct.appendix_demo(args.exponents, args.c, args.precision)


def _cmd_verify_structure(args) -> dict:
    _refuse_long_rationals(args.eta_weight, *args.r)
    m = _multiplier_from_args(args)
    rep = RepInput(args.dim, args.r, args.epsilon, m, args.assert_t_determined)
    return modstruct.structure(rep, args.precision)


def _add_common(p) -> None:
    p.add_argument("--precision", type=int, default=30)
    p.add_argument("--format", choices=("json", "text"), default="json")


def _add_operator_flags(p) -> None:
    p.add_argument("--roots", type=_parse_rat_list)
    p.add_argument("--cusp", type=_rat)
    p.add_argument("--operator")
    _add_common(p)


def _add_rep_flags(p) -> None:
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--r", type=_parse_rat_list, required=True)
    p.add_argument("--eta-weight", type=_rat, default=Fraction(0))
    p.add_argument("--chi", type=int, default=0)
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    p.add_argument("--assert-t-determined", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vvmf")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forms", help="classical q-expansions")
    p.add_argument("--series", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_forms)

    pm = sub.add_parser("mmde", help="operators and their solutions")
    msub = pm.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("construct", _cmd_mmde_construct), ("solve", _cmd_mmde_solve)):
        q = msub.add_parser(name)
        _add_operator_flags(q)
        q.set_defaults(fn=fn)

    p = sub.add_parser("wronskian", help="eta factorization of the wronskian")
    _add_operator_flags(p)
    p.set_defaults(fn=_cmd_wronskian)

    p = sub.add_parser("classify", help="minimal weight and generator offsets")
    _add_rep_flags(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("hp", help="graded dimension from minimal weight and offsets")
    p.add_argument("--k0", type=_rat, required=True)
    p.add_argument("--offsets", type=lambda s: [int(x) for x in s.split(",")], required=True)
    p.add_argument("--weight", type=_rat, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_hp)

    p = sub.add_parser("appendix", help="order-six one-parameter family checks")
    p.add_argument("--exponents", type=_parse_rat_list, required=True)
    p.add_argument("--c", type=_parse_rat_list, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_appendix)

    p = sub.add_parser("verify-structure", help="scripted structure verification")
    _add_rep_flags(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify_structure)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # argparse drops a "--" value, so --flag=-- leaves an unconverted []
        if [] in vars(args).values():
            raise PreconditionError("a flag was given the value '--'")
        if args.precision > _MAX_CLI_PRECISION:
            raise UnsupportedInputError("precision beyond %d is not supported" % _MAX_CLI_PRECISION)
        out = _output(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except UnsupportedInputError as e:
        sys.stderr.write("unsupported input: %s\n" % e)
        return 3
    except PreconditionError as e:
        sys.stderr.write("precondition violated: %s\n" % e)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
