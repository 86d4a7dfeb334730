"""Eisenstein-form operators, the root-determined construction, and residuals."""

from __future__ import annotations

from fractions import Fraction

import pytest

from vvmf import (
    Mmde,
    PreconditionError,
    QSeries,
    appendix_family,
    apply,
    delta,
    eisenstein,
    indicial_polynomial,
    unique_operator,
)
from vvmf.mmde import _theta_poly_constants

from test_deriv import derive_n, dkn_constants


def test_operator_guards():
    with pytest.raises(PreconditionError):
        Mmde(0, 4, ())
    with pytest.raises(PreconditionError):
        Mmde(True, 4, ())  # a bool is not an order
    with pytest.raises(PreconditionError):
        Mmde(3, 4, (1,))  # needs order-1 coefficients
    with pytest.raises(PreconditionError):
        Mmde("not an operator", 4, ())
    with pytest.raises(PreconditionError):
        Mmde(2, 2, (Fraction(-1, 48),), cusp_c=1)  # cusp term only at order 6
    with pytest.raises(PreconditionError):
        Mmde(2, 2, (Fraction(-1, 48),), roots=(Fraction(1, 12),))
    assert Mmde(2, 2, (Fraction(-1, 48),), cusp_c=None).cusp_c is None
    with pytest.raises(PreconditionError, match="expected an operator"):
        apply("x", eisenstein(4, 5))


def test_cusp_zero_collapses_to_none():
    assert Mmde(6, 0, (0, 0, 0, 0, 0), cusp_c=0).cusp_c is None
    assert Mmde(6, 0, (0, 0, 0, 0, 0), cusp_c=Fraction(2, 3)).cusp_c == Fraction(2, 3)


def test_unique_operator_order_two():
    op = unique_operator([Fraction(1, 12), Fraction(5, 12)])
    assert op.weight == 2
    assert op.alphas == (Fraction(-1, 48),)
    assert indicial_polynomial(op) == (Fraction(5, 144), Fraction(-1, 2))
    assert op.indicial_roots == (Fraction(1, 12), Fraction(5, 12))


def test_unique_operator_weight_formula():
    cases = [
        ([0, Fraction(1, 3), Fraction(2, 3)], 2),
        ([Fraction(1, 12), Fraction(1, 4)], 1),
        ([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)], 2),
    ]
    for roots, k in cases:
        op = unique_operator(roots)
        lam = sum(roots, Fraction(0))
        assert op.weight == k == Fraction(12) * lam / len(roots) + 1 - len(roots)


def test_unique_operator_permutation_invariant():
    roots = [Fraction(7, 10), Fraction(1, 5), Fraction(-1, 2), Fraction(9, 10)]
    a = unique_operator(roots)
    b = unique_operator(list(reversed(roots)))
    assert (a.order, a.weight, a.alphas) == (b.order, b.weight, b.alphas)
    assert a.indicial_roots == b.indicial_roots


def test_unique_operator_needs_a_root():
    with pytest.raises(PreconditionError):
        unique_operator([])


def test_indicial_roots_recovered_without_cache():
    roots = [0, Fraction(1, 4), Fraction(5, 6), Fraction(3, 2)]
    op = unique_operator(roots)
    fresh = Mmde(op.order, op.weight, op.alphas)
    assert fresh.indicial_roots == tuple(sorted(Fraction(r) for r in roots))


def test_irrational_indicial_roots_rejected():
    # indicial polynomial x^2 - 2: weight -1 with alpha_4 = -287/144
    op = Mmde(2, -1, (Fraction(-287, 144),))
    assert indicial_polynomial(op) == (Fraction(-2), Fraction(0))
    with pytest.raises(PreconditionError):
        op.indicial_roots


def test_record_round_trip():
    op = unique_operator([Fraction(1, 12), Fraction(5, 12)])
    rec = op.to_record()
    assert rec == {
        "order": 2,
        "weight": "2",
        "alphas": ["-1/48"],
        "indicial_roots": ["1/12", "5/12"],
    }
    back = Mmde.from_record(rec)
    assert (back.order, back.weight, back.alphas) == (op.order, op.weight, op.alphas)
    assert back.indicial_roots == op.indicial_roots

    fam = appendix_family([Fraction(n, 6) for n in range(1, 6)], Fraction(-3))
    rec2 = fam.to_record()
    assert rec2["cusp_c"] == "-3"
    back2 = Mmde.from_record(rec2)
    assert (back2.order, back2.weight, back2.alphas) == (fam.order, fam.weight, fam.alphas)
    assert back2.cusp_c == Fraction(-3)


def test_record_rejects_wrong_roots():
    rec = unique_operator([Fraction(1, 12), Fraction(5, 12)]).to_record()
    rec["indicial_roots"] = ["1/12", "7/12"]
    with pytest.raises(PreconditionError):
        Mmde.from_record(rec)
    rec["indicial_roots"] = ["1/12"]
    with pytest.raises(PreconditionError):
        Mmde.from_record(rec)


@pytest.mark.parametrize(
    "rec",
    [
        {"order": 3, "weight": "2", "alphas": "12"},
        {"order": 2, "weight": "1", "alphas": [True]},
        {"order": 2, "weight": "1", "alphas": [0.5]},
        {"a": 1},
        {"weight": "1", "alphas": ["0"]},
        {"order": 2, "alphas": ["0"]},
        {"order": 2, "weight": "x", "alphas": ["0"]},
        {"order": 2, "weight": True, "alphas": ["0"]},
        {"order": 2, "weight": "1", "alphas": ["1/0"]},
        {"order": 6, "weight": "0", "alphas": ["0"] * 5, "cusp_c": True},
        {"order": 2, "weight": "1", "alphas": ["0"], "indicial_roots": "1/12"},
        {"order": 2, "weight": "1", "alphas": ["0"], "indicial_roots": ["y", "1/4"]},
        ["order", 2],
    ],
    ids=[
        "string_alphas", "bool_alpha", "float_alpha", "unknown_key", "no_order", "no_weight",
        "bad_weight", "bool_weight", "zero_denominator", "bool_cusp", "string_roots", "bad_root",
        "not_a_dict",
    ],
)
def test_record_rejects_malformed(rec):
    with pytest.raises(PreconditionError):
        Mmde.from_record(rec)


def test_apply_annihilates_delta():
    op = unique_operator([1])
    assert op.weight == 12
    assert apply(op, delta(25)).is_zero


def test_apply_matches_direct_ladder():
    # residual of the Eisenstein-form operator on a non-solution is the
    # full combination, checked against an independent termwise assembly
    from vvmf import eisenstein, mul

    op = unique_operator([0, Fraction(1, 3), Fraction(2, 3)])
    f = eisenstein(4, 15)
    direct = derive_n(f, op.weight, 3)
    direct = direct + op.alphas[0] * mul(eisenstein(4, 15), derive_n(f, op.weight, 1))
    direct = direct + op.alphas[1] * mul(eisenstein(6, 15), f)
    assert apply(op, f) == direct
    assert not apply(op, f).is_zero


def test_apply_rejects_non_series():
    with pytest.raises(PreconditionError):
        apply(unique_operator([1]), "q")


def test_appendix_family_shape():
    lam = [Fraction(n, 6) for n in range(1, 6)]
    fam = appendix_family(lam, 0)
    assert fam.order == 6 and fam.weight == 0
    assert fam.cusp_c is None
    assert fam.alphas[-1] == 0
    assert fam.indicial_roots == tuple([Fraction(0)] + lam)
    factor = unique_operator(lam)
    assert fam.alphas[:-1] == factor.alphas
    # roots are frozen at construction, independent of the cusp deformation
    assert appendix_family(lam, 5).indicial_roots == fam.indicial_roots


def test_appendix_family_guards():
    with pytest.raises(PreconditionError):
        appendix_family([Fraction(1, 2)] * 4, 0)
    with pytest.raises(PreconditionError):
        appendix_family([0, 0, 0, 0, 1], 0)  # sum is not 5/2


def test_appendix_family_cusp_shift_on_constants():
    # the weight-0 ladder kills constants, so the residual on 1 is exactly c*Delta
    lam = [Fraction(n, 6) for n in range(1, 6)]
    one = QSeries.one(12)
    assert apply(appendix_family(lam, 0), one).is_zero
    residual = apply(appendix_family(lam, 1), one)
    assert (residual - delta(12)).is_zero


def probe_theta_poly_constants(m, k):
    """The indicial polynomial of D_k^m from probed constants: sum_j
    f_{m,j}(0) times the falling factorial (x)_j, with f_{m,m} = 1."""
    consts = list(dkn_constants(m, k)) + [Fraction(1)] if m else [Fraction(1)]
    poly = [Fraction(0)] * (m + 1)
    falling = [Fraction(1)]
    for j, c in enumerate(consts):
        for i, a in enumerate(falling):
            poly[i] += c * a
        falling = [Fraction(0)] + falling
        for i in range(len(falling) - 1):
            falling[i] -= j * falling[i + 1]
    return poly


@pytest.mark.parametrize("k", [0, 4, -3, Fraction(1, 2), Fraction(37, 35), Fraction(-11, 6)])
def test_theta_poly_constants_match_probe(k):
    prefixes = _theta_poly_constants(7, Fraction(k))
    assert len(prefixes) == 8
    for m in range(8):
        assert prefixes[m] == probe_theta_poly_constants(m, Fraction(k))
