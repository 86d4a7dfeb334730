"""Theta-form rewriting and Frobenius fundamental systems."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from vvmf import frobenius
from vvmf import (
    CongruentRootsError,
    PreconditionError,
    QSeries,
    RationalAngle,
    VvmfVector,
    appendix_family,
    apply,
    delta,
    eisenstein,
    indicial_polynomial,
    monodromy_T,
    solve_fundamental_system,
    theta_form,
    unique_operator,
)


def reference_solve(L, precision):
    """Frobenius recursion in Fractions: Horner's rule on every shift and
    one exact division per coefficient."""
    roots = sorted(L.indicial_roots)
    hs = theta_form(L, precision)
    n = len(hs) - 1
    table = [[hs[i].coefficient_at(Fraction(u)) for u in range(precision + 1)] for i in range(n + 1)]

    def poly_q(u, x):
        acc = Fraction(0)
        for i in range(n, -1, -1):
            acc = acc * x + table[i][u]
        return acc

    comps = []
    for lam in roots:
        a = [Fraction(1)]
        for s in range(1, precision + 1):
            acc = Fraction(0)
            for t in range(s):
                if a[t]:
                    acc += a[t] * poly_q(s - t, lam + t)
            a.append(-acc / poly_q(0, lam + s))
        comps.append(QSeries(lam, a))
    return comps


def test_theta_form_order_one():
    op = unique_operator([1])
    hs = theta_form(op, 8)
    assert len(hs) == 2
    assert hs[1] == QSeries.one(8)
    assert hs[0] == Fraction(-1) * eisenstein(2, 8)


def test_theta_form_constant_terms_are_indicial():
    op = unique_operator([Fraction(1, 12), Fraction(5, 12)])
    hs = theta_form(op, 6)
    consts = tuple(h.coefficient_at(Fraction(0)) for h in hs)
    assert consts == indicial_polynomial(op) + (Fraction(1),)


def test_theta_form_cusp_term_lands_in_h0():
    lam = [Fraction(n, 6) for n in range(1, 6)]
    plain = theta_form(appendix_family(lam, 0), 6)
    shifted = theta_form(appendix_family(lam, 7), 6)
    assert (shifted[0] - plain[0] - 7 * delta(6)).is_zero
    for i in range(1, 7):
        assert shifted[i] == plain[i]


def test_theta_form_guards():
    op = unique_operator([1])
    with pytest.raises(PreconditionError):
        theta_form(op, -1)
    with pytest.raises(PreconditionError):
        theta_form("not an operator", 5)


def test_solve_weight_twelve_gives_delta():
    F = solve_fundamental_system(unique_operator([1]), 20)
    assert F.weight == 12 and F.d == 1
    assert F.exponents == (Fraction(0),)
    assert F.components[0] == delta(20)


def test_solve_ordering_normalization_and_residual():
    op = unique_operator([Fraction(3, 2), Fraction(1, 3)])
    F = solve_fundamental_system(op, 18)
    roots = op.indicial_roots
    assert roots == (Fraction(1, 3), Fraction(3, 2))
    for f, r in zip(F.components, roots):
        assert f.beta == r
        assert f.coefficient_at(r) == 1
        assert apply(op, f).is_zero
    assert F.exponents == (Fraction(1, 3), Fraction(1, 2))
    assert F.weight == op.weight == 10


def test_solve_default_precision_scales_with_order():
    F = solve_fundamental_system(unique_operator([1]))
    assert F.precision == 10
    G = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(5, 12)]))
    assert G.precision == 20


def test_solve_rejects_congruent_roots():
    with pytest.raises(CongruentRootsError):
        solve_fundamental_system(unique_operator([Fraction(1, 4), Fraction(5, 4)]))
    with pytest.raises(CongruentRootsError):
        solve_fundamental_system(unique_operator([0, 1]))


def test_solve_refuses_a_negative_root_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("theta form computed for a negative root")

    monkeypatch.setattr(frobenius, "theta_form", refuse)
    for roots in ([Fraction(-13, 23)], [Fraction(12, 5), Fraction(-13, 23)], [-1, Fraction(1, 3)]):
        with pytest.raises(PreconditionError, match="solve_fundamental_system: indicial root -"):
            solve_fundamental_system(unique_operator(roots), 10)


def test_solve_carries_no_content(mmde_corpus, monkeypatch):
    # each recursion step keeps the running denominator in lowest terms, so
    # the final content pass of every component divides out nothing
    contents = []

    def spy(beta, nums, scale):
        contents.append(gcd(scale, *nums))
        return _series(beta, nums, scale)

    _series = frobenius._series
    monkeypatch.setattr(frobenius, "_series", spy)
    for _, L in mmde_corpus:
        solve_fundamental_system(L, 30)
    assert len(contents) == sum(L.order for _, L in mmde_corpus)
    assert set(contents) == {1}


def test_solve_precision_guard():
    with pytest.raises(PreconditionError):
        solve_fundamental_system(unique_operator([1]), 0)


def test_monodromy_angles():
    op = unique_operator([Fraction(3, 2), Fraction(1, 3)])
    F = solve_fundamental_system(op, 8)
    assert monodromy_T(F) == (RationalAngle(Fraction(1, 3)), RationalAngle(Fraction(1, 2)))


def test_monodromy_rejects_zero_component():
    V = VvmfVector(2, [QSeries.zero(5)], (Fraction(0),))
    with pytest.raises(PreconditionError):
        monodromy_T(V)


def test_solve_matches_fraction_recursion(mmde_corpus):
    ops = [L for _, L in mmde_corpus[:20]]
    assert {L.order for L in ops} == {2, 3, 4, 5}
    exps = [Fraction(n, 22) for n in (2, 5, 8, 19, 21)]
    ops.append(appendix_family(exps, Fraction(-7, 3)))
    ops.append(unique_operator([Fraction(1, 5), Fraction(1, 7)]))
    assert ops[-1].weight.denominator != 1
    for L in ops:
        F = solve_fundamental_system(L, 30)
        assert list(F.components) == reference_solve(L, 30)
