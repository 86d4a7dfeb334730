"""Modular Wronskians and their eta-power factorization."""

from __future__ import annotations

from fractions import Fraction

import pytest

from vvmf import cli, wronskian
from vvmf import (
    FactorizationError,
    InternalCheckError,
    PrecisionError,
    PreconditionError,
    QSeries,
    VvmfVector,
    delta,
    eisenstein,
    modular_derivative,
    modular_wronskian,
    mul,
    solve_fundamental_system,
    unique_operator,
    wronskian_factorization,
)


def two_by_two(F):
    f0, f1 = F.components
    k = F.weight
    return mul(f0, modular_derivative(f1, k)) - mul(f1, modular_derivative(f0, k))


def test_wronskian_matches_manual_two_by_two():
    F = solve_fundamental_system(unique_operator([0, Fraction(1, 2)]), 12)
    assert (modular_wronskian(F) - two_by_two(F)).is_zero


def test_factorization_of_solved_system():
    # leading term of the 2x2 determinant is (r2 - r1) q^(r1 + r2), so the
    # quotient by eta^{24(r1+r2)} is the constant r2 - r1 at weight zero
    F = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(5, 12)]), 18)
    e, g, g_weight = wronskian_factorization(F)
    assert e == Fraction(1, 2)
    assert g_weight == 0
    assert (g - Fraction(1, 3) * QSeries.one(g.precision)).is_zero


def test_factorization_with_shifted_roots():
    op = unique_operator([Fraction(3, 2), Fraction(1, 3)])
    F = solve_fundamental_system(op, 18)
    e, g, g_weight = wronskian_factorization(F)
    assert e == Fraction(11, 6)
    assert g_weight == 2 * (2 + op.weight - 1) - 12 * e == 0
    assert (g - Fraction(7, 6) * QSeries.one(g.precision)).is_zero


def test_non_fundamental_vector_leaves_positive_weight():
    # multiplying a solved pair by E_4 doubles it in the determinant; the
    # cross terms cancel by the product rule and g becomes E_4^2 / 3
    F = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(5, 12)]), 18)
    G = F.times_form(eisenstein(4, 18), 4)
    e, g, g_weight = wronskian_factorization(G)
    assert e == Fraction(1, 2)
    assert g_weight == 4 * G.d
    e4 = eisenstein(4, 18)
    assert (g - Fraction(1, 3) * mul(e4, e4)).is_zero


@pytest.mark.parametrize("weight", [0.1, "1e5"])
def test_vector_weight_refuses_inexact_rationals(weight):
    with pytest.raises(PreconditionError):
        VvmfVector(weight, [QSeries.one(4)], (0,))
    assert VvmfVector("1/10", [QSeries.one(4)], (0,)).weight == Fraction(1, 10)


@pytest.mark.parametrize("weight", ["abc", "1/0", "1/2/3", ""])
def test_vector_weight_refuses_malformed_rational_text(weight):
    with pytest.raises(PreconditionError, match="cannot parse rational"):
        VvmfVector(weight, [QSeries.one(4)], (0,))


def test_wronskian_precision_guard():
    F = solve_fundamental_system(unique_operator([0, Fraction(1, 2)]), 12)
    with pytest.raises(PrecisionError):
        modular_wronskian(F.truncated(3))


def test_factorization_rejects_degenerate_systems():
    e4 = eisenstein(4, 8)
    dependent = VvmfVector(4, [e4, 2 * e4], (0, 0))
    with pytest.raises(PreconditionError):
        wronskian_factorization(dependent)
    with_zero = VvmfVector(4, [e4, QSeries.zero(8)], (0, 0))
    with pytest.raises(PreconditionError):
        wronskian_factorization(with_zero)


def test_factorization_flags_cusp_vanishing_quotient():
    # two independent components with the same leading term make the
    # determinant vanish to higher order than the exponent sum predicts
    e4 = eisenstein(4, 12)
    F = VvmfVector(4, [e4, e4 + delta(12)], (0, 0))
    with pytest.raises(FactorizationError):
        wronskian_factorization(F)


def test_factorization_constant_is_the_vandermonde_product():
    # permuted, rescaled and sign-flipped components: g(0) is the product of
    # the leading coefficients times prod_{i<j} (beta_j - beta_i)
    F = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(1, 6), Fraction(3, 4)]), 12)
    f0, f1, f2 = F.components
    b0, b1, b2 = Fraction(3, 4), Fraction(1, 12), Fraction(1, 6)
    G = VvmfVector(F.weight, [-3 * f2, f0, Fraction(2, 5) * f1], (b0, b1, b2))
    e, g, g_weight = wronskian_factorization(G)
    assert e == 1 and g_weight == 0
    gamma = -3 * Fraction(2, 5) * (b1 - b0) * (b2 - b0) * (b2 - b1)
    assert g == gamma * QSeries.one(g.precision)


@pytest.mark.parametrize("size", [2, 3])
def test_a_flipped_expansion_term_is_caught(monkeypatch, capsys, size):
    # flip the sign of the first term of every minor on `size` columns: the
    # Vandermonde check raises, where the CLI used to print a wrong cofactor
    real = wronskian._product_sum

    def flipped(terms):
        if len(terms) == size:
            (sign, a, b), *rest = terms
            terms = [(-sign, a, b), *rest]
        return real(terms)

    monkeypatch.setattr(wronskian, "_product_sum", flipped)
    F = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(1, 6), Fraction(3, 4)]), 20)
    with pytest.raises(InternalCheckError):
        wronskian_factorization(F)
    with pytest.raises(InternalCheckError):
        cli.main(["wronskian", "--roots", "1/12,1/6,3/4", "--precision", "20"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bend", [lambda g, w: (g + delta(g.precision), w), lambda g, w: (g, w + 2)])
def test_cli_wronskian_requires_a_constant_cofactor(monkeypatch, capsys, bend):
    real = cli.wronskian_factorization

    def bent(F):
        e, g, w = real(F)
        return (e, *bend(g, w))

    monkeypatch.setattr(cli, "wronskian_factorization", bent)
    with pytest.raises(InternalCheckError):
        cli.main(["wronskian", "--roots", "1/12,5/12", "--precision", "10"])
    assert capsys.readouterr().out == ""
