"""Modular Wronskians and their eta-power factorization."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf import cli, eta_power, wronskian
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


def leibniz_theta_rows(F):
    """det[theta^i f_j] by the Leibniz formula on Fraction coefficient lists:
    every term is a product of one entry per column, so it starts at the
    exponent sum; returns that sum and the coefficients through F.precision."""
    d, n = F.d, F.precision
    rows = [[[(f.beta + t) ** i * c for t, c in enumerate(f.coeffs)] for f in F.components] for i in range(d)]
    det = [Fraction(0)] * (n + 1)
    for perm in permutations(range(d)):
        sign = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = [Fraction(sign)] + [Fraction(0)] * n
        for i, j in enumerate(perm):
            term = [sum(term[u] * rows[i][j][t - u] for u in range(t + 1)) for t in range(n + 1)]
        det = [x + y for x, y in zip(det, term)]
    return sum((f.beta for f in F.components), Fraction(0)), det


@pytest.mark.parametrize("order", [3, 4])
def test_theta_row_condensation_matches_the_leibniz_determinant(solved_corpus, order):
    # the quotients of the condensation start at order 3
    systems = [F.truncated(14) for roots, L, F in solved_corpus if len(roots) == order][:6]
    assert len(systems) == 6
    for F in systems:
        beta, det = leibniz_theta_rows(F)
        w = modular_wronskian(F)
        assert (w.beta, w.coeffs) == (beta, tuple(det))


@st.composite
def integer_pair_columns(draw):
    """A _generic vector of d = 2..5 columns given as integer pairs (nums,
    scale), on the distinct cosets j/7 + Z, so no derivative kills one; the
    scales carry powers of 2, 3 and 7, the primes the rescale looks at."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d + 2, d + 4))
    cosets = draw(st.permutations(range(1, 7)))[:d]
    comps = []
    for j in cosets:
        beta = Fraction(j, 7) + draw(st.integers(0, 2))
        nums = [draw(st.integers(-50, 50).filter(bool))] + draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
        scale = 2 ** draw(st.integers(0, 40)) * 3 ** draw(st.integers(0, 20)) * 7 ** draw(st.integers(0, 10)) * draw(st.integers(1, 99))
        comps.append(QSeries(beta, [Fraction(x, scale) for x in nums]))
    return VvmfVector(0, comps, [f.beta for f in comps])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(integer_pair_columns(), st.integers(1, 10**9))
def test_condensation_in_the_variable_kq_is_exact_for_every_k(F, k):
    # q -> Kq commutes with theta, so every K undoes to the same determinant
    beta, det = leibniz_theta_rows(F)
    expected = wronskian._condensed(F, 1)
    assert (expected.beta, expected.coeffs) == (beta, tuple(det))
    for K in (2, 6, 12**5, k, wronskian._rescale_base(F)):
        assert wronskian._condensed(F, K) == expected
    assert modular_wronskian(F) == expected


def test_rescale_base_reads_only_the_columns():
    # eta powers have integer coefficients: nothing to rescale
    etas = [eta_power(r, 20) for r in (1, 2, 5, 7)]
    assert wronskian._rescale_base(VvmfVector(0, etas, [f.beta for f in etas])) == 1
    # a seed-1 benchmark pool system of order 5: the scales grow like 5^(9t)
    roots = [Fraction(5, 3), 0, Fraction(23, 20), Fraction(4, 3), Fraction(2, 5)]
    F = solve_fundamental_system(unique_operator(roots), 24)
    K = wronskian._rescale_base(F)
    assert K == 5**9
    # the same columns give the same K, in any order and as new objects
    comps = [QSeries(f.beta, f.coeffs) for f in reversed(F.components)]
    assert wronskian._rescale_base(VvmfVector(F.weight, comps, [f.beta for f in comps])) == K
    assert wronskian._condensed(F, K) == wronskian._condensed(F, 1)


def test_three_digit_denominators_give_the_vandermonde_cofactor():
    # README's order-6 cap roots: the largest K that a capped input reaches
    roots = [Fraction(1, q) for q in (777, 779, 781, 783, 785, 787)]
    F = solve_fundamental_system(unique_operator(roots), 12)
    K = wronskian._rescale_base(F)
    assert K.bit_length() > 256
    assert wronskian._condensed(F, K) == wronskian._condensed(F, 1)
    # normalized components on the sorted roots, so gamma is their Vandermonde
    assert [(f.beta, f.coeffs[0]) for f in F.components] == [(r, 1) for r in sorted(roots)]
    gamma = prod(b - a for a, b in combinations(sorted(roots), 2))
    e, g, g_weight = wronskian_factorization(F)
    assert (e, g_weight) == (sum(roots), 0)
    assert g == gamma * QSeries.one(g.precision)


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
