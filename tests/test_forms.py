"""Classical expansions: Eisenstein series, eta powers, the discriminant,
and graded-ring bases."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from vvmf import InternalCheckError, PreconditionError, QSeries, delta, eisenstein, eta_power, mspace_basis, mul
from vvmf import forms
from vvmf.forms import bernoulli
from vvmf.qseries import _series

from test_fused_expressions import count_calls


def binomial_eta_power(exponent, precision: int) -> QSeries:
    """Reference eta^e: the product of the binomial series of (1 - q^n)^e,
    n = 1..precision, one series product per factor."""
    e = Fraction(exponent)
    prod = QSeries.one(precision)
    for n in range(1, precision + 1):
        factor_coeffs = [Fraction(0)] * (precision + 1)
        factor_coeffs[0] = Fraction(1)
        c = Fraction(1)
        for m in range(1, precision // n + 1):
            c = c * (e - m + 1) / m
            factor_coeffs[n * m] = c if m % 2 == 0 else -c
        prod = mul(prod, QSeries(0, factor_coeffs))
    return _series(e / 24, prod.nums, prod.scale)


def trial_division_eisenstein(k: int, precision: int) -> QSeries:
    """Reference E_k with each divisor sum sigma_{k-1}(n) by trial division."""
    factor = Fraction(-2 * k) / bernoulli(k)
    sigma = [sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0) for n in range(1, precision + 1)]
    return QSeries(0, [1] + [factor * s for s in sigma])


def test_bernoulli_numbers():
    want = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(5, 66),
        Fraction(0),
        Fraction(-691, 2730),
    ]
    assert [bernoulli(m) for m in range(13)] == want


def test_eisenstein_leading_coefficients():
    assert eisenstein(2, 3).coeffs == (1, -24, -72, -96)
    assert eisenstein(4, 3).coeffs == (1, 240, 2160, 6720)
    assert eisenstein(6, 3).coeffs == (1, -504, -16632, -122976)
    assert eisenstein(8, 2).coeffs == (1, 480, 61920)
    assert eisenstein(10, 1).coeffs == (1, -264)
    assert eisenstein(12, 1).coeffs == (1, Fraction(65520, 691))


def test_eisenstein_guards_and_cache():
    for bad in (0, 3, -2):
        with pytest.raises(PreconditionError):
            eisenstein(bad, 5)
    with pytest.raises(PreconditionError):
        eisenstein(4, -1)
    assert eisenstein(4, 10) is eisenstein(4, 10)


def test_eisenstein_cache_is_typed():
    eisenstein(4, 5)
    with pytest.raises(PreconditionError):
        eisenstein(4.0, 5)


def test_eisenstein_matches_trial_division():
    for k in range(2, 15, 2):
        for n in range(61):
            assert eisenstein(k, n) == trial_division_eisenstein(k, n), (k, n)


def test_eta_pentagonal_expansion():
    # Euler: prod (1-q^n) = 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    s = eta_power(1, 15)
    assert s.beta == Fraction(1, 24)
    want = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    assert list(s.coeffs) == want


def test_eta_power_window_and_inverse():
    s = eta_power(Fraction(-3, 2), 10)
    assert s.beta == Fraction(-1, 16)
    assert s.precision == 10
    inv = eta_power(Fraction(3, 2), 10)
    assert mul(s, inv) == QSeries.one(10)


ETA_EXPONENTS = [0, 1, -1, 24, -24, Fraction(1, 3), Fraction(-1, 3), Fraction(-7, 5), Fraction(31, 7), Fraction(1, 23)]


def test_eta_power_matches_binomial_products():
    for e in ETA_EXPONENTS:
        for n in range(41):
            assert eta_power(e, n) == binomial_eta_power(e, n), (e, n)


def test_eta_power_carries_no_content(monkeypatch):
    # the Miller recurrence keeps its running scale in lowest terms, so the
    # final content pass divides out nothing
    contents = []

    def spy(beta, nums, scale):
        contents.append(gcd(scale, *nums))
        return _series(beta, nums, scale)

    monkeypatch.setattr(forms, "_series", spy)
    rng = random.Random(20261018)
    exponents = ETA_EXPONENTS + [Fraction(rng.randrange(-72, 73), rng.randrange(1, 25)) for _ in range(40)]
    for e in exponents:
        for n in range(0, 121, 7):
            contents.clear()
            eta_power(e, n)
            assert contents == [1], (e, n)


def test_eta_power_makes_no_series_product(monkeypatch):
    counts = count_calls(monkeypatch)
    eta_power(Fraction(1, 3), 60)
    assert counts["convolve"] == 0 and counts["mul"] == 0


def test_delta_checks_its_two_routes(monkeypatch):
    monkeypatch.setattr(forms, "eta_power", lambda e, n: binomial_eta_power(e, n) * 2)
    with pytest.raises(InternalCheckError):
        delta.__wrapped__(6)


def test_delta_expansion_and_cache():
    d = delta(5)
    assert d.beta == 1
    assert d.coeffs == (1, -24, 252, -1472, 4830, -6048)
    assert delta(5) is d
    assert eta_power(24, 5) == d


def test_mspace_dimensions():
    dims = [len(mspace_basis(w, 4)) for w in range(0, 30, 2)]
    assert dims == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3]
    assert len(mspace_basis(-4, 4)) == 0
    assert len(mspace_basis(7, 4)) == 0


def test_mspace_monomial_order():
    b = mspace_basis(12, 6)
    assert b.monomials == ((3, 0), (0, 2))
    e4 = eisenstein(4, 6)
    assert b.expansions[0] == mul(mul(e4, e4), e4)
    b24 = mspace_basis(24, 4)
    assert b24.monomials == ((6, 0), (3, 2), (0, 4))
    assert b24.dim == 3


def test_mspace_weight_guards():
    with pytest.raises(PreconditionError):
        mspace_basis(Fraction(1, 2), 4)
    with pytest.raises(PreconditionError):
        mspace_basis(4, -1)
