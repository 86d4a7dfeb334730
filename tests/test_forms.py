"""Classical expansions: Eisenstein series, eta powers, the discriminant,
and graded-ring bases."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vvmf.qseries
from vvmf import (
    InternalCheckError,
    PreconditionError,
    QSeries,
    delta,
    eisenstein,
    eta_power,
    mspace_basis,
    mul,
    theta_form,
    unique_operator,
)
from vvmf import forms
from vvmf.forms import bernoulli
from vvmf.qseries import _series

from test_fused_expressions import count_calls, monomial_entries, theta_operators


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


def test_eisenstein_cache_returns_its_widest_entry(monkeypatch):
    monkeypatch.setattr(forms, "_WIDEST", {})
    assert eisenstein(4, 10) is eisenstein(4, 10)
    assert eisenstein(4, 6) == eisenstein(4, 10).truncated(6)
    assert eisenstein(4, 10) is forms._WIDEST[forms._eisenstein, 4]


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
        forms._delta(6)


def test_delta_expansion_and_cache(monkeypatch):
    monkeypatch.setattr(forms, "_WIDEST", {})
    d = delta(5)
    assert d.beta == 1
    assert d.coeffs == (1, -24, 252, -1472, 4830, -6048)
    assert delta(5) is d
    assert eta_power(24, 5) == d


def test_e2_checks_the_sieve_against_the_pentagonal_series(monkeypatch):
    # one corrupted term of the sieve's E_2 is refused
    def corrupt(beta, nums, scale):
        nums = list(nums)
        nums[-1] += 1
        return _series(beta, nums, scale)

    monkeypatch.setattr(forms, "_WIDEST", {})
    monkeypatch.setattr(forms, "_series", corrupt)
    with pytest.raises(InternalCheckError, match="E_2"):
        eisenstein(2, 9)


def test_e2_check_sees_the_weight_of_the_theta_g_term(monkeypatch):
    # 24 -> 12 in the (1 + 24 theta) g term of _e2_times: on g = [1] that term
    # is 1 at t = 0 alone, so only a g with a second term shows the mutant
    real = forms._e2_times

    def mutant(g, n_out):
        return [x - 12 * t * (g[t] if t < len(g) else 0) for t, x in enumerate(real(g, n_out))]

    assert mutant([1], 10) == real([1], 10)
    monkeypatch.setattr(forms, "_WIDEST", {})
    monkeypatch.setattr(forms, "_e2_times", mutant)
    with pytest.raises(InternalCheckError, match="E_2"):
        eisenstein(2, 9)


def test_form_caches_keep_one_entry_per_weight(monkeypatch):
    # ascending precisions rebuild each entry, and the second pass reads
    # truncations; each result is the series built at its own precision
    monkeypatch.setattr(forms, "_WIDEST", {})
    weights = range(2, 15, 2)
    for _ in range(2):
        for n in range(1, 121):
            for k in weights:
                assert eisenstein(k, n) == forms._eisenstein(k, n), (k, n)
            assert delta(n) == eta_power(24, n), n
    assert set(forms._WIDEST) == {(forms._eisenstein, k) for k in weights} | {(forms._delta,)}
    assert all(s.precision == 120 for s in forms._WIDEST.values())


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True, False, None])
def test_forms_refuse_a_precision_that_is_not_an_int(bad):
    calls = [
        lambda: eisenstein(4, bad),
        lambda: eta_power(1, bad),
        lambda: delta(bad),
        lambda: mspace_basis(12, bad),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="precision must be an integer"):
            call()


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


def power_ladder_expansions(weight: int, precision: int) -> list:
    """Reference expansions of mspace_basis: the E_4 and E_6 powers by
    repeated mul, then one product per monomial."""
    monomials = mspace_basis(weight, 0).monomials
    if not monomials:
        return []
    e4, e6 = trial_division_eisenstein(4, precision), trial_division_eisenstein(6, precision)
    e4_pows, e6_pows = [QSeries.one(precision)], [QSeries.one(precision)]
    for _ in range(max(a for a, _ in monomials)):
        e4_pows.append(mul(e4_pows[-1], e4))
    for _ in range(max(b for _, b in monomials)):
        e6_pows.append(mul(e6_pows[-1], e6))
    return [mul(e4_pows[a], e6_pows[b]) for a, b in monomials]


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_mspace_basis_matches_the_power_ladders(precisions):
    # from an empty cache, then warm: the second pass reads the entries
    # the first left at the largest precision drawn
    want = {n: [power_ladder_expansions(w, n) for w in range(0, 61, 2)] for n in set(precisions)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "_WIDEST", {})
        for _ in range(2):
            for n in precisions:
                assert [list(mspace_basis(w, n).expansions) for w in range(0, 61, 2)] == want[n], n


def test_mspace_basis_reads_the_theta_form_monomials(monkeypatch):
    # every monomial of weight <= 10 is an entry that an order-5 theta form
    # at the same precision already built
    monkeypatch.setattr(forms, "_WIDEST", {})
    real = vvmf.qseries.convolve
    calls = []
    monkeypatch.setattr(vvmf.qseries, "convolve", lambda *args: calls.append(args) or real(*args))
    n = 30
    theta_form(unique_operator([Fraction(2 * i + 1, 19) for i in range(5)]), n)
    assert len(calls) == 13
    calls.clear()
    for w in range(11):
        mspace_basis(w, n)
    assert calls == []


def test_form_cache_entries_after_the_theta_forms_and_bases(monkeypatch):
    # README quotes these counts; the entries do not depend on the precision
    monkeypatch.setattr(forms, "_WIDEST", {})
    for L in theta_operators():
        theta_form(L, 200)
    assert len(monomial_entries()) == 23
    assert len(forms._WIDEST) == 30
    for w in range(101):
        mspace_basis(w, 10)
    assert len(forms._WIDEST) == 257
