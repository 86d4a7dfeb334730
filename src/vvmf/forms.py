"""Classical level-one modular forms as exact q-expansions.

Eisenstein series, rational powers of the Dedekind eta function, the
discriminant form, and monomial bases of the graded ring generated by the
weight 4 and weight 6 Eisenstein series.  Those monomials and the ones of
``frobenius.theta_form`` share one cache with the Eisenstein series and the
discriminant, ``_WIDEST``: one entry each at the largest precision asked so
far, so its size grows with the weights asked, not with how many precisions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._kernel import _e2_times, _pentagonal
from .errors import InternalCheckError, PreconditionError
from .qseries import QSeries, _check_precision, _rat, _recurrence, _series, mul

_bernoulli: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2."""
    assert m >= 0
    while len(_bernoulli) <= m:
        n = len(_bernoulli)
        s = Fraction(0)
        for j in range(n):
            s += comb(n + 1, j) * _bernoulli[j]
        _bernoulli.append(-s / (n + 1))
    return _bernoulli[m]


_WIDEST = {}  # (build, *args) -> its series at the largest precision asked so far


def _widest(precision: int, build, *args) -> QSeries:
    """build(*args, precision) from one cache entry per (build, *args), kept
    at the largest precision asked so far: a smaller precision returns the
    entry's canonical truncation, a larger one rebuilds the entry."""
    key = (build, *args)
    s = _WIDEST.get(key)
    if s is None or s.precision < precision:
        s = _WIDEST[key] = build(*args, precision)
    return s.truncated(precision)


def _monomial(key: tuple, precision: int) -> QSeries:
    """The monomial prod_(l in key) E_2l through q^precision, for a sorted
    tuple key: a product is one cache entry, key[:-1]'s monomial times
    E_2key[-1]."""
    if len(key) < 2:
        return _widest(precision, _eisenstein, 2 * key[0]) if key else QSeries.one(precision)
    return _widest(precision, _product, key)


def _product(key: tuple, precision: int) -> QSeries:
    return mul(_monomial(key[:-1], precision), _monomial(key[-1:], precision))


def eisenstein(k: int, precision: int) -> QSeries:
    """Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, sigma from one divisor sieve."""
    # checked before the cache is read, so eisenstein(4.0, n) never reads E_4
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise PreconditionError("eisenstein weight must be an even integer >= 2")
    _check_precision(precision, 0)
    return _widest(precision, _eisenstein, k)


def _eisenstein(k: int, precision: int) -> QSeries:
    """E_k through q^precision from the sieve; E_2 is checked against 1 +
    24 theta(P)/P of Euler's pentagonal series P, times 1 + q so that the
    (1 + 24 theta) g term shows its 24 at step 1; a mismatch is fatal."""
    sigma = [0] * (precision + 1)
    for d in range(1, precision + 1):
        p = d ** (k - 1)
        for n in range(d, precision + 1, d):
            sigma[n] += p
    c = Fraction(-2 * k) / bernoulli(k)
    out = _series(Fraction(0), [c.denominator] + [c.numerator * s for s in sigma[1:]], c.denominator)
    if k == 2 and _e2_times([1, 1], precision + 1) != [x + y for x, y in zip(out.nums, (0,) + out.nums)]:
        raise InternalCheckError("E_2 mismatch between the divisor sieve and the pentagonal series")
    return out


def eta_power(exponent, precision: int) -> QSeries:
    """eta^e = q^(e/24) prod_{n>=1} (1-q^n)^e, truncated.

    The product part is known through q^precision, so the window top is
    e/24 + precision.  Rational and negative exponents are allowed.  The
    power g = f^e of the pentagonal series f follows J.C.P. Miller's
    recurrence m g_m = sum_k ((e+1)k - m) f_k g_{m-k} (Knuth, TAOCP 2, 4.7).
    """
    e = _rat(exponent)
    _check_precision(precision, 0)
    # With e + 1 = a/b, g_m = sum_k (a k - b m) f_k g_{m-k} / (b m), one
    # qseries._recurrence from g_0 = 1
    a, b = e.numerator + e.denominator, e.denominator
    f = _pentagonal(precision)

    def step(m, nums, _):
        if not m:
            return 1, 1
        return sum(sign * (a * k - b * m) * nums[m - k] for k, sign in f if k <= m), b * m

    nums, scale = _recurrence(precision + 1, step)
    return _series(e / 24, nums, scale)


def delta(precision: int) -> QSeries:
    """Discriminant form, checked against its two classical expressions.

    Computed as eta^24 and as (E_4^3 - E_6^2)/1728; a mismatch is fatal.
    The check runs once per new largest precision.
    """
    _check_precision(precision, 0)
    return _widest(precision, _delta)


def _delta(precision: int) -> QSeries:
    # E_4 and E_6 one step past the window, from the sieve and not the cache,
    # so their entries stay at the precisions callers ask and read no cut
    via_eta = eta_power(24, precision)
    e4 = _eisenstein(4, precision + 1)
    e6 = _eisenstein(6, precision + 1)
    via_eis = (e4 * e4 * e4 - e6 * e6) * Fraction(1, 1728)
    if via_eta != via_eis:
        raise InternalCheckError("delta mismatch between eta^24 and Eisenstein routes")
    return via_eta


class GradedFormBasis:
    """Monomial basis E_4^a E_6^b of one weight space of the graded ring."""

    def __init__(self, weight: int, monomials, expansions):
        self.weight = weight
        self.monomials = tuple(monomials)
        self.expansions = tuple(expansions)
        assert len(self.monomials) == len(self.expansions)

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)

    def __repr__(self) -> str:
        return "GradedFormBasis(weight=%r, monomials=%r)" % (self.weight, self.monomials)


def _classical_dimension(weight: int) -> int:
    if weight < 0 or weight % 2 != 0:
        return 0
    if weight % 12 == 2:
        return weight // 12
    return weight // 12 + 1


def mspace_basis(weight: int, precision: int) -> GradedFormBasis:
    """Basis of the weight space, monomials ordered by descending E_4 power.

    Odd or negative weights give the empty basis.
    """
    w = _rat(weight)
    if w.denominator != 1:
        raise PreconditionError("basis weight must be an integer")
    w = int(w)
    _check_precision(precision, 0)
    monomials = []
    if w >= 0 and w % 2 == 0:
        for a in range(w // 4, -1, -1):
            rem = w - 4 * a
            if rem % 6 == 0:
                monomials.append((a, rem // 6))
    if len(monomials) != _classical_dimension(w):
        raise InternalCheckError("monomial count disagrees with dimension formula")
    expansions = [_monomial((2,) * a + (3,) * b, precision) for a, b in monomials]
    return GradedFormBasis(w, monomials, expansions)
