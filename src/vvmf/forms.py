"""Classical level-one modular forms as exact q-expansions.

Eisenstein series, rational powers of the Dedekind eta function, the
discriminant form, and monomial bases of the graded ring generated by the
weight 4 and weight 6 Eisenstein series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import InternalCheckError, PreconditionError
from .qseries import QSeries, _rat, _recurrence, _series, mul

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


@lru_cache(maxsize=None, typed=True)  # typed: eisenstein(4.0, n) raises after eisenstein(4, n)
def eisenstein(k: int, precision: int) -> QSeries:
    """Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, sigma from one divisor sieve."""
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise PreconditionError("eisenstein weight must be an even integer >= 2")
    if precision < 0:
        raise PreconditionError("precision must be >= 0")
    sigma = [0] * (precision + 1)
    for d in range(1, precision + 1):
        p = d ** (k - 1)
        for n in range(d, precision + 1, d):
            sigma[n] += p
    c = Fraction(-2 * k) / bernoulli(k)
    return _series(Fraction(0), [c.denominator] + [c.numerator * s for s in sigma[1:]], c.denominator)


def _pentagonal(n: int) -> list:
    """The nonzero terms (m, sign) of prod_{j>=1} (1 - q^j) through q^n, m >= 1:
    by Euler's pentagonal theorem, sign (-1)^i at m = i(3i -+ 1)/2."""
    out, i = [], 1
    while i * (3 * i - 1) // 2 <= n:
        out += [(m, (-1) ** i) for m in (i * (3 * i - 1) // 2, i * (3 * i + 1) // 2) if m <= n]
        i += 1
    return out


def eta_power(exponent, precision: int) -> QSeries:
    """eta^e = q^(e/24) prod_{n>=1} (1-q^n)^e, truncated.

    The product part is known through q^precision, so the window top is
    e/24 + precision.  Rational and negative exponents are allowed.  The
    power g = f^e of the pentagonal series f follows J.C.P. Miller's
    recurrence m g_m = sum_k ((e+1)k - m) f_k g_{m-k} (Knuth, TAOCP 2, 4.7).
    """
    e = _rat(exponent)
    if precision < 0:
        raise PreconditionError("precision must be >= 0")
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


@lru_cache(maxsize=None, typed=True)
def delta(precision: int) -> QSeries:
    """Discriminant form, checked against its two classical expressions.

    Computed as eta^24 and as (E_4^3 - E_6^2)/1728; a mismatch is fatal.
    """
    via_eta = eta_power(24, precision)
    e4 = eisenstein(4, precision + 1)
    e6 = eisenstein(6, precision + 1)
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
    if precision < 0:
        raise PreconditionError("precision must be >= 0")
    monomials = []
    if w >= 0 and w % 2 == 0:
        for a in range(w // 4, -1, -1):
            rem = w - 4 * a
            if rem % 6 == 0:
                monomials.append((a, rem // 6))
    if len(monomials) != _classical_dimension(w):
        raise InternalCheckError("monomial count disagrees with dimension formula")
    if not monomials:
        return GradedFormBasis(w, (), ())
    max_a = max(a for a, _ in monomials)
    max_b = max(b for _, b in monomials)
    e4_pows = [QSeries.one(precision)]
    for _ in range(max_a):
        e4_pows.append(mul(e4_pows[-1], eisenstein(4, precision)))
    e6_pows = [QSeries.one(precision)]
    for _ in range(max_b):
        e6_pows.append(mul(e6_pows[-1], eisenstein(6, precision)))
    expansions = [mul(e4_pows[a], e6_pows[b]) for a, b in monomials]
    return GradedFormBasis(w, monomials, expansions)
