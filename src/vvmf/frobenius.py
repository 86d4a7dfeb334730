"""Frobenius solutions of monic modular differential equations.

The operator is rewritten in powers of theta = q d/dq with holomorphic
q-series coefficients; each indicial root then seeds a power series solved
by the exact recursion ``qseries._recurrence``.  Roots congruent modulo 1
are rejected, so the recursion denominators never vanish.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .classify import RationalAngle
from .deriv import VvmfVector, _derive
from .errors import CongruentRootsError, InternalCheckError, PreconditionError
from .forms import delta, eisenstein
from .mmde import Mmde, indicial_polynomial
from .qseries import _ZERO, QSeries, _lincomb, _numerators_at, _pair, _recurrence, _series, mul  # noqa: F401  (perfbench's tracer tests wrap this copy)


def theta_form(L, precision: int) -> list:
    """Coefficients H_0..H_n with L = sum_i H_i(q) theta^i, each known to
    the requested precision."""
    if not isinstance(L, Mmde):
        raise PreconditionError("expected an operator")
    if precision < 0:
        raise PreconditionError("precision must be >= 0")
    n, k = L.order, L.weight
    # prefixes[t][i] is the pair of the coefficient of theta^i in D_k^t, stepped
    # by D(r theta^i) = D(r) theta^i + r theta^(i+1); the top coefficient stays 1
    zero = _pair(QSeries.zero(0))
    prefixes = [[_pair(QSeries.one(precision))]]
    for t in range(n):
        rows = prefixes[-1]
        derived = [_derive(_ZERO, r, k + 2 * t, (1, prev, None, 0)) for r, prev in zip(rows, [zero] + rows)]
        prefixes.append(derived + rows[-1:])
    terms = [[(1, r, None, 0)] for r in prefixes[n]]
    for l in range(2, n + 1):
        el = _pair(eisenstein(2 * l, precision))
        for i, r in enumerate(prefixes[n - l]):
            terms[i].append((L.alphas[l - 2], el, r, 0))
    if L.cusp_c is not None:
        terms[0].append((L.cusp_c, _pair(delta(precision)), None, 1))
    out = [_lincomb(_ZERO, precision, ts) for ts in terms]
    if not (out[n].beta == 0 and out[n].coefficient_at(Fraction(0)) == 1):
        raise InternalCheckError("theta form lost monicity")
    return out


def solve_fundamental_system(L, precision=None) -> VvmfVector:
    """Fundamental system of L as a vector of normalized Frobenius series.

    Components are ordered by increasing indicial root; each leading
    coefficient is 1.  Recorded exponents are the root cosets reduced to
    [0, 1).  Default precision is 10 times the order.
    """
    roots = sorted(L.indicial_roots)
    d = L.order
    if precision is None:
        precision = 10 * d
    if precision < 1:
        raise PreconditionError("precision must be >= 1")
    if roots[0] < 0:
        raise PreconditionError(
            "solve_fundamental_system: indicial root %s is negative, below its recorded exponent in [0, 1)"
            % roots[0]
        )
    for i in range(d):
        for j in range(i + 1, d):
            if (roots[i] - roots[j]).denominator == 1:
                raise CongruentRootsError(
                    "indicial roots %s and %s differ by an integer" % (roots[i], roots[j])
                )
    hs = theta_form(L, precision)
    n = len(hs) - 1
    # ints[i][u] = C times the coefficient of q^u in H_i, with C the lcm of
    # the scales
    if any(h.beta.denominator != 1 or h.beta < 0 or h.window_top < precision for h in hs):
        raise InternalCheckError("theta form left the integer grid or the window")
    c = lcm(*(h.scale for h in hs))
    ints = [_numerators_at(h, 0, precision + 1, c) for h in hs]
    ind = indicial_polynomial(L)
    if [Fraction(row[0], c) for row in ints] != list(ind) + [Fraction(1)]:
        raise InternalCheckError("theta form constant terms disagree with indicial polynomial")

    # With lam = p/q, the shift value W(u, t) = C q^n sum_i H_i[u] (lam + t)^i
    # is an integer polynomial in x = p + q t, and C q^n cancels in
    # a_s = -sum_{t<s} a_t W(s-t, t) / W(0, s), one qseries._recurrence
    # from a_0 = 1.
    comps = []
    for lam in roots:
        p, q = lam.numerator, lam.denominator
        rows = [[ints[i][u] * q ** (n - i) for i in range(n, -1, -1)] for u in range(precision + 1)]

        def w(u, t):
            x = p + q * t
            acc = 0
            for v in rows[u]:
                acc = acc * x + v
            return acc

        def step(s, nums, _):
            if not s:
                return 1, 1
            den = w(0, s)
            if den == 0:
                raise InternalCheckError("recursion denominator vanished at a congruent shift")
            return -sum([a * w(s - t, t) for t, a in enumerate(nums) if a]), den

        comps.append(_series(lam, *_recurrence(precision + 1, step)))
    exps = [lam - lam.__floor__() for lam in roots]
    return VvmfVector(L.weight, comps, exps)


def monodromy_T(F: VvmfVector) -> tuple:
    """Leading-exponent angles of the components, reduced modulo 1."""
    out = []
    for f in F.components:
        if f.is_zero:
            raise PreconditionError("zero component has no leading exponent")
        out.append(RationalAngle(f.beta))
    return tuple(out)
