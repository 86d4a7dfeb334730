"""Frobenius solutions of monic modular differential equations.

The operator is rewritten in powers of theta = q d/dq with holomorphic
q-series coefficients; each indicial root then seeds a recursively solved
power series.  Roots congruent modulo 1 are rejected, so the recursion
denominators never vanish.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._kernel import convolve
from .classify import RationalAngle
from .deriv import VvmfVector
from .errors import CongruentRootsError, InternalCheckError, PreconditionError
from .forms import delta, eisenstein
from .mmde import Mmde, indicial_polynomial
from .qseries import _lincomb, _series, mul  # noqa: F401  (perfbench's tracer tests wrap this copy)


def theta_form(L, precision: int) -> list:
    """Coefficients H_0..H_n with L = sum_i H_i(q) theta^i, each known to
    the requested precision."""
    if not isinstance(L, Mmde):
        raise PreconditionError("expected an operator")
    if precision < 0:
        raise PreconditionError("precision must be >= 0")
    n, k = L.order, L.weight
    size = precision + 1
    e2 = eisenstein(2, precision)
    # prefixes[t] = (rows, scale) with D_k^t = sum_i (rows[i] / scale)(q) theta^i
    prefixes = [([[1] + [0] * precision], 1)]
    for t in range(n):
        w = Fraction(k + 2 * t, 12)
        a, b = w.numerator, w.denominator * e2.scale
        rows, scale = prefixes[-1]
        # row i of the next level: (b (rows[i-1] + theta rows[i]) - a E_2 rows[i]) / (scale b)
        new = [[b * u * x for u, x in enumerate(r)] for r in rows] + [[0] * size]
        for i, r in enumerate(rows):
            if a and any(r):
                new[i] = [x - a * y for x, y in zip(new[i], convolve(e2.nums, r, size))]
            new[i + 1] = [x + b * y for x, y in zip(new[i + 1], r)]
        prefixes.append((new, scale * b))
    rows, scale = prefixes[n]
    terms = [[(1, scale, 0, r)] for r in rows]
    for l in range(2, n + 1):
        alpha = L.alphas[l - 2]
        if alpha:
            el = eisenstein(2 * l, precision)
            part, s = prefixes[n - l]
            for i, r in enumerate(part):
                if any(r):
                    terms[i].append((alpha.numerator, alpha.denominator * el.scale * s, 0, convolve(el.nums, r, size)))
    if L.cusp_c is not None:
        dl = delta(precision)
        terms[0].append((L.cusp_c.numerator, L.cusp_c.denominator * dl.scale, 1, dl.nums))
    out = [_lincomb(Fraction(0), 1, precision, ts) for ts in terms]
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
    for i in range(d):
        for j in range(i + 1, d):
            if (roots[i] - roots[j]).denominator == 1:
                raise CongruentRootsError(
                    "indicial roots %s and %s differ by an integer" % (roots[i], roots[j])
                )
    hs = theta_form(L, precision)
    n = len(hs) - 1
    # ints[i][u] = C times the coefficient of q^u in H_i, with C the lcm of
    # the scales, read straight off the numerators at offset beta.
    c = lcm(*(h.scale for h in hs))
    ints = []
    for h in hs:
        off = int(h.beta)
        if h.den != 1 or off != h.beta or off < 0 or off + h.precision < precision:
            raise InternalCheckError("theta form left the integer grid or the window")
        m = c // h.scale
        ints.append([0] * off + [x * m for x in h.nums[: precision + 1 - off]])
    ind = indicial_polynomial(L)
    if [Fraction(row[0], c) for row in ints] != list(ind) + [Fraction(1)]:
        raise InternalCheckError("theta form constant terms disagree with indicial polynomial")

    # With lam = p/q, the shift value W(u, t) = C q^n sum_i H_i[u] (lam + t)^i
    # is an integer polynomial in x = p + q t, and C q^n cancels in
    # a_s = -sum_{t<s} a_t W(s-t, t) / W(0, s).  The recursion runs on
    # integers A_t over a running denominator M = prod W(0, s).
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

        nums = [1]
        m = 1
        for s in range(1, precision + 1):
            acc = 0
            for t, a in enumerate(nums):
                if a:
                    acc += a * w(s - t, t)
            den = w(0, s)
            if den == 0:
                raise InternalCheckError("recursion denominator vanished at a congruent shift")
            nums = [a * den for a in nums]
            nums.append(-acc)
            m *= den
        comps.append(_series(lam, 1, nums, m))
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
