"""Frobenius solutions of monic modular differential equations.

The operator is rewritten in powers of theta = q d/dq with holomorphic
q-series coefficients; each indicial root then seeds a power series solved
by the exact recursion ``qseries._recurrence``.  Roots congruent modulo 1
are rejected, so the recursion denominators never vanish.

The theta form.  With kappa = k/12, D_(k+2t) = theta - (t/6 + kappa) E_2,
and Ramanujan's identities 12 theta E_2 = E_2^2 - E_4, 3 theta E_4 = E_2 E_4
- E_6 and 2 theta E_6 = E_2 E_6 - E_4^2 keep every coefficient in the ring of
E_2, E_4 and E_6: 12^t D_k^t = sum_i Q_(t,i) theta^i, where Q_(t,i) is an
integer polynomial in k, of degree at most t - i, and in E_2, E_4 and E_6,
of weight 2(t - i).  So

    12^n H_i = Q_(n,i) + sum_l 12^l alpha_2l E_2l Q_(n-l,i),

plus 12^n c Delta at i = 0, is a combination of the monomials E_2^a E_4^b
E_6^c, times E_2l when l >= 4, with coefficients that are integer
polynomials in k and the alphas.  Only the coefficients depend on the
operator; the monomial series depend on the precision alone.

What is cached.  ``_theta_table(order)`` holds the integer coefficients of
one order, and no series; the monomial series are ``forms._monomial``'s.
A warm ``theta_form`` makes one sum per coefficient and no series product;
a cold one multiplies each monomial of two or more factors once, 13
products at order 5.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .classify import RationalAngle
from .deriv import VvmfVector
from .errors import CongruentRootsError, InternalCheckError, PreconditionError
from .forms import _monomial, delta
from .mmde import Mmde, indicial_polynomial
from .qseries import _ZERO, _check_precision, _lincomb, _numerators_at, _pair, _recurrence, _series, mul  # noqa: F401  (perfbench's tracer tests wrap this copy)


# 12 theta E_2l for l = 1, 2, 3 as (coefficient, factors) terms, by Ramanujan
_THETA_E = {1: ((1, (1, 1)), (-1, (2,))), 2: ((4, (1, 2)), (-4, (3,))), 3: ((6, (1, 3)), (-6, (2, 2)))}


@lru_cache(maxsize=None)
def _theta_table(n: int) -> tuple:
    """Row i of an order-n operator's table holds the (key, parts) terms of
    12^n k_d^n V H_i, for k = k_n / k_d and V the lcm of the alpha
    denominators: the key's monomial has the coefficient sum U_l k_n^j
    k_d^(n - j) x over its parts (l, j, x), with U_0 = V and U_l = 12^l V
    alpha_2l.  The cusp term is not in the table."""
    # qs[t][i] is Q_(t,i) as {key: coefficient}, with a factor 0 in the key
    # for each power of k, stepped by 12 D_(k+2t)(R theta^i) =
    # (12 theta R - (k + 2t) E_2 R) theta^i + 12 R theta^(i+1)
    qs = [[{(): 1}]]
    for t in range(n):
        new = [{} for _ in range(t + 2)]
        for i, r in enumerate(qs[-1]):
            for key, v in r.items():
                terms = [(i + 1, key, 12 * v), (i, key + (1,), -2 * t * v), (i, key + (0, 1), -v)]
                for l in set(key) - {0}:
                    rest = list(key)
                    rest.remove(l)
                    terms += [(i, (*rest, *f), key.count(l) * x * v) for x, f in _THETA_E[l]]
                for row, key, x in terms:
                    if x:
                        key = tuple(sorted(key))
                        new[row][key] = new[row].get(key, 0) + x
        qs.append(new)
    # part l = 0 is from Q_(n,i) and part l >= 2 from E_2l Q_(n-l,i)
    table = [{} for _ in range(n + 1)]
    for l in [0] + list(range(2, n + 1)):
        for i, r in enumerate(qs[n - l]):
            for key, x in r.items():
                j = key.count(0)
                mono = tuple(sorted(key[j:] + (l,))) if l else key[j:]
                table[i].setdefault(mono, []).append((l, j, x))
    return tuple(tuple((key, tuple(parts)) for key, parts in row.items()) for row in table)


def theta_form(L, precision: int) -> list:
    """Coefficients H_0..H_n with L = sum_i H_i(q) theta^i, each known to
    the requested precision."""
    if not isinstance(L, Mmde):
        raise PreconditionError("expected an operator")
    _check_precision(precision, 0)
    n, k = L.order, L.weight
    kn, kd = k.numerator, k.denominator
    ks = [kn**j * kd ** (n - j) for j in range(n + 1)]
    v = lcm(*[a.denominator for a in L.alphas])
    # us[l] is U_l of _theta_table; l = 1 has no part
    us = [v, 0] + [a.numerator * (v // a.denominator) * 12**l for l, a in enumerate(L.alphas, 2)]
    scale = (12 * kd) ** n * v
    out = []
    for i, row in enumerate(_theta_table(n)):
        terms = []
        for key, parts in row:
            c = sum([us[l] * ks[j] * x for l, j, x in parts])
            if c:
                nums, s = _pair(_monomial(key, precision))
                terms.append((c, (nums, s * scale), None, 0))
        if not i and L.cusp_c is not None:
            terms.append((L.cusp_c, _pair(delta(precision)), None, 1))
        out.append(_lincomb(_ZERO, precision, terms))
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
    _check_precision(precision, 1)
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
