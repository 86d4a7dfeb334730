"""Modular Wronskians of component tuples and their eta factorization.

The modular Wronskian stacks a vector with its iterated modular derivatives
and takes the exact determinant.  For a fundamental system with exponent
sum lambda + n it factors as eta^{24(lambda+n)} times a holomorphic form
that does not vanish at the cusp.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from .deriv import VvmfVector, _ladder
from .errors import FactorizationError, InternalCheckError, PrecisionError, PreconditionError
from .forms import eta_power
from .qseries import QSeries, _lincomb, _pair, mul

_PRECISION_MARGIN = 2


def modular_wronskian(F: VvmfVector) -> QSeries:
    """Determinant of the d x d matrix whose rows are F, DF, ..., D^{d-1}F."""
    d = F.d
    if F.precision < d + _PRECISION_MARGIN:
        raise PrecisionError(
            "wronskian needs component precision at least %d" % (d + _PRECISION_MARGIN)
        )
    rows = _ladder(F, d - 1)
    mat = [r.components for r in rows]
    # the minor of the first len(S) rows on each column subset S, expanded
    # along its last row; None marks a minor with no nonzero term
    minors = {(j,): f for j, f in enumerate(mat[0])}
    for i in range(1, d):
        minors = {S: _product_sum([((-1) ** (i - p), minors[S[:p] + S[p + 1 :]], mat[i][j]) for p, j in enumerate(S)])
                  for S in combinations(range(d), i + 1)}
    det = minors[tuple(range(d))]
    if det is None:
        n = min(r.precision for r in rows)
        det = QSeries(sum(F.exponents, Fraction(0)), [Fraction(0)] * (n + 1))
    return det


def _product_sum(terms):
    """sum sign * a * b over the (sign, a, b) of one minor whose a is neither None nor zero, None if
    there is none; on the windows of mul and add (a zero product is QSeries.zero of the shorter
    precision), with one content pass.  The products share a coset, so lie whole steps apart."""
    terms = [(sign, a, b) for sign, a, b in terms if a is not None and not a.is_zero]
    if not terms:
        return None
    top = min(min(a.precision, b.precision) + (0 if b.is_zero else a.beta + b.beta) for _, a, b in terms)
    parts = [(sign, a, b) for sign, a, b in terms if not b.is_zero]
    if not parts:
        return QSeries.zero(top)
    start = min(a.beta + b.beta for _, a, b in parts)
    return _lincomb(start, (top - start).__floor__(), [
        (sign, _pair(a), _pair(b), int(a.beta + b.beta - start)) for sign, a, b in parts])


def weight_lower_bound(d: int, lam, n):
    """Minimal possible weight 12(lam+n)/d + 1 - d for a d-dimensional system
    with exponent sum lam + n."""
    if not isinstance(d, int) or d < 1:
        raise PreconditionError("dimension must be an integer >= 1")
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("shift total must be an integer >= 0")
    lam = Fraction(lam)
    return Fraction(12) * (lam + n) / d + 1 - d


def wronskian_factorization(F: VvmfVector):
    """Factor the modular Wronskian as eta^{24 e} g.

    Returns (e, g, weight of g) where e is the sum of the leading exponents
    of the components and g is holomorphic with nonzero constant term.
    Linearly dependent components are rejected.
    """
    d, k = F.d, F.weight
    if any(f.is_zero for f in F.components):
        raise PreconditionError("zero component, system is degenerate")
    exponent = sum((f.beta for f in F.components), Fraction(0))
    w = modular_wronskian(F)
    if w.is_zero:
        raise PreconditionError("wronskian vanishes, components are dependent")
    g = mul(w, eta_power(-24 * exponent, w.precision))
    g_weight = d * (d + k - 1) - 12 * exponent
    if g.beta != 0:
        raise FactorizationError(
            "quotient vanishes at the cusp; exponent sum does not match the wronskian order"
        )
    # second route: row i leads with c_j times a monic degree-i polynomial in
    # beta_j, so g(0) is prod c_j times the Vandermonde product of the beta_j
    lead = [(Fraction(f.nums[0], f.scale), f.beta) for f in F.components]
    gamma = prod(c for c, _ in lead) * prod(bj - bi for (_, bi), (_, bj) in combinations(lead, 2))
    if g.coefficient_at(0) != gamma:
        raise InternalCheckError("wronskian constant %s is not the Vandermonde product %s" % (g.coefficient_at(0), gamma))
    return exponent, g, g_weight
