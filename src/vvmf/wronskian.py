"""Modular Wronskians of component tuples and their eta factorization.

The modular Wronskian stacks a vector with its iterated modular derivatives
and takes the exact determinant.  For a fundamental system with exponent
sum lambda + n it factors as eta^{24(lambda+n)} times a holomorphic form
that does not vanish at the cusp.
"""

from __future__ import annotations

from fractions import Fraction

from .deriv import VvmfVector, derivative_vector
from ._kernel import convolve
from .errors import FactorizationError, PrecisionError, PreconditionError
from .forms import eta_power
from .qseries import QSeries, _lincomb, mul

_PRECISION_MARGIN = 2


def modular_wronskian(F: VvmfVector) -> QSeries:
    """Determinant of the d x d matrix whose rows are F, DF, ..., D^{d-1}F."""
    d = F.d
    if F.precision < d + _PRECISION_MARGIN:
        raise PrecisionError(
            "wronskian needs component precision at least %d" % (d + _PRECISION_MARGIN)
        )
    rows = [F]
    for _ in range(d - 1):
        rows.append(derivative_vector(rows[-1]))
    mat = [list(r.components) for r in rows]
    # determinant by expanding one row at a time over column subsets
    minors = {(j,): mat[0][j] for j in range(d)}
    for i in range(1, d):
        terms = {}
        for cols, minor in minors.items():
            if minor.is_zero:
                continue
            for j in range(d):
                if j in cols:
                    continue
                pos = sum(c < j for c in cols)
                key = cols[:pos] + (j,) + cols[pos:]
                sign = -1 if (len(cols) - pos) % 2 else 1
                terms.setdefault(key, []).append((sign, minor, mat[i][j]))
        minors = {key: _product_sum(ts) for key, ts in terms.items()}
        if not minors:
            break
    full = tuple(range(d))
    det = minors.get(full)
    if det is None:
        n = min(r.precision for r in rows)
        det = QSeries(sum(F.exponents, Fraction(0)), [Fraction(0)] * (n + 1))
    return det


def _product_sum(terms) -> QSeries:
    """sum sign * a * b over the (sign, a, b) of one minor, on the windows of mul
    and add (a zero product is QSeries.zero of the shorter precision), with one
    content pass.  The products of one minor share a coset, so lie whole steps apart."""
    top = min(min(a.precision, b.precision) + (0 if a.is_zero or b.is_zero else a.beta + b.beta) for _, a, b in terms)
    parts = [(sign, a, b) for sign, a, b in terms if not (a.is_zero or b.is_zero)]
    if not parts:
        return QSeries.zero(top)
    start = min(a.beta + b.beta for _, a, b in parts)
    return _lincomb(start, 1, (top - start).__floor__(), [
        (sign, a.scale * b.scale, int(a.beta + b.beta - start), convolve(a.nums, b.nums, min(len(a.nums), len(b.nums))))
        for sign, a, b in parts])


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
    exponent = Fraction(0)
    for f in F.components:
        if f.is_zero:
            raise PreconditionError("zero component, system is degenerate")
        exponent += f.beta
    w = modular_wronskian(F)
    if w.is_zero:
        raise PreconditionError("wronskian vanishes, components are dependent")
    g = mul(w, eta_power(-24 * exponent, w.precision))
    g_weight = d * (d + k - 1) - 12 * exponent
    if g.beta != 0:
        raise FactorizationError(
            "quotient vanishes at the cusp; exponent sum does not match the wronskian order"
        )
    return exponent, g, g_weight
