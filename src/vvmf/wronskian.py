"""Modular Wronskians of component tuples and their eta factorization.

The modular Wronskian stacks a vector with its iterated modular derivatives
and takes the exact determinant.  For a fundamental system with exponent
sum lambda + n it factors as eta^{24(lambda+n)} times a holomorphic form
that does not vanish at the cusp.

Theta rows.  With theta = q d/dq, D^i = theta^i + sum_{l<i} c_il(q) theta^l,
and the c_il depend only on the weight, which every column shares.  So row
operations turn det[D^i f_j] into W_theta(f) = det[theta^i f_j].  Along its
first two rows it expands (Laplace) as

    W_theta(f_U) = sum_{p<r} (-1)^(1+p+r) W_theta(f_up, f_ur) W_theta(theta^2 f_(U - {up, ur})),

and each 2 x 2 minor f_a theta(f_b) - f_b theta(f_a) is one weighted kernel
product (``qseries._theta_minor``).  Every minor is kept on its whole
window, from the exponent sum of its columns through n steps with leading
zeros kept, so each product is exact there and the determinant comes out on
the natural window [sum beta_j, sum beta_j + n], which is checked.  At
d = 3, 4, 5 that is 6, 18, 60 big products, against 9, 28, 75 and a
derivative ladder for the expansion of the derivative rows.

Which route.  On _generic input (nonzero components with distinct
exponents, none killed by D within d - 1 steps) the derivative-row
expansion has the natural window as well, so the two routes give == series.
Every other input keeps the derivative-row expansion, ``_ladder_wronskian``,
whose zero entries give shorter windows that callers see today.  That fork
is temporary: it goes when zero products get honest windows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from .deriv import VvmfVector, _ladder
from .errors import FactorizationError, InternalCheckError, PrecisionError, PreconditionError
from .forms import eta_power
from .qseries import QSeries, _content_free, _lincomb, _pair, _series, _sum, _theta, _theta_minor, mul

_PRECISION_MARGIN = 2


def modular_wronskian(F: VvmfVector) -> QSeries:
    """Determinant of the d x d matrix whose rows are F, DF, ..., D^{d-1}F."""
    d = F.d
    if F.precision < d + _PRECISION_MARGIN:
        raise PrecisionError(
            "wronskian needs component precision at least %d" % (d + _PRECISION_MARGIN)
        )
    if not _generic(F):  # temporary fork, see _ladder_wronskian
        return _ladder_wronskian(F)
    n, comps = F.precision, F.components
    cols = range(d)
    # minors[U] is the pair of W_theta(theta^s f_U) through step n, on the
    # exponent sum of U with leading zeros kept, for every |U| = d - s; the
    # shift s falls by 2 from the top, where |U| is 1 or 2
    for s in range(d - 1 - (d - 1) % 2, -1, -2):
        shifted = [_pair(f) for f in comps]
        for _ in range(s):
            shifted = [_theta(f.beta, g) for f, g in zip(comps, shifted)]
        if d - s == 1:
            minors = {(j,): shifted[j] for j in cols}
            continue
        pairs = {(a, b): _content_free(*_theta_minor(n, comps[a].beta, shifted[a], comps[b].beta, shifted[b]))
                 for a, b in combinations(cols, 2)}
        # Laplace along the first two rows: the 2 x 2 minor on the columns
        # p < r of U times the theta^2-shifted minor on the rest of U
        minors = pairs if d - s == 2 else {
            U: _content_free(*_sum(n, [((-1) ** (1 + p + r), pairs[U[p], U[r]], minors[U[:p] + U[p + 1 : r] + U[r + 1 :]], 0)
                                      for p, r in combinations(range(d - s), 2)]))
            for U in combinations(cols, d - s)}
    exponent = sum((f.beta for f in comps), Fraction(0))
    det = _series(exponent, *minors[tuple(cols)])
    # on _generic input the leading coefficient, prod c_j times the
    # Vandermonde product of the beta_j, is nonzero
    if (det.beta, det.precision) != (exponent, n):
        raise InternalCheckError("theta-row wronskian has window [%s, %s], not [%s, %s]"
                                 % (det.beta, det.window_top, exponent, exponent + n))
    return det


def _generic(F: VvmfVector) -> bool:
    """Whether every entry of the derivative rows keeps its component's
    exponent and window: nonzero components with distinct exponents, none of
    which D kills on the way (beta_j = (k + 2r)/12 for r < d - 1).  Then every
    minor of the ladder expansion starts at its exponent sum and knows its
    n steps, which is the window of the theta-row route."""
    comps = F.components
    exps = {f.beta for f in comps}
    killed = {F.weight + 2 * r for r in range(F.d - 1)}
    return not any(f.is_zero for f in comps) and len(exps) == F.d and killed.isdisjoint(12 * b for b in exps)


def _ladder_wronskian(F: VvmfVector) -> QSeries:
    """The expansion of the derivative rows, for inputs that are not _generic.
    Temporary: a zero entry there gives a zero product on a floored window,
    which the seed-1 benchmark digests pin; it goes when a zero product keeps
    the window its operands' exponents give it."""
    d = F.d
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
