"""Exact rank and kernel computations over the rationals.

Rows are cleared to integers and reduced by fraction-free (Bareiss)
elimination, so all intermediate divisions are exact integer divisions.
Pivoting is deterministic: first nonzero entry in row order.  The
elimination works a column at a time, so rank reads no column past the one
where every row holds a pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_rows(rows) -> list[list[int]]:
    """Each row of ints and Fractions times the lcm of its denominators."""
    out = []
    for row in rows:
        scale = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _echelon(rows, ncols: int, stop: bool = False):
    """Bareiss forward elimination; returns (pivot rows, pivot columns).

    Column c is read from the integer rows and brought up to date by replaying
    every earlier pivot step on it alone, which is the same integer arithmetic
    as updating whole rows at each pivot.  With stop, no column is read once
    every row holds a pivot, and the pivot rows are cut there.
    """
    m = _integer_rows(rows)
    n = len(m)
    order = list(range(n))
    steps = []  # per pivot k: its column, pivot at k and multipliers below
    piv_cols = []
    done = []  # per column read: its entries in the pivot rows
    for c in range(ncols):
        r = len(steps)
        if stop and r == n:
            break
        v = [m[i][c] for i in order]
        prev = 1
        for k, s in enumerate(steps):
            p, a = s[k], v[k]
            for i in range(k + 1, n):
                v[i] = (p * v[i] - s[i] * a) // prev
            prev = p
        pr = next((i for i in range(r, n) if v[i]), None)
        if pr is not None:
            if pr != r:
                order[r], order[pr] = order[pr], order[r]
                for s in steps + [v]:
                    s[r], s[pr] = s[pr], s[r]
            steps.append(v)
            piv_cols.append(c)
            r += 1
        done.append(v[:r])
    ech = [[col[k] if k < len(col) else 0 for col in done] for k in range(len(steps))]
    return ech, piv_cols


def rank(rows, ncols: int) -> int:
    if not rows:
        return 0
    return len(_echelon(rows, ncols, stop=True)[1])


def kernel_vector(rows, ncols: int):
    """One deterministic kernel vector, first nonzero coordinate scaled to 1.

    Returns a list of Fractions, or None when the kernel is trivial.  The
    free coordinate chosen is the first non-pivot column.
    """
    if ncols == 0:
        return None
    if not rows:
        ech, piv = [], []
    else:
        ech, piv = _echelon(rows, ncols)
    free = [c for c in range(ncols) if c not in piv]
    if not free:
        return None
    x = [Fraction(0)] * ncols
    x[free[0]] = Fraction(1)
    for i in range(len(piv) - 1, -1, -1):
        c = piv[i]
        row = ech[i]
        s = Fraction(0)
        for j in range(c + 1, ncols):
            if x[j]:
                s += row[j] * x[j]
        x[c] = -s / row[c]
    lead = next(v for v in x if v != 0)
    return [v / lead for v in x]
