"""Exact rank and kernel computations over the rationals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from vvmf import linalg


def reference_echelon(rows, ncols):
    """Right-looking Bareiss elimination: every pivot updates every later
    column of every row below it.  Returns (pivot rows, pivot columns)."""
    m = linalg._integer_rows(rows)
    piv_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        for i in range(r + 1, len(m)):
            a = m[i][c]
            mi, mr = m[i], m[r]
            for j in range(c, ncols):
                mi[j] = (p * mi[j] - a * mr[j]) // prev
        prev = p
        piv_cols.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], piv_cols


def naive_rank(rows, ncols):
    """Straightforward fraction Gaussian elimination, as an oracle."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / prow[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def test_rank_basics():
    assert linalg.rank([], 3) == 0
    assert linalg.rank([[1, 0], [0, 1]], 2) == 2
    assert linalg.rank([[1, 2], [2, 4]], 2) == 1
    assert linalg.rank([[0, 0], [0, 0]], 2) == 0
    assert linalg.rank([[Fraction(1, 3), Fraction(1, 6)]], 2) == 1


def test_rank_matches_naive_elimination():
    rng = random.Random(77)
    for _ in range(60):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = [
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(n)]
            for _ in range(m)
        ]
        assert linalg.rank(rows, n) == naive_rank(rows, n)


def test_kernel_vector_satisfies_all_rows():
    rng = random.Random(78)
    found = 0
    for _ in range(80):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 6)
        rows = [
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(n)]
            for _ in range(m)
        ]
        x = linalg.kernel_vector(rows, n)
        if x is None:
            assert naive_rank(rows, n) == n
            continue
        found += 1
        assert len(x) == n
        for row in rows:
            assert sum(r * v for r, v in zip(row, x)) == 0
        lead = next(v for v in x if v != 0)
        assert lead == 1
    assert found > 0


def test_kernel_vector_edge_cases():
    assert linalg.kernel_vector([], 0) is None
    assert linalg.kernel_vector([], 2) == [Fraction(1), Fraction(0)]
    assert linalg.kernel_vector([[1, 0], [0, 1]], 2) is None
    x = linalg.kernel_vector([[1, 2, 3]], 3)
    assert x is not None and sum(a * b for a, b in zip([1, 2, 3], x)) == 0


def test_kernel_vector_known_solution():
    # the plane x + y + z = 0 intersected with x - z = 0
    x = linalg.kernel_vector([[1, 1, 1], [1, 0, -1]], 3)
    assert x == [Fraction(1), Fraction(-2), Fraction(1)]


def random_matrix(rng, kind):
    """A random rational matrix of one of the shapes the elimination must
    handle; up to 6 x 300."""
    m = rng.randrange(1, 7)
    n = rng.choice([rng.randrange(1, 12), rng.randrange(150, 301)])
    dens = [1] * 3 + [2, 3, 5, 7]

    def entry(p_zero):
        if rng.random() < p_zero:
            return Fraction(0)
        return Fraction(rng.randrange(-40, 41), rng.choice(dens))

    p_zero = {"sparse": 0.8, "swaps": 0.6}.get(kind, 0.1)
    rows = [[entry(p_zero) for _ in range(n)] for _ in range(m)]
    if kind == "deficient" and m > 1:
        # the last rows are combinations of the first ones
        keep = rng.randrange(1, m)
        for i in range(keep, m):
            cs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(keep)]
            rows[i] = [sum(c * rows[k][j] for k, c in enumerate(cs)) for j in range(n)]
    elif kind == "zero_rows":
        for i in rng.sample(range(m), rng.randrange(1, m + 1)):
            rows[i] = [Fraction(0)] * n
    elif kind == "late":
        # every row is zero on a long leading stretch of columns
        lead = rng.randrange(max(1, n - 6), n + 1)
        for row in rows:
            row[:lead] = [Fraction(0)] * lead
    elif kind == "swaps":
        # the top rows vanish in the first columns, so pivots come from below
        for row in rows[: rng.randrange(1, m + 1)]:
            k = rng.randrange(1, min(4, n) + 1)
            row[:k] = [Fraction(0)] * k
    return rows, n


KINDS = ("dense", "sparse", "deficient", "zero_rows", "late", "swaps")


@pytest.mark.parametrize("kind", KINDS)
def test_elimination_matches_the_right_looking_reference(kind, monkeypatch):
    rng = random.Random("linalg:" + kind)
    for _ in range(25):
        rows, n = random_matrix(rng, kind)
        ech, piv = linalg._echelon(rows, n)
        want_ech, want_piv = reference_echelon(rows, n)
        assert piv == want_piv
        assert ech == want_ech
        # stopping at full row rank reads a prefix of the columns only
        cut, cut_piv = linalg._echelon(rows, n, stop=True)
        read = len(cut[0]) if cut else n
        assert cut_piv == want_piv
        assert cut == [row[:read] for row in want_ech]
        assert linalg.rank(rows, n) == len(want_piv) == naive_rank(rows, n)
        got = linalg.kernel_vector(rows, n)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_echelon", reference_echelon)
            assert got == linalg.kernel_vector(rows, n)


def test_integer_rows_reads_ints_and_fractions():
    rows = [[1, Fraction(1, 2), Fraction(-2, 3)], [0, 5, Fraction(7)], [Fraction(0), 0, 0]]
    assert linalg._integer_rows(rows) == [[6, 3, -4], [0, 5, 7], [0, 0, 0]]


class Unread:
    """A matrix entry that fails the test when the elimination uses it."""

    def _used(self, *args):
        raise AssertionError("elimination read a column past the last pivot column")

    __mul__ = __rmul__ = __sub__ = __rsub__ = __floordiv__ = __bool__ = __ne__ = _used


def test_rank_stops_at_full_row_rank(monkeypatch):
    # full row rank 3 x 300 whose pivots lie in the first three columns, the
    # first one found only after a row swap; nothing past them may be used
    head = [[0, 2, 1], [3, 1, 4], [1, 0, 5]]
    rows = [h + [Unread() for _ in range(297)] for h in head]
    monkeypatch.setattr(linalg, "_integer_rows", lambda rows: [list(r) for r in rows])
    assert linalg.rank(rows, 300) == 3
