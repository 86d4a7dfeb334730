"""The seeded operator corpus, importable by name.

The benchmark's tests have a conftest.py of their own, and only one module
can be imported as ``conftest``, so test modules import the corpus from here.
"""

from __future__ import annotations

from fractions import Fraction

CORPUS_SEED = 20260825
CORPUS_SIZE = 100
SOLVE_PRECISION = 30


def random_root_multiset(rng):
    """Order 2..5 roots with denominators <= 24, entries in [0, 2),
    pairwise incongruent modulo the integers."""
    n = rng.randrange(2, 6)
    roots, seen = [], set()
    while len(roots) < n:
        den = rng.randrange(1, 25)
        num = rng.randrange(0, 2 * den)
        r = Fraction(num, den)
        frac = r - r.__floor__()
        if frac in seen:
            continue
        seen.add(frac)
        roots.append(r)
    return roots
