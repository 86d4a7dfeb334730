"""The integer convolution kernel against known products and a naive double sum."""

from __future__ import annotations

import random

from vvmf._kernel import convolve


def double_sum(a, b, n_out):
    """c[n] = sum a[i]*b[n-i] over every pair of indices, for n < n_out."""
    return [
        sum(a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b))
        for n in range(n_out)
    ]


def test_known_product():
    assert convolve([1, 2], [3, 4], 4) == [3, 10, 8, 0]
    assert convolve([1, 1, 1], [1, 1, 1], 3) == [1, 2, 3]
    assert convolve([], [1, 2], 3) == [0, 0, 0]
    assert convolve([5], [7], 1) == [35]


def test_truncation_semantics():
    # c[n] only sums pairs that fit under the cutoff
    full = convolve([1, 2, 3], [4, 5, 6], 5)
    assert full == [4, 13, 28, 27, 18]
    assert convolve([1, 2, 3], [4, 5, 6], 2) == full[:2]


def test_matches_naive_sum_on_random_inputs():
    rng = random.Random(1234)
    for _ in range(50):
        na, nb = rng.randrange(0, 40), rng.randrange(0, 40)
        a = [rng.randrange(-10**9, 10**9) for _ in range(na)]
        b = [rng.randrange(-10**9, 10**9) for _ in range(nb)]
        n = rng.randrange(1, 60)
        assert convolve(a, b, n) == double_sum(a, b, n)


def test_big_integer_coefficients():
    a = [10**40 + 1, -(10**35)]
    b = [10**38, 3]
    assert convolve(a, b, 3) == double_sum(a, b, 3)
