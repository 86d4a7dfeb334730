"""The integer convolution kernel and its weighted product against naive double sums."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import vvmf._kernel
from vvmf._kernel import _e2_times, _weighted, convolve
from vvmf.forms import eisenstein
from vvmf.qseries import QSeries, mul


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


def graded(nums, dens):
    """Numerators of c_t = nums[t] / D_t over the common scale S = D_(n-1),
    where D_t = dens[0] * ... * dens[t]: a denominator that grows with t, as
    in Frobenius series and the Wronskian minors built from them."""
    prefix = [1]
    for d in dens:
        prefix.append(prefix[-1] * d)
    scale = prefix[-1]
    return [x * (scale // prefix[t + 1]) for t, x in enumerate(nums)]


def wide(n, bits, seed):
    """A graded list of length n whose leading entry has about bits bits."""
    rng = random.Random(seed)
    step = max(2, bits // n)
    dens = [rng.getrandbits(step) | 1 for _ in range(n)]
    nums = [rng.choice((-1, 1)) * (rng.getrandbits(step * t + 8) | 1) for t in range(n)]
    return graded(nums, dens)


integers = st.integers(-(2**70), 2**70)
graded_lists = st.integers(1, 40).flatmap(
    lambda n: st.builds(
        graded,
        st.lists(st.integers(-(2**60), 2**60), min_size=n, max_size=n),
        st.lists(st.integers(1, 2**60), min_size=n, max_size=n),
    )
)
operands = st.one_of(st.lists(integers, max_size=40), graded_lists)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(operands, operands, st.integers(0, 90))
def test_matches_double_sum_on_graded_and_plain_operands(a, b, n_out):
    assert convolve(a, b, n_out) == double_sum(a, b, n_out)


e2_operands = st.one_of(
    st.integers(0, 200).flatmap(
        lambda n: st.lists(st.one_of(st.just(0), integers), min_size=n, max_size=n)
    ),
    graded_lists,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(e2_operands, st.integers(0, 220))
def test_e2_product_matches_the_dense_product(g, n_out):
    e2 = eisenstein(2, max(n_out - 1, 0)).nums
    assert _e2_times(g, n_out) == convolve(e2, g, n_out)


def test_e2_product_edges():
    e2 = list(eisenstein(2, 40).nums)
    assert _e2_times([], 0) == [] and _e2_times([], 3) == [0, 0, 0]
    assert _e2_times([1], 41) == e2
    assert _e2_times([0, 0, 1], 5) == [0, 0] + e2[:3]
    for g in ([7], [-3, 0, 5], wide(30, 2000, 6)):
        for n_out in (0, 1, len(g) - 1, len(g), len(g) + 9):
            assert _e2_times(g, n_out) == double_sum(e2, g, n_out)


def weighted_sum(a, b, c, r, n_out):
    """w[t] = sum a[i]*b[j]*(c + r*(j - i)) over every pair with i + j = t, for t < n_out."""
    return [
        sum(a[i] * b[t - i] * (c + r * (t - 2 * i)) for i in range(len(a)) if 0 <= t - i < len(b))
        for t in range(n_out)
    ]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(operands, operands, st.integers(-(10**6), 10**6), st.integers(-(10**4), 10**4), st.integers(0, 90))
def test_weighted_matches_double_sum_on_graded_and_plain_operands(a, b, c, r, n_out):
    assert _weighted(a, b, c, r, n_out) == weighted_sum(a, b, c, r, n_out)


def test_weighted_is_the_antisymmetric_product():
    # swapping the operands negates the weight of every pair
    a, b = wide(20, 1200, 6), wide(20, 1200, 7)
    assert _weighted(b, a, 5, 3, 20) == [-x for x in _weighted(a, b, -5, 3, 20)]
    # r = 0 scales the convolution, and c = 0, r = 1 is a*theta(b) - b*theta(a) on integer exponents
    assert _weighted(a, b, 7, 0, 20) == [7 * x for x in convolve(a, b, 20)]
    ta, tb = [t * x for t, x in enumerate(a)], [t * x for t, x in enumerate(b)]
    assert _weighted(a, b, 0, 1, 20) == [x - y for x, y in zip(convolve(a, tb, 20), convolve(b, ta, 20))]


def test_weighted_edges_and_both_sides_of_the_threshold():
    # graded operands on both sides of length times leading bits 8192, the
    # threshold of a retired half-window split, and the edges it had
    big = wide(20, 1200, 1)
    small = wide(20, 64, 2)
    cases = [
        (big, big, 20),
        (small, small, 20),
        (small, big, 20),
        # a low half that is all zero
        ([0] * 10 + big[10:], big, 20),
        # zeros inside both halves, and negative entries
        ([x if t % 3 else 0 for t, x in enumerate(big)], [-x for x in big], 20),
        # one operand shorter than half the output window
        (big[:4], big, 20),
        (big, big[:1], 20),
        # n_out of 0, and past len(a) + len(b) - 1
        (big, big, 0),
        (big, big[:7], 40),
        (big[:3], big[:5], 12),
        ([], big, 5),
        (big, [], 5),
    ]
    for a, b, n_out in cases:
        for c, r in ((0, 1), (-7, 12), (12345, -60), (3, 0)):
            assert _weighted(a, b, c, r, n_out) == weighted_sum(a, b, c, r, n_out)
    assert _weighted(big, big, 1, 1, -1) == []


def test_split_edges():
    # the edges of a retired half-window split, on graded operands past its threshold
    big = wide(20, 1200, 1)
    cases = [
        # a low half that is all zero
        ([0] * 10 + big[10:], big, 20),
        # zeros inside both halves, and negative entries
        ([x if t % 3 else 0 for t, x in enumerate(big)], [-x for x in big], 20),
        # one operand shorter than half the output window
        (big[:4], big, 20),
        (big, big[:1], 20),
        # n_out of 0, and past len(a) + len(b) - 1
        (big, big, 0),
        (big, big[:7], 40),
        (big[:3], big[:5], 12),
        ([], big, 5),
        (big, [], 5),
    ]
    for a, b, n_out in cases:
        assert convolve(a, b, n_out) == double_sum(a, b, n_out)
    assert convolve(big, big, -1) == []


def test_both_sides_of_the_threshold():
    # graded operands, then flat ones whose length times leading bits sits
    # just below and at 8192, the threshold of a retired half-window split
    cases = [(wide(n, bits, n), wide(n, bits, n + 1)) for n, bits in ((4, 64), (8, 900), (24, 400), (24, 2000))]
    for n, bits in ((16, 511), (16, 512), (8, 1023), (8, 1024)):
        cases.append(([(1 << (bits - 1)) + t for t in range(n)], [-(1 << (bits - 1)) - 3 * t for t in range(n)]))
    for a, b in cases:
        n = len(a)
        for n_out in (n - 1, n, 2 * n):
            assert convolve(a, b, n_out) == double_sum(a, b, n_out)


def test_one_series_product_is_one_public_convolve(monkeypatch):
    # The benchmark's tracer replaces every public function of the kernel in
    # every vvmf module that holds it; helpers must stay private and the
    # kernel must not call convolve through its module global, or the calls
    # and self time of kernel.convolve would be counted twice.
    public = sorted(
        name for name, obj in vars(vvmf._kernel).items()
        if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == "vvmf._kernel"
    )
    assert public == ["convolve"]
    calls = []
    fn = vvmf._kernel.convolve

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for modname, mod in list(sys.modules.items()):
        if modname == "vvmf" or modname.startswith("vvmf."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counting)
    f = QSeries(Fraction(1, 3), [Fraction(x, 10**40) for x in wide(24, 1500, 4)])
    g = QSeries(Fraction(1, 5), [Fraction(x, 10**40) for x in wide(24, 1500, 5)])
    product = mul(f, g)
    assert len(calls) == 1
    assert product.coeffs == tuple(
        Fraction(c, f.scale * g.scale) for c in double_sum(f.nums, g.nums, 24)
    )
