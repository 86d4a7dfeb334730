"""Unit tests for exact truncated q-expansions."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_kernel import operands

from vvmf import InternalCheckError, PrecisionError, PreconditionError, QSeries, add, divide_exact, mul, q_derivative
from vvmf._kernel import convolve
from vvmf.qseries import _ZERO, _numerators_at, _quotient, _recurrence, _series


def rand_series(rng, zero_ok=True):
    beta = Fraction(rng.randrange(-6, 13), rng.choice([1, 1, 2, 3, 4, 6, 12]))
    n = rng.randrange(3, 11)
    cs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n + 1)]
    if not zero_ok and all(c == 0 for c in cs):
        cs[0] = Fraction(1)
    return QSeries(beta, cs)


def one_coset(*series):
    """Whether the nonzero series among the given ones share an exponent coset."""
    return len({s.beta % 1 for s in series if not s.is_zero}) <= 1


def assert_ring_axioms(a, b, c):
    """Commutativity, associativity and distributivity wherever the sums lie
    on one exponent coset; a sum across cosets must be refused."""
    for x, y in ((a, b), (b, c)):
        if not one_coset(x, y):
            with pytest.raises(PreconditionError, match="exponent cosets"):
                add(x, y)
    if one_coset(a, b):
        assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    if one_coset(a, b, c):
        assert add(add(a, b), c).agrees_with(add(a, add(b, c)))
    assert mul(mul(a, b), c).agrees_with(mul(a, mul(b, c)))
    if one_coset(b, c):
        assert mul(a, add(b, c)).agrees_with(add(mul(a, b), mul(a, c)))


def test_leading_zero_absorption():
    s = QSeries(Fraction(1, 12), [0, 3])
    assert s.beta == Fraction(13, 12)
    assert s.coeffs == (Fraction(3),)
    assert s.precision == 0


def test_zero_series_convention():
    s = QSeries(Fraction(5, 2), [0, 0, 0])
    assert s.is_zero
    assert s.beta == 0
    assert s.scale == 1
    # original window reached 5/2 + 2 = 9/2, so zero is known through q^4
    assert s.precision == 4


def test_zero_series_below_origin():
    s = QSeries(Fraction(-7, 2), [0, 0])
    assert s.is_zero
    assert s.precision == 0


def test_construction_guards():
    with pytest.raises(PreconditionError):
        QSeries(0, [])
    with pytest.raises(PreconditionError):
        QSeries(0.5, [1])
    for make in (QSeries.zero, QSeries.one):
        with pytest.raises(PreconditionError):
            make(-1)


def test_numerators_at_are_scaled_coefficients():
    # windows that start below, at and above beta, on and off the coset, and
    # windows that end below beta
    F = Fraction
    series = [
        QSeries(0, [1, 240, 2160, 6720]),
        QSeries(F(1, 3), [F(1, 2), 0, F(-3, 4), 5, 0, F(7, 6), 1]),
        QSeries(F(-5, 2), [F(2, 5), F(1, 3), 0, 4, F(-1, 7)]),
        QSeries.zero(5),
    ]
    for f in series:
        for lo in (f.beta - 3, f.beta - F(2, 3), f.beta, f.beta + 1, f.beta + F(1, 2)):
            top = int((f.window_top - lo).__floor__()) + 1
            for count in range(max(0, top) + 1):
                for scale in (f.scale, 6 * f.scale):
                    want = [f.coefficient_at(lo + t) * scale for t in range(count)]
                    assert _numerators_at(f, lo, count, scale) == want


def test_window_and_coefficient_lookup():
    s = QSeries(Fraction(1, 3), [2, 0, 5])
    assert s.window_top == Fraction(7, 3)
    assert s.coefficient_at(Fraction(1, 3)) == 2
    assert s.coefficient_at(Fraction(7, 3)) == 5
    assert s.coefficient_at(Fraction(4, 3)) == 0
    assert s.coefficient_at(0) == 0  # below the base exponent
    assert s.coefficient_at(Fraction(1, 2)) == 0  # off the grid
    with pytest.raises(PrecisionError):
        s.coefficient_at(Fraction(8, 3))


def test_truncated():
    s = QSeries(0, [1, 2, 3])
    assert s.truncated(1).coeffs == (Fraction(1), Fraction(2))
    with pytest.raises(PrecisionError):
        s.truncated(5)
    with pytest.raises(PrecisionError):
        s.truncated(-1)


def test_add_aligns_one_coset_and_refuses_two():
    a = QSeries(Fraction(1, 2), [1, 1, 1])
    b = QSeries(Fraction(-1, 2), [1, 1, 1, 1])
    s = add(a, b)
    assert s.beta == Fraction(-1, 2)
    # joint window ends at min(5/2, 5/2)
    assert s.window_top == Fraction(5, 2)
    assert s.coeffs == (1, 2, 2, 2)
    other = QSeries(Fraction(7, 3), [1, 1])
    for total in (lambda: add(a, other), lambda: a - other, lambda: other + a):
        with pytest.raises(PreconditionError, match="exponent cosets") as e:
            total()
        assert "1/2 + Z" in str(e.value) and "1/3 + Z" in str(e.value)


def test_add_zero_operand_window():
    z = QSeries.zero(1)
    s = QSeries(0, [3, 4, 5])
    out = add(s, z)
    assert out.coeffs == (Fraction(3), Fraction(4))


def test_mul_known_product():
    a = QSeries(Fraction(1, 2), [1, 1])
    b = QSeries(Fraction(1, 3), [1, -1])
    p = mul(a, b)
    assert p.beta == Fraction(5, 6)
    assert p.coeffs == (Fraction(1), Fraction(0))


def test_scalar_operators():
    s = QSeries(1, [2, 4])
    assert (3 * s).coeffs == (Fraction(6), Fraction(12))
    assert (s * Fraction(1, 2)).coeffs == (Fraction(1), Fraction(2))
    assert (-s).coeffs == (Fraction(-2), Fraction(-4))
    assert (s - s).is_zero


def test_divide_exact_round_trip():
    rng = random.Random(4)
    for _ in range(25):
        f = rand_series(rng)
        g = rand_series(rng, zero_ok=False)
        n = min(f.precision, g.precision)
        assert divide_exact(mul(f, g), g, n) == f.truncated(n)


def test_divide_guards():
    s = QSeries(0, [1, 2, 3])
    with pytest.raises(PreconditionError):
        divide_exact(s, QSeries.zero(3), 2)
    with pytest.raises(PrecisionError):
        divide_exact(s, QSeries(0, [1, 1]), 2)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(operands, operands, st.integers(1, 2**70), st.integers(1, 2**70))
def test_quotient_inverts_a_kernel_product(q, c, sq, sc):
    # P = C * Q through the length of Q, on plain and graded integer lists
    assume(q and c and c[0])
    P = (convolve(c, q, len(q)), sc * sq)
    nums, m = _quotient(P, (c, sc))
    # the window of the shorter operand, and the pair is already canonical
    n = min(len(q), len(c))
    assert len(nums) == n
    assert m > 0 and gcd(m, *nums) == 1
    assert _series(_ZERO, nums, m) == _series(_ZERO, q[:n], sq)


def long_division(pn, sp, cn, sc):
    """The quotient of sum (pn[t] / sp) q^t by sum (cn[t] / sc) q^t through
    the shorter operand, one Fraction per coefficient."""
    p = [Fraction(x, sp) for x in pn]
    c = [Fraction(x, sc) for x in cn]
    q = []
    for t in range(min(len(p), len(c))):
        q.append((p[t] - sum(q[u] * c[t - u] for u in range(t))) / c[0])
    return q


big = st.integers(-(2**200), 2**200)
scale = st.integers(1, 2**120)
# the four kinds of (kind, sp, sc): sc dividing sp (the Wronskian's quotients),
# coprime scales, equal scales, and any scales under negative leading entries
scale_kinds = st.one_of(
    st.builds(lambda s, k: ("divides", s * k, s), scale, scale),
    st.builds(lambda a, b: ("coprime", a * b + 1, b), scale, scale),
    scale.map(lambda s: ("equal", s, s)),
    st.builds(lambda a, b: ("negative_leads", a, b), scale, scale),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(scale_kinds, st.lists(big, min_size=1, max_size=14), st.lists(big, min_size=1, max_size=14))
def test_quotient_matches_long_division_on_every_kind_of_scale(scales, pn, cn):
    kind, sp, sc = scales
    assume(cn[0])
    if kind == "negative_leads":
        pn[0], cn[0] = -abs(pn[0]), -abs(cn[0])
    nums, m = _quotient((pn, sp), (cn, sc))
    # the canonical pair of the long division's coefficients
    assert m > 0 and gcd(m, *nums) == 1
    assert [Fraction(x, m) for x in nums] == long_division(pn, sp, cn, sc)


def test_quotient_refuses_a_zero_leading_entry():
    with pytest.raises(InternalCheckError, match="leading entry"):
        _quotient(([1, 2, 3], 1), ([0, 1, 1], 1))
    assert _quotient(([4, 2], 6), ([-2, 1], 3)) == ([-1, -1], 1)


recursion_rows = st.lists(
    st.tuples(st.integers(-50, 50), st.lists(st.integers(-9, 9), max_size=6), st.integers(-40, 40).filter(bool)),
    min_size=1, max_size=12)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(recursion_rows)
def test_recurrence_matches_fractions(rows):
    # the inhomogeneous recursion a_t = (b_t + sum_j c_tj a_(t-1-j)) / d_t,
    # with integer b, c and d of either sign, against Fractions
    want = []
    for b, cs, d in rows:
        want.append((b + sum(c * a for c, a in zip(cs, reversed(want)))) / Fraction(d))

    def step(t, nums, m):
        b, cs, d = rows[t]
        return b * m + sum(c * a for c, a in zip(cs, reversed(nums))), d

    nums, m = _recurrence(len(rows), step)
    assert [Fraction(x, m) for x in nums] == want
    assert m > 0 and gcd(m, *nums) == 1


def test_q_derivative_termwise():
    s = QSeries(Fraction(1, 2), [1, 1])
    d = q_derivative(s)
    assert d.coefficient_at(Fraction(1, 2)) == Fraction(1, 2)
    assert d.coefficient_at(Fraction(3, 2)) == Fraction(3, 2)
    assert q_derivative(QSeries.one(5)).is_zero


def test_structural_equality_and_hash():
    a = QSeries(0, [1, 2])
    b = QSeries(0, [1, 2])
    c = QSeries(0, [1, 2, 0])
    assert a == b and hash(a) == hash(b)
    assert a != c  # same values, different claimed window


def test_agrees_with_ignores_window_claims():
    a = QSeries(0, [1, 2, 3])
    b = QSeries(0, [1, 2, 3, 4])
    assert a.agrees_with(b) and b.agrees_with(a)
    assert not a.agrees_with(QSeries(0, [1, 2, 4]))
    # two nonzero series on different cosets differ at the lower leading term
    assert not a.agrees_with(QSeries(Fraction(1, 2), [1, 2, 3]))


def test_serialization_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        s = rand_series(rng)
        assert QSeries.from_record(s.to_record()) == s
        assert "grid_denominator" not in s.to_record()
    # a record on a finer grid is refused, never read as unit steps
    for den in (1, 2):
        rec = {"base_exponent": "0", "coeffs": ["1", "0", "1"], "precision": 2, "grid_denominator": den}
        with pytest.raises(PreconditionError, match="grid_denominator"):
            QSeries.from_record(rec)
    with pytest.raises(PreconditionError):
        QSeries.from_record({"base_exponent": "0", "coeffs": ["1"], "precision": 3})


def test_ring_axioms_spot_checks():
    rng = random.Random(20260825)
    for _ in range(50):
        assert_ring_axioms(rand_series(rng), rand_series(rng), rand_series(rng))


def test_canonicalization_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        s = rand_series(rng)
        assert QSeries(s.beta, s.coeffs) == s


@pytest.mark.parametrize(
    "rec",
    [
        {"base_exponent": "0", "coeffs": ["1", "2"], "precision": True},
        {"base_exponent": "0", "coeffs": "12", "precision": 1},
        {"base_exponent": "0", "coeffs": ["1", "2"], "precision": 1, "grid_denominator": True},
        {"base_exponent": "0", "coeffs": ["1", "2"]},
        {"base_exponent": "0", "coeffs": ["1", "2"], "precision": 1, "grid_denominator": "2"},
        {"base_exponent": "0", "coeffs": ["1", "x"], "precision": 1},
        {"base_exponent": "0", "coeffs": ["1", "1/0"], "precision": 1},
        {"base_exponent": "0", "coeffs": ["1", 0.5], "precision": 1},
        {"base_exponent": "y", "coeffs": ["1"], "precision": 0},
        ["0", ["1"], 0],
    ],
    ids=[
        "bool_precision", "string_coeffs", "bool_grid", "missing_key", "string_grid",
        "bad_coefficient", "zero_denominator", "float_coefficient", "bad_base", "not_a_dict",
    ],
)
def test_from_record_rejects_malformed(rec):
    with pytest.raises(PreconditionError):
        QSeries.from_record(rec)


# -- the integer representation against a Fraction-tuple reference -----
#
# The reference keeps a series as (beta, coeffs) with coeffs a tuple of
# Fractions and runs every operation one Fraction at a time, as the library
# did before it stored integer numerators over one scale.


def ref_canon(beta, cs):
    cs = list(cs)
    lead = 0
    while lead < len(cs) and cs[lead] == 0:
        lead += 1
    if lead == len(cs):
        top = beta + len(cs) - 1
        return (Fraction(0), (Fraction(0),) * (max(0, top.__floor__()) + 1))
    return (beta + lead, tuple(cs[lead:]))


def ref_top(r):
    return r[0] + len(r[1]) - 1


def ref_add(a, b):
    za, zb = a[1][0] == 0, b[1][0] == 0
    if za and zb:
        return ref_canon(Fraction(0), [Fraction(0)] * min(len(a[1]), len(b[1])))
    if za or zb:
        z, s = (a, b) if za else (b, a)
        steps = min(ref_top(z), ref_top(s)) - s[0]
        if steps < 0:
            raise PrecisionError("zero operand's window ends before the sum starts")
        return ref_canon(s[0], s[1][: int(steps) + 1])
    if (a[0] - b[0]).denominator != 1:
        raise PreconditionError("series on different exponent cosets")
    beta = min(a[0], b[0])
    n = int(min(ref_top(a), ref_top(b)) - beta)
    cs = [Fraction(0)] * (n + 1)
    for s in (a, b):
        off = int(s[0] - beta)
        for t, c in enumerate(s[1]):
            if off + t <= n:
                cs[off + t] += c
    return ref_canon(beta, cs)


def ref_mul(a, b):
    if a[1][0] == 0 or b[1][0] == 0:
        return ref_canon(Fraction(0), [Fraction(0)] * min(len(a[1]), len(b[1])))
    ca, cb = a[1], b[1]
    n = min(len(ca), len(cb))
    cs = [sum((ca[i] * cb[t - i] for i in range(t + 1)), Fraction(0)) for t in range(n)]
    return ref_canon(a[0] + b[0], cs)


def ref_scaled(c, a):
    return ref_canon(a[0], [c * x for x in a[1]])


def ref_q_derivative(a):
    return ref_canon(a[0], [(a[0] + t) * c for t, c in enumerate(a[1])])


def ref_truncated(a, precision):
    if precision < 0 or precision > len(a[1]) - 1:
        raise PrecisionError("truncation beyond the window")
    return ref_canon(a[0], a[1][: precision + 1])


def ref_divide_exact(a, b, precision):
    if b[1][0] == 0:
        raise PreconditionError("division by the zero series")
    if a[1][0] == 0:
        if precision > len(a[1]) - 1:
            raise PrecisionError("requested precision exceeds the known window")
        return ref_canon(Fraction(0), [Fraction(0)] * (precision + 1))
    ca, cb = a[1], b[1]
    if precision > min(len(ca), len(cb)) - 1:
        raise PrecisionError("requested precision exceeds joint precision")
    out = []
    for t in range(precision + 1):
        acc = ca[t]
        for u, su in enumerate(out):
            acc -= su * cb[t - u]
        out.append(acc / cb[0])
    return ref_canon(a[0] - b[0], out)


def ref_coefficient_at(a, x):
    if x > ref_top(a):
        raise PrecisionError("exponent beyond the window")
    step = x - a[0]
    if step < 0 or step.denominator != 1:
        return Fraction(0)
    return a[1][int(step)]


def fields(s):
    """The reference's view of s, after checking the canonical form."""
    assert s.scale > 0 and gcd(s.scale, *s.nums) == 1
    return (s.beta, s.coeffs)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionError, PreconditionError) as e:
        return type(e)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
coefficients = st.one_of(st.just(Fraction(0)), rationals, st.integers(-(10**30), 10**30).map(Fraction))
betas = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))
raw_series = st.tuples(betas, st.lists(coefficients, min_size=1, max_size=8))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(raw_series, raw_series, rationals, st.integers(0, 8), betas)
def test_integer_series_match_fraction_reference(ra, rb, c, precision, x):
    a, b = QSeries(*ra), QSeries(*rb)
    fa, fb = ref_canon(*ra), ref_canon(*rb)
    assert fields(a) == fa and fields(b) == fb
    assert outcome(lambda: fields(a + b)) == outcome(ref_add, fa, fb)
    assert outcome(lambda: fields(a - b)) == outcome(ref_add, fa, ref_scaled(Fraction(-1), fb))
    assert fields(-a) == ref_scaled(Fraction(-1), fa)
    assert fields(c * a) == fields(a * c) == ref_scaled(c, fa)
    assert fields(mul(a, b)) == ref_mul(fa, fb)
    assert fields(q_derivative(a)) == ref_q_derivative(fa)
    assert outcome(lambda: fields(a.truncated(precision))) == outcome(ref_truncated, fa, precision)
    assert outcome(lambda: fields(divide_exact(a, b, precision))) == outcome(ref_divide_exact, fa, fb, precision)
    assert outcome(a.coefficient_at, x) == outcome(ref_coefficient_at, fa, x)
    assert QSeries(a.beta, a.coeffs) == a


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(raw_series, raw_series)
def test_equal_series_from_different_routes_hash_equal(ra, rb):
    a, b = QSeries(*ra), QSeries(*rb)
    ab, ba = mul(a, b), mul(b, a)
    assert ab == ba and hash(ab) == hash(ba)
    total = outcome(add, a, b)
    assert total == outcome(add, b, a)
    if not one_coset(a, b):
        assert total is PreconditionError
        return
    assume(isinstance(total, QSeries) and not total.is_zero and not a.is_zero)
    assert hash(total) == hash(b + a)
    k = (min(a.window_top, b.window_top) - a.beta).__floor__()
    assume(k >= 0)
    back = total - b
    assert back == a.truncated(k) and hash(back) == hash(a.truncated(k))
