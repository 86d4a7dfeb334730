"""Exact truncated generalized q-expansions over the rationals.

A QSeries represents q^beta * sum_t c_t q^(t/den) with exact rational
base exponent and coefficients.  The grid denominator den is 1 for every
series produced by the modular machinery; it only becomes larger when two
series on incongruent exponent grids are added, and canonicalization
reduces it back as soon as the populated exponents allow.

The coefficients are stored as integer numerators over one common scale:
c_t = nums[t] / scale.  Every operation works on these integers and
normalizes the content once at the end, instead of building and reducing
one Fraction per coefficient.  The canonical form is unique, so == and
hash compare integers:

- scale > 0 and gcd(scale, *nums) == 1, so scale is the lcm of the reduced
  coefficient denominators;
- leading zero coefficients are absorbed into beta, so nums[0] != 0 unless
  the series is zero;
- the zero series has beta = 0, den = 1 and scale = 1;
- the grid is as coarse as the populated exponents allow.

Precision is the number of known grid steps past the base exponent: the
series is known exactly on the window [beta, beta + precision/den] and
unknown beyond it.  Every operation propagates the window pessimistically.
All values are immutable and all operations are pure; ``coeffs`` gives the
coefficients as reduced Fractions, computed on each access.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._kernel import convolve
from .errors import PrecisionError, PreconditionError

Rat = Fraction

_ZERO = Fraction(0)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise PreconditionError(f"not an exact rational: {x!r}")


def _record_rationals(values, what: str) -> list:
    """Fractions from a JSON record's rationals, each a string or an integer;
    anything else (bools and floats included) raises PreconditionError."""
    if any(isinstance(v, bool) or not isinstance(v, (str, int)) for v in values):
        raise PreconditionError(f"{what} rationals must be strings or integers")
    try:
        return [Fraction(v) for v in values]
    except (ValueError, ZeroDivisionError) as e:
        raise PreconditionError(f"{what} holds a malformed rational: {e}") from e


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _raw(beta: Fraction, den: int, nums: tuple, scale: int) -> "QSeries":
    """A series from fields that are already in canonical form.

    nums tuples are built from lists, never from generators: a tuple grown
    from a generator is resized outside the tuple free list, so freeing it
    grows that list, which pins memory for the life of the process.
    """
    out = object.__new__(QSeries)
    out.beta = beta
    out.den = den
    out.nums = nums
    out.scale = scale
    return out


def _series(beta: Fraction, den: int, nums, scale: int) -> "QSeries":
    """The canonical series q^beta * sum_t (nums[t] / scale) q^(t/den).

    Absorbs leading zeros into beta, resets the zero series to beta = 0,
    coarsens the grid when possible and divides out the content of
    (scale, *nums), making scale positive.
    """
    n = len(nums)
    lead = 0
    while lead < n and not nums[lead]:
        lead += 1
    if lead == n:
        # zero series: beta = 0 by convention; the known-zero window
        # [0, top] is sound because the original series had no support
        # below its own window either
        top = beta + Fraction(n - 1, den)
        return _raw(_ZERO, 1, (0,) * (max(0, top.__floor__()) + 1), 1)
    if lead:
        beta = beta + Fraction(lead, den)
        nums = nums[lead:]
    if den > 1:
        g = den
        for t, x in enumerate(nums):
            if x:
                g = gcd(g, t)
                if g == 1:
                    break
        if g > 1:
            nums = nums[::g]
            den //= g
    g = gcd(scale, *nums)
    if scale < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        scale //= g
    return _raw(beta, den, tuple(nums), scale)


def _sum(n: int, terms) -> tuple:
    """Numerators and scale of sum c * a * b through step n, with no content pass.

    Each term (c, a, b, off) has an int or Fraction c and (nums, scale) pairs a
    and b on one grid; b is None for a plain term.  The product a * b, cut to
    the shorter operand, is one convolve; the term starts at step off.  The
    scale is the lcm of the term scales.  Zero terms are skipped and parts past
    step n are dropped, but a zero sum with a nonzero term starting past n
    raises PrecisionError, as a zero series does in add.
    """
    parts = []
    scale = 1
    late = False
    for c, (nums, s), b, off in terms:
        if not c or not any(nums) or b is not None and not any(b[0]):
            continue
        if b is not None:
            short = min(len(nums), len(b[0]))
            if off > n:
                late = late or any(convolve(nums, b[0], short))
                continue
            nums, s = convolve(nums, b[0], min(short, n + 1 - off)), s * b[1]
        elif off > n:
            late = True
            continue
        s *= c.denominator
        parts.append((c.numerator, s, off, nums))
        if scale % s:
            scale = _lcm(scale, s)
    out = [0] * (n + 1)
    for p, s, off, nums in parts:
        m = p * (scale // s)
        end = min(n + 1, off + len(nums))
        out[off:end] = [y + m * x for y, x in zip(out[off:end], nums)]
    if late and not any(out):
        raise PrecisionError("a term starts past the window of a zero sum")
    return out, scale


def _lincomb(beta: Fraction, den: int, n: int, terms) -> "QSeries":
    """The canonical q^beta * sum_{t<=n} c_t q^(t/den) of a _sum: one content pass."""
    return _series(beta, den, *_sum(n, terms))


def _theta(beta: Fraction, den: int, f) -> tuple:
    """The pair of q d/dq on the pair f = (nums, scale) of q^beta * sum_t
    (nums[t] / scale) q^(t/den): with beta = p/q, step t has exponent
    (p den + q t) / (q den)."""
    p, q = beta.numerator, beta.denominator
    nums, scale = f
    return [x * (p * den + q * t) for t, x in enumerate(nums)], scale * q * den


def _pair(s: "QSeries", den: int = 0) -> tuple:
    """The (nums, scale) pair of s, resampled onto the grid den when den is a
    proper multiple of s.den."""
    if den in (0, s.den):
        return s.nums, s.scale
    f = den // s.den
    out = [0] * (s.precision * f + 1)
    out[::f] = s.nums
    return out, s.scale


class QSeries:
    """Truncated q-expansion q^beta * (c_0 + c_1 q^(1/den) + ...)."""

    __slots__ = ("beta", "den", "nums", "scale")

    def __init__(self, beta, coeffs, den: int = 1):
        beta = _rat(beta)
        cs = [_rat(c) for c in coeffs]
        if not cs:
            raise PreconditionError("QSeries needs at least one coefficient")
        if den < 1:
            raise PreconditionError("grid denominator must be >= 1")
        scale = 1
        for c in cs:
            d = c.denominator
            if scale % d:
                scale = _lcm(scale, d)
        s = _series(beta, den, [c.numerator * (scale // c.denominator) for c in cs], scale)
        self.beta, self.den, self.nums, self.scale = s.beta, s.den, s.nums, s.scale

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions (computed, not stored)."""
        s = self.scale
        return tuple([Fraction(x, s) for x in self.nums])

    @property
    def precision(self) -> int:
        return len(self.nums) - 1

    @property
    def window_top(self) -> Fraction:
        """Largest exponent at which the series is known."""
        return self.beta + Fraction(self.precision, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.nums[0]

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        return _raw(_ZERO, 1, (0,) * (precision + 1), 1)

    @classmethod
    def one(cls, precision: int) -> "QSeries":
        return _raw(_ZERO, 1, (1,) + (0,) * precision, 1)

    def coefficient_at(self, exponent) -> Fraction:
        """Coefficient of q^exponent; zero off the grid, error past the window."""
        x = _rat(exponent)
        if x > self.window_top:
            raise PrecisionError(
                f"exponent {x} beyond known window {self.window_top}"
            )
        step = (x - self.beta) * self.den
        if step < 0 or step.denominator != 1:
            return _ZERO
        return Fraction(self.nums[int(step)], self.scale)

    def truncated(self, precision: int) -> "QSeries":
        """The same series cut to the given number of known steps."""
        if precision < 0 or precision > self.precision:
            raise PrecisionError(
                f"cannot truncate precision {self.precision} series to {precision}"
            )
        if precision == self.precision:
            return self
        return _series(self.beta, self.den, self.nums[: precision + 1], self.scale)

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "QSeries":
        return _raw(self.beta, self.den, tuple([-x for x in self.nums]), self.scale)

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return add(self, -other)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return _lincomb(self.beta, self.den, self.precision, [(other, _pair(self), None, 0)])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.beta == other.beta
            and self.den == other.den
            and self.scale == other.scale
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.beta, self.den, self.scale, self.nums))

    def agrees_with(self, other: "QSeries") -> bool:
        """Mathematical agreement on the joint known window.

        Unlike ==, this ignores differences in pessimistic precision
        bookkeeping between algebraically equal computation routes.
        """
        den = _lcm(self.den, other.den)
        diff = self.beta - other.beta
        den = _lcm(den, diff.denominator)
        top = min(self.window_top, other.window_top)
        lo = min(self.beta, other.beta)
        t = 0
        while True:
            x = lo + Fraction(t, den)
            if x > top:
                return True
            if self.coefficient_at(x) != other.coefficient_at(x):
                return False
            t += 1

    def __repr__(self):
        shown = ", ".join(str(Fraction(x, self.scale)) for x in self.nums[:6])
        tail = ", ..." if len(self.nums) > 6 else ""
        grid = f", den={self.den}" if self.den != 1 else ""
        return f"QSeries(q^({self.beta}) * [{shown}{tail}], N={self.precision}{grid})"

    # -- serialization -----------------------------------------------

    def to_record(self) -> dict:
        rec = {
            "base_exponent": str(self.beta),
            "coeffs": [str(c) for c in self.coeffs],
            "precision": self.precision,
        }
        if self.den != 1:
            rec["grid_denominator"] = self.den
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "QSeries":
        """Inverse of to_record; a malformed record raises PreconditionError."""
        if not isinstance(rec, dict):
            raise PreconditionError("series record must be a JSON object")
        for key in ("base_exponent", "coeffs", "precision"):
            if key not in rec:
                raise PreconditionError(f"series record lacks {key!r}")
        precision = rec["precision"]
        den = rec.get("grid_denominator", 1)
        for key, v in (("precision", precision), ("grid_denominator", den)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise PreconditionError(f"series record {key!r} must be an integer")
        if not isinstance(rec["coeffs"], list):
            raise PreconditionError("series record 'coeffs' must be a list")
        beta, *coeffs = _record_rationals([rec["base_exponent"], *rec["coeffs"]], "series record")
        if len(coeffs) != precision + 1:
            raise PreconditionError("record length disagrees with precision")
        return cls(beta, coeffs, den)


def make_series(beta, coeffs, precision: int) -> QSeries:
    """Canonicalized series from a base exponent and N+1 coefficients."""
    coeffs = list(coeffs)
    if len(coeffs) != precision + 1:
        raise PreconditionError(
            f"expected {precision + 1} coefficients, got {len(coeffs)}"
        )
    return QSeries(beta, coeffs, 1)


def add(a: QSeries, b: QSeries) -> QSeries:
    """Sum, merged onto the union exponent grid, window = min of windows."""
    if a.is_zero or b.is_zero:
        z, s = (a, b) if a.is_zero else (b, a)
        steps = (z.precision - s.beta) * s.den
        if steps < 0:
            raise PrecisionError("zero operand's window ends before the sum starts")
        return s.truncated(int(min(steps, s.precision)))
    # offsets and windows in steps of the union grid 1/den from min(beta)
    diff = a.beta - b.beta
    den = _lcm(_lcm(a.den, b.den), diff.denominator)
    shift = diff.numerator * (den // diff.denominator)
    beta = b.beta if shift >= 0 else a.beta
    oa, ob = max(shift, 0), max(-shift, 0)
    n = min(oa + a.precision * (den // a.den), ob + b.precision * (den // b.den))
    return _lincomb(beta, den, n, [(1, _pair(a, den), None, oa), (1, _pair(b, den), None, ob)])


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product; base exponents add, precision is the minimum."""
    if a.is_zero or b.is_zero:
        return QSeries.zero(min(a.precision, b.precision))
    den = _lcm(a.den, b.den)
    n = min(a.precision * (den // a.den), b.precision * (den // b.den))
    return _lincomb(a.beta + b.beta, den, n, [(1, _pair(a, den), _pair(b, den), 0)])


def divide_exact(a: QSeries, b: QSeries, precision: int) -> QSeries:
    """Quotient s with mul(s, b) = a through the requested precision."""
    if b.is_zero:
        raise PreconditionError("division by the zero series")
    if a.is_zero:
        if precision > a.precision:
            raise PrecisionError("requested precision exceeds the known window")
        return QSeries.zero(precision)
    den = _lcm(a.den, b.den)
    ia, _ = _pair(a, den)
    ib, _ = _pair(b, den)
    if precision > min(len(ia), len(ib)) - 1:
        raise PrecisionError(
            f"requested precision {precision} exceeds joint precision "
            f"{min(len(ia), len(ib)) - 1}"
        )
    # Fraction-free: with a_t = A_t / sa and b_t = B_t / sb, X_t = s_t sa / sb
    # solves sum_u X_u B_(t-u) = A_t.  Before step t, ys[u] = X_u B_0^t, so
    # X_t B_0^(t+1) = A_t B_0^t - sum_u ys[u] B_(t-u) is an integer; then
    # every entry takes one more factor B_0.  At the end
    # s_u = ys[u] sb / (sa B_0^(precision+1)).
    b0 = ib[0]
    ys = []
    pw = 1
    for t in range(precision + 1):
        acc = ia[t] * pw
        for u, y in enumerate(ys):
            if y:
                acc -= y * ib[t - u]
        if b0 != 1:
            ys = [y * b0 for y in ys]
            pw *= b0
        ys.append(acc)
    sb = b.scale
    return _series(a.beta - b.beta, den, [y * sb for y in ys], a.scale * b0 ** (precision + 1))


def q_derivative(a: QSeries) -> QSeries:
    """Apply q d/dq termwise: c q^x becomes x c q^x."""
    return _series(a.beta, a.den, *_theta(a.beta, a.den, _pair(a)))
