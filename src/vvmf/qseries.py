"""Exact truncated generalized q-expansions over the rationals.

A QSeries represents q^beta * sum_t c_t q^t with exact rational base
exponent and coefficients, so its exponents lie in the one coset beta + Z.
Series on different cosets cannot be added: every component of a
vector-valued form, every eta power and every Eisenstein series lives on
a single coset.

The coefficients are stored as integer numerators over one common scale:
c_t = nums[t] / scale.  Every operation works on these integers and
normalizes the content once at the end, instead of building and reducing
one Fraction per coefficient; the exact recursions (quotients, eta powers,
Frobenius series) run through ``_recurrence``, which keeps the content 1 as
it goes.  The canonical form is unique, so == and hash compare integers:

- scale > 0 and gcd(scale, *nums) == 1, so scale is the lcm of the reduced
  coefficient denominators;
- leading zero coefficients are absorbed into beta, so nums[0] != 0 unless
  the series is zero;
- the zero series has beta = 0 and scale = 1.

Precision is the number of known unit steps past the base exponent: the
series is known exactly on the window [beta, beta + precision] and
unknown beyond it.  Every operation propagates the window pessimistically.
All values are immutable and all operations are pure; ``coeffs`` gives the
coefficients as reduced Fractions, computed on each access.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._kernel import _weighted, convolve
from .errors import InternalCheckError, PrecisionError, PreconditionError

_ZERO = Fraction(0)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:  # Fraction would build the whole power of ten
            raise PreconditionError(f"exponent notation is not accepted: {x[:40]!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise PreconditionError(f"cannot parse rational {x[:40]!r}: {e}") from e
    raise PreconditionError(f"not an exact rational: {x!r}")


def _record_rationals(values, what: str) -> list:
    """Fractions from a JSON record's rationals, each a string or an integer;
    anything else (bools and floats included) raises PreconditionError."""
    if any(isinstance(v, bool) or not isinstance(v, (str, int)) for v in values):
        raise PreconditionError(f"{what} rationals must be strings or integers")
    return [_rat(v) for v in values]


def _raw(beta: Fraction, nums: tuple, scale: int) -> "QSeries":
    """A series from fields that are already in canonical form.

    nums tuples are built from lists, never from generators: a tuple grown
    from a generator is resized outside the tuple free list, so freeing it
    grows that list, which pins memory for the life of the process.
    """
    out = object.__new__(QSeries)
    out.beta = beta
    out.nums = nums
    out.scale = scale
    return out


def _series(beta: Fraction, nums, scale: int) -> "QSeries":
    """The canonical series q^beta * sum_t (nums[t] / scale) q^t.

    Absorbs leading zeros into beta, resets the zero series to beta = 0 and
    divides out the content of (scale, *nums), making scale positive.
    """
    n = len(nums)
    lead = 0
    while lead < n and not nums[lead]:
        lead += 1
    if lead == n:
        # zero series: beta = 0 by convention; the known-zero window
        # [0, top] is sound because the original series had no support
        # below its own window either
        top = beta + (n - 1)
        return _raw(_ZERO, (0,) * (max(0, top.__floor__()) + 1), 1)
    if lead:
        beta = beta + lead
        nums = nums[lead:]
    nums, scale = _content_free(nums, scale)
    return _raw(beta, tuple(nums), scale)


def _content_free(nums, scale: int) -> tuple:
    """nums and scale divided by the gcd of scale and nums, made positive on
    the scale; leading zeros stay, so the pair keeps its exponent."""
    g = gcd(scale, *nums)
    if scale < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        scale //= g
    return nums, scale


def _sum(n: int, terms) -> tuple:
    """Numerators and scale of sum c * a * b through step n, with no content pass.

    Each term (c, a, b, off) has an int or Fraction c and (nums, scale) pairs a
    and b on one coset; b is None for a plain term.  The product a * b, cut to
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
        scale = lcm(scale, s)
    out = [0] * (n + 1)
    for p, s, off, nums in parts:
        m = p * (scale // s)
        end = min(n + 1, off + len(nums))
        out[off:end] = [y + m * x for y, x in zip(out[off:end], nums)]
    if late and not any(out):
        raise PrecisionError("a term starts past the window of a zero sum")
    return out, scale


def _lincomb(beta: Fraction, n: int, terms) -> "QSeries":
    """The canonical q^beta * sum_{t<=n} c_t q^t of a _sum: one content pass."""
    return _series(beta, *_sum(n, terms))


def _theta(beta: Fraction, f) -> tuple:
    """The pair of q d/dq on the pair f = (nums, scale) of q^beta * sum_t
    (nums[t] / scale) q^t: with beta = p/q, step t has exponent (p + q t) / q."""
    p, q = beta.numerator, beta.denominator
    nums, scale = f
    return [x * (p + q * t) for t, x in enumerate(nums)], scale * q


def _theta_minor(n: int, beta_a: Fraction, a, beta_b: Fraction, b) -> tuple:
    """The pair of f_a theta(f_b) - f_b theta(f_a) through step n, on the
    exponent beta_a + beta_b, for the pairs a and b of f_a = q^beta_a * sum_i
    (a_i / S_a) q^i and f_b: with beta = p/q, step i of theta(f) carries
    (p + q i) / q, so the pair (i, j) carries (p_b q_a - p_a q_b + q_a q_b (j - i))
    / (q_a q_b).  No content pass."""
    pa, qa = beta_a.numerator, beta_a.denominator
    pb, qb = beta_b.numerator, beta_b.denominator
    return _weighted(a[0], b[0], pb * qa - pa * qb, qa * qb, n + 1), a[1] * b[1] * qa * qb


def _recurrence(n: int, step) -> tuple:
    """The pair (nums, m) of the terms a_0, ..., a_(n-1) of an exact
    recursion, with a_t = nums[t] / m.

    step(t, nums, m) reads the terms before t and gives (acc, den) with a_t =
    acc / (m den), den nonzero.  Each step takes into m only the part of den
    that acc does not cancel, and rescales the earlier numerators by it, so
    from m = 1 the pair keeps m > 0 and gcd(m, *nums) == 1: m is the lcm of
    the reduced denominators of the terms.  A den of 1 takes no gcd."""
    nums, m = [], 1
    for t in range(n):
        acc, den = step(t, nums, m)
        if den < 0:
            acc, den = -acc, -den
        g = 1 if den == 1 else gcd(acc, den)
        if den != g:
            den //= g
            nums = [a * den for a in nums]
            m *= den
        nums.append(acc // g)
    return nums, m


def _quotient(P, C) -> tuple:
    """The pair of the series quotient P / C of the pairs P = (nums, sp) and
    C = (nums, sc), through the shorter operand, content-free.  Both start at
    their own exponents, so C's entry at step 0 must be nonzero, or
    InternalCheckError is raised.

    With p_t = P_t / sp, c_t = C_t / sc and q_u = A_u / M, the step q_t =
    (p_t - sum_{u<t} q_u c_(t-u)) / c_0 has numerator P_t M sc - sp sum_u A_u
    C_(t-u) over M sp C_0: one _recurrence."""
    (pn, sp), (cn, sc) = P, C
    if not cn[0]:
        raise InternalCheckError("exact quotient by a series whose leading entry is zero")
    lead = sp * cn[0]

    def step(t, nums, m):
        return pn[t] * m * sc - sp * sum([a * c for a, c in zip(nums, cn[t:0:-1]) if a]), lead

    return _recurrence(min(len(pn), len(cn)), step)


def _pair(s: "QSeries") -> tuple:
    """The (nums, scale) pair of s."""
    return s.nums, s.scale


def _numerators_at(s: "QSeries", lo, count: int, scale: int) -> list:
    """The coefficients of s at lo, lo + 1, ..., lo + count - 1 times scale, a
    multiple of s.scale: zero off the coset and below beta.  The window must
    reach lo + count - 1."""
    out = [0] * count
    step = lo - s.beta
    if step.denominator == 1:
        start, m = int(step), scale // s.scale
        t0 = min(count, max(0, -start))
        out[t0:] = [x * m for x in s.nums[start + t0 : start + count]]
    return out


class QSeries:
    """Truncated q-expansion q^beta * (c_0 + c_1 q + c_2 q^2 + ...)."""

    __slots__ = ("beta", "nums", "scale")

    def __init__(self, beta, coeffs):
        beta = _rat(beta)
        cs = [_rat(c) for c in coeffs]
        if not cs:
            raise PreconditionError("QSeries needs at least one coefficient")
        scale = lcm(*[c.denominator for c in cs])
        s = _series(beta, [c.numerator * (scale // c.denominator) for c in cs], scale)
        self.beta, self.nums, self.scale = s.beta, s.nums, s.scale

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
        return self.beta + self.precision

    @property
    def is_zero(self) -> bool:
        return not self.nums[0]

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        if precision < 0:
            raise PreconditionError("precision must be >= 0")
        return _raw(_ZERO, (0,) * (precision + 1), 1)

    @classmethod
    def one(cls, precision: int) -> "QSeries":
        if precision < 0:
            raise PreconditionError("precision must be >= 0")
        return _raw(_ZERO, (1,) + (0,) * precision, 1)

    def coefficient_at(self, exponent) -> Fraction:
        """Coefficient of q^exponent; zero off the coset, error past the window."""
        x = _rat(exponent)
        if x > self.window_top:
            raise PrecisionError(
                f"exponent {x} beyond known window {self.window_top}"
            )
        step = x - self.beta
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
        return _series(self.beta, self.nums[: precision + 1], self.scale)

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "QSeries":
        return _raw(self.beta, tuple([-x for x in self.nums]), self.scale)

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
            return _lincomb(self.beta, self.precision, [(other, _pair(self), None, 0)])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.beta == other.beta
            and self.scale == other.scale
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.beta, self.scale, self.nums))

    def agrees_with(self, other: "QSeries") -> bool:
        """Mathematical agreement on the joint known window.

        Unlike ==, this ignores differences in pessimistic precision
        bookkeeping between algebraically equal computation routes.
        """
        den = (self.beta - other.beta).denominator
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
        return f"QSeries(q^({self.beta}) * [{shown}{tail}], N={self.precision})"

    # -- serialization -----------------------------------------------

    def to_record(self) -> dict:
        return {
            "base_exponent": str(self.beta),
            "coeffs": [str(c) for c in self.coeffs],
            "precision": self.precision,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "QSeries":
        """Inverse of to_record; a malformed record raises PreconditionError."""
        if not isinstance(rec, dict):
            raise PreconditionError("series record must be a JSON object")
        for key in ("base_exponent", "coeffs", "precision"):
            if key not in rec:
                raise PreconditionError(f"series record lacks {key!r}")
        if "grid_denominator" in rec:
            raise PreconditionError("series record carries 'grid_denominator'; series live on the unit grid")
        precision = rec["precision"]
        if isinstance(precision, bool) or not isinstance(precision, int):
            raise PreconditionError("series record 'precision' must be an integer")
        if not isinstance(rec["coeffs"], list):
            raise PreconditionError("series record 'coeffs' must be a list")
        beta, *coeffs = _record_rationals([rec["base_exponent"], *rec["coeffs"]], "series record")
        if len(coeffs) != precision + 1:
            raise PreconditionError("record length disagrees with precision")
        return cls(beta, coeffs)


def add(a: QSeries, b: QSeries) -> QSeries:
    """Sum of two series on one exponent coset, window = min of windows."""
    if a.is_zero or b.is_zero:
        z, s = (a, b) if a.is_zero else (b, a)
        steps = z.precision - s.beta
        if steps < 0:
            raise PrecisionError("zero operand's window ends before the sum starts")
        return s.truncated(int(min(steps, s.precision)))
    diff = a.beta - b.beta
    if diff.denominator != 1:
        raise PreconditionError(f"add: exponent cosets {a.beta % 1} + Z and {b.beta % 1} + Z differ")
    # offsets and windows in unit steps from min(beta)
    shift = diff.numerator
    beta = b.beta if shift >= 0 else a.beta
    oa, ob = max(shift, 0), max(-shift, 0)
    n = min(oa + a.precision, ob + b.precision)
    return _lincomb(beta, n, [(1, _pair(a), None, oa), (1, _pair(b), None, ob)])


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product; base exponents add, precision is the minimum."""
    if a.is_zero or b.is_zero:
        return QSeries.zero(min(a.precision, b.precision))
    n = min(a.precision, b.precision)
    return _lincomb(a.beta + b.beta, n, [(1, _pair(a), _pair(b), 0)])


def divide_exact(a: QSeries, b: QSeries, precision: int) -> QSeries:
    """Quotient s with mul(s, b) = a through the requested precision."""
    if b.is_zero:
        raise PreconditionError("division by the zero series")
    if a.is_zero:
        if precision > a.precision:
            raise PrecisionError("requested precision exceeds the known window")
        return QSeries.zero(precision)
    ia, ib = a.nums, b.nums
    if precision > min(len(ia), len(ib)) - 1:
        raise PrecisionError(
            f"requested precision {precision} exceeds joint precision "
            f"{min(len(ia), len(ib)) - 1}"
        )
    # on the bare numerators, a divisor that leads with 1 takes no gcd
    nums, m = _quotient((ia[: precision + 1], 1), (ib[: precision + 1], 1))
    return _series(a.beta - b.beta, [x * b.scale for x in nums], m * a.scale)


def q_derivative(a: QSeries) -> QSeries:
    """Apply q d/dq termwise: c q^x becomes x c q^x."""
    return _series(a.beta, *_theta(a.beta, _pair(a)))
