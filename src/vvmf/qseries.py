"""Exact truncated generalized q-expansions over the rationals.

A QSeries represents q^beta * sum_t c_t q^(t/den) with exact rational
base exponent and coefficients.  The grid denominator den is 1 for every
series produced by the modular machinery; it only becomes larger when two
series on incongruent exponent grids are added, and canonicalization
reduces it back as soon as the populated exponents allow.

Precision is the number of known grid steps past the base exponent: the
series is known exactly on the window [beta, beta + precision/den] and
unknown beyond it.  Every operation propagates the window pessimistically.
All values are immutable and all operations are pure.
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


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class QSeries:
    """Truncated q-expansion q^beta * (c_0 + c_1 q^(1/den) + ...)."""

    __slots__ = ("beta", "den", "coeffs")

    def __init__(self, beta, coeffs, den: int = 1):
        beta = _rat(beta)
        cs = [_rat(c) for c in coeffs]
        if not cs:
            raise PreconditionError("QSeries needs at least one coefficient")
        if den < 1:
            raise PreconditionError("grid denominator must be >= 1")
        # canonical form: absorb leading zeros into beta, reset the zero
        # series to beta = 0, and coarsen the grid when possible
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        if lead == len(cs):
            # zero series: beta = 0 by convention; the known-zero window
            # [0, top] is sound because the original series had no support
            # below its own window either
            top = beta + Fraction(len(cs) - 1, den)
            n = max(0, top.__floor__())
            self.beta = _ZERO
            self.den = 1
            self.coeffs = (_ZERO,) * (n + 1)
            return
        if lead:
            beta = beta + Fraction(lead, den)
            cs = cs[lead:]
        if den > 1:
            g = den
            for t, c in enumerate(cs):
                if c != 0:
                    g = gcd(g, t)
                    if g == 1:
                        break
            if g > 1:
                cs = cs[::g]
                den //= g
        self.beta = beta
        self.den = den
        self.coeffs = tuple(cs)

    # -- structure ---------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    @property
    def window_top(self) -> Fraction:
        """Largest exponent at which the series is known."""
        return self.beta + Fraction(self.precision, self.den)

    @property
    def is_zero(self) -> bool:
        return self.coeffs[0] == 0

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        return cls(0, (0,) * (precision + 1))

    @classmethod
    def one(cls, precision: int) -> "QSeries":
        return cls(0, (1,) + (0,) * precision)

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
        return self.coeffs[int(step)]

    def truncated(self, precision: int) -> "QSeries":
        """The same series cut to the given number of known steps."""
        if precision < 0 or precision > self.precision:
            raise PrecisionError(
                f"cannot truncate precision {self.precision} series to {precision}"
            )
        return QSeries(self.beta, self.coeffs[: precision + 1], self.den)

    def _refined(self, den: int) -> "QSeries":
        """Resample onto a finer grid; den must be a multiple of self.den."""
        if den == self.den:
            return self
        f = den // self.den
        cs = [_ZERO] * (self.precision * f + 1)
        for t, c in enumerate(self.coeffs):
            cs[t * f] = c
        out = object.__new__(QSeries)
        out.beta = self.beta
        out.den = den
        out.coeffs = tuple(cs)
        return out

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries(self.beta, tuple(-c for c in self.coeffs), self.den)

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
            c = _rat(other)
            return QSeries(self.beta, tuple(c * x for x in self.coeffs), self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.beta == other.beta
            and self.den == other.den
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.beta, self.den, self.coeffs))

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
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
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
        coeffs = [Fraction(c) for c in rec["coeffs"]]
        if len(coeffs) != rec["precision"] + 1:
            raise PreconditionError("record length disagrees with precision")
        return cls(Fraction(rec["base_exponent"]), coeffs, rec.get("grid_denominator", 1))


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
    if a.is_zero and b.is_zero:
        return QSeries.zero(min(a.precision, b.precision))
    if a.is_zero or b.is_zero:
        z, s = (a, b) if a.is_zero else (b, a)
        top = min(z.window_top, s.window_top)
        steps = (top - s.beta) * s.den
        if steps < 0:
            raise PrecisionError("zero operand's window ends before the sum starts")
        return QSeries(s.beta, s.coeffs[: int(steps) + 1], s.den)
    den = _lcm(_lcm(a.den, b.den), (a.beta - b.beta).denominator)
    beta = min(a.beta, b.beta)
    top = min(a.window_top, b.window_top)
    n = int((top - beta) * den)
    if n < 0:
        raise PrecisionError("operand windows do not overlap")
    cs = [_ZERO] * (n + 1)
    for s in (a, b):
        f = den // s.den
        off = (s.beta - beta) * den
        off = int(off)
        for t, c in enumerate(s.coeffs):
            i = off + t * f
            if i > n:
                break
            if c != 0:
                cs[i] += c
    return QSeries(beta, cs, den)


def _lowered(coeffs):
    """Common-denominator integer form of a coefficient tuple."""
    d = 1
    for c in coeffs:
        d = _lcm(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product; base exponents add, precision is the minimum."""
    if a.is_zero or b.is_zero:
        return QSeries.zero(min(a.precision, b.precision))
    den = _lcm(a.den, b.den)
    a = a._refined(den)
    b = b._refined(den)
    n = min(a.precision, b.precision)
    ia, da = _lowered(a.coeffs)
    ib, db = _lowered(b.coeffs)
    raw = convolve(ia, ib, n + 1)
    d = da * db
    cs = [Fraction(x, d) for x in raw]
    return QSeries(a.beta + b.beta, cs, den)


def divide_exact(a: QSeries, b: QSeries, precision: int) -> QSeries:
    """Quotient s with mul(s, b) = a through the requested precision."""
    if b.is_zero:
        raise PreconditionError("division by the zero series")
    if a.is_zero:
        if precision > a.precision:
            raise PrecisionError("requested precision exceeds the known window")
        return QSeries.zero(precision)
    den = _lcm(a.den, b.den)
    a = a._refined(den)
    b = b._refined(den)
    if precision > min(a.precision, b.precision):
        raise PrecisionError(
            f"requested precision {precision} exceeds joint precision "
            f"{min(a.precision, b.precision)}"
        )
    b0 = b.coeffs[0]
    out = []
    for t in range(precision + 1):
        acc = a.coeffs[t]
        for u, su in enumerate(out):
            if su != 0:
                j = t - u
                if j <= b.precision:
                    acc -= su * b.coeffs[j]
        out.append(acc / b0)
    return QSeries(a.beta - b.beta, out, den)


def q_derivative(a: QSeries) -> QSeries:
    """Apply q d/dq termwise: c q^x becomes x c q^x."""
    cs = [
        (a.beta + Fraction(t, a.den)) * c for t, c in enumerate(a.coeffs)
    ]
    return QSeries(a.beta, cs, a.den)
