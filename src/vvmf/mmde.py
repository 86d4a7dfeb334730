"""Monic modular differential operators in Eisenstein form.

An order n operator acting in weight k is

    L = D_k^n + sum_{l=2..n} alpha_{2l} E_{2l} D_k^{n-l}

optionally deformed by a cusp form term c*Delta at order 6.  The indicial
polynomial, the operator uniquely determined by a prescribed root multiset,
and the residual of applying an operator to a q-expansion are all exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .deriv import _derive
from .errors import InternalCheckError, PreconditionError
from .forms import delta, eisenstein
from .qseries import QSeries, _lincomb, _pair, _rat, _record_rationals

_TRIAL_DIVISION_CAP = 2_000_000


def _poly_mul_linear(p, c):
    """p(x) * (x - c), coefficients ascending."""
    out = [Fraction(0)] * (len(p) + 1)
    for i, a in enumerate(p):
        out[i] -= a * c
        out[i + 1] += a
    return out


def _poly_from_roots(roots):
    p = [Fraction(1)]
    for r in roots:
        p = _poly_mul_linear(p, r)
    return p


class Mmde:
    """Monic operator D_k^n + sum alpha_{2l} E_{2l} D_k^{n-l}, optionally
    with a cusp term c*Delta.

    The cusp deformation only exists at order 6, where Delta first has the
    right weight.  Indicial roots are cached when known at construction and
    otherwise recovered by exact rational root extraction.
    """

    def __init__(self, order: int, weight, alphas, cusp_c=None, roots=None):
        if isinstance(order, bool) or not isinstance(order, int) or order < 1:
            raise PreconditionError("order must be an integer >= 1")
        self.order = order
        self.weight = _rat(weight)
        self.alphas = tuple([_rat(a) for a in alphas])
        if len(self.alphas) != order - 1:
            raise PreconditionError("expected %d Eisenstein coefficients" % (order - 1))
        if cusp_c is not None:
            cusp_c = _rat(cusp_c)
            if order != 6:
                raise PreconditionError("a cusp term requires order exactly 6")
            if cusp_c == 0:
                cusp_c = None
        self.cusp_c = cusp_c
        self._roots = None
        if roots is not None:
            self._roots = tuple(sorted(_rat(r) for r in roots))
            if len(self._roots) != order:
                raise PreconditionError("need one indicial root per order")

    @property
    def indicial_roots(self):
        if self._roots is None:
            poly = list(indicial_polynomial(self)) + [Fraction(1)]
            self._roots = tuple(sorted(_rational_roots(poly)))
        return self._roots

    def to_record(self) -> dict:
        rec = {
            "order": self.order,
            "weight": str(self.weight),
            "alphas": [str(a) for a in self.alphas],
        }
        if self.cusp_c is not None:
            rec["cusp_c"] = str(self.cusp_c)
        if self._roots is not None:
            rec["indicial_roots"] = [str(r) for r in self._roots]
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Mmde":
        """Inverse of to_record; a malformed record raises PreconditionError."""
        if not isinstance(rec, dict) or "order" not in rec or "weight" not in rec:
            raise PreconditionError("operator record must be a JSON object with 'order' and 'weight'")
        alphas, roots, cusp = rec.get("alphas", []), rec.get("indicial_roots"), rec.get("cusp_c")
        if not isinstance(alphas, list) or not isinstance(roots, (list, type(None))):
            raise PreconditionError("operator record 'alphas' and 'indicial_roots' must be lists")
        weight, *alphas = _record_rationals([rec["weight"], *alphas], "operator record")
        roots = None if roots is None else _record_rationals(roots, "operator record")
        cusp = None if cusp is None else _record_rationals([cusp], "operator record")[0]
        out = cls(rec["order"], weight, alphas, cusp_c=cusp, roots=roots)
        if out._roots is not None:
            poly = list(indicial_polynomial(out)) + [Fraction(1)]
            if _poly_from_roots(out._roots) != poly:
                raise PreconditionError("stored indicial roots do not match the operator")
        return out

    def __repr__(self) -> str:
        return "Mmde(order=%d, weight=%s, alphas=%r, cusp_c=%r)" % (
            self.order,
            self.weight,
            tuple(str(a) for a in self.alphas),
            None if self.cusp_c is None else str(self.cusp_c),
        )


def _theta_poly_constants(n: int, k) -> list:
    """Ascending coefficients of the indicial polynomials of D_k^m for m =
    0..n, which are the prefixes prod_{i<m} (x - (k + 2i)/12) of one product."""
    out = [[Fraction(1)]]
    for i in range(n):
        out.append(_poly_mul_linear(out[-1], Fraction(k + 2 * i, 12)))
    return out


def indicial_polynomial(L) -> tuple:
    """Coefficients A_0..A_{n-1} of the monic indicial polynomial of L."""
    if not isinstance(L, Mmde):
        raise PreconditionError("expected an operator")
    n, k = L.order, L.weight
    prefixes = _theta_poly_constants(n, k)
    poly = prefixes[n]
    for l in range(2, n + 1):
        a = L.alphas[l - 2]
        if a == 0:
            continue
        for i, v in enumerate(prefixes[n - l]):
            poly[i] += a * v
    if poly[n] != 1:
        raise InternalCheckError("indicial polynomial must be monic")
    return tuple(poly[:n])


def unique_operator(roots) -> Mmde:
    """The Eisenstein-form operator whose indicial roots are the given multiset.

    The weight is forced by the root sum; the Eisenstein coefficients follow
    from a triangular recursion against the indicial polynomials of the
    derivative powers.  For order <= 5 this operator is the only monic one
    with these roots; at higher order it is still well defined within the
    Eisenstein form.
    """
    roots = [_rat(r) for r in roots]
    n = len(roots)
    if n < 1:
        raise PreconditionError("need at least one indicial root")
    lam = sum(roots, Fraction(0))
    ff = _poly_from_roots(range(n))
    k = Fraction(12, n) * (ff[n - 1] + lam) + 5 * (n - 1)
    if k != Fraction(12) * lam / n + 1 - n:
        raise InternalCheckError("weight formula self-check failed")
    rem = _poly_from_roots(sorted(roots))
    prefixes = _theta_poly_constants(n, k)
    for i, v in enumerate(prefixes[n]):
        rem[i] -= v
    if rem[n] != 0 or rem[n - 1] != 0:
        raise InternalCheckError("degree drop after weight normalization failed")
    alphas = [Fraction(0)] * (n - 1)
    for l in range(2, n + 1):
        a = rem[n - l]
        alphas[l - 2] = a
        if a:
            for i, v in enumerate(prefixes[n - l]):
                rem[i] -= a * v
    if any(rem):
        raise InternalCheckError("Eisenstein recursion left a nonzero remainder")
    return Mmde(n, k, alphas, roots=roots)


def appendix_family(exponents, c) -> Mmde:
    """Order-6 weight-0 family: compose the order-5 operator of the given
    exponents with the weight-0 derivative, then add c*Delta.

    Requires the exponent sum 5/2 so the order-5 factor acts in weight 2;
    the indicial roots are then {0} union the exponents for every c.
    """
    lam5 = [_rat(r) for r in exponents]
    if len(lam5) != 5:
        raise PreconditionError("the family takes exactly five exponents")
    l5 = unique_operator(lam5)
    if l5.weight != 2:
        raise PreconditionError(
            "exponent sum must be 5/2 so the order-5 factor has weight 2"
        )
    alphas6 = tuple(l5.alphas) + (Fraction(0),)
    return Mmde(6, 0, alphas6, cusp_c=c, roots=[Fraction(0)] + lam5)


def apply(L, f: QSeries) -> QSeries:
    """Residual series L f, computed through the derivative ladder.

    The ladder multiplies by E_2 through Euler's pentagonal series, so the
    residual shares no E_2 series with the theta form, whose monomials take
    E_2 from the divisor sieve: it stays a second route to the solutions.
    """
    if not isinstance(L, Mmde):
        raise PreconditionError("expected an operator")
    if not isinstance(f, QSeries):
        raise PreconditionError("operand must be a QSeries")
    n, k = L.order, L.weight
    beta, top = f.beta, f.precision
    # the ladder D^i f as raw pairs, on f's window
    ladder = [_pair(f)]
    for i in range(n):
        ladder.append(_derive(beta, ladder[-1], k + 2 * i))
    terms = [(1, ladder[n], None, 0)]
    for l in range(2, n + 1):
        terms.append((L.alphas[l - 2], _pair(eisenstein(2 * l, top)), ladder[n - l], 0))
    if L.cusp_c is not None:
        terms.append((L.cusp_c, _pair(delta(top)), ladder[0], 1))
    return _lincomb(beta, top, terms)


def _divisors(m: int):
    assert m > 0
    small, large = [], []
    d = 1
    root = isqrt(m)
    steps = 0
    while d <= root:
        steps += 1
        if steps > _TRIAL_DIVISION_CAP:
            raise PreconditionError(
                "indicial root extraction too large; supply indicial_roots explicitly"
            )
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _rational_roots(poly) -> list:
    """All roots of a monic polynomial with rational coefficients, which is
    required to split over the rationals; raises otherwise."""
    coeffs = [_rat(a) for a in poly]
    if coeffs[-1] != 1:
        raise InternalCheckError("root extraction expects a monic polynomial")
    den = lcm(*[a.denominator for a in coeffs])
    # y = den*x turns the polynomial into a monic integer one in y
    n = len(coeffs) - 1
    ints = [int(coeffs[i] * den ** (n - i)) for i in range(n + 1)]
    roots = []
    while n > 0:
        if ints[0] == 0:
            y = 0
        else:
            y = None
            for p in _divisors(abs(ints[0])):
                for cand in (p, -p):
                    acc = 1
                    for i in range(n - 1, -1, -1):
                        acc = acc * cand + ints[i]
                    if acc == 0:
                        y = cand
                        break
                if y is not None:
                    break
            if y is None:
                raise PreconditionError("indicial polynomial has an irrational root")
        roots.append(Fraction(y, den))
        new = [0] * n
        acc = 1
        for i in range(n - 1, -1, -1):
            new[i] = acc
            acc = acc * y + ints[i]
        ints = new
        n -= 1
    return roots
