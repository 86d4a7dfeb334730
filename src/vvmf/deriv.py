"""The modular derivative and tuples of component q-expansions.

D_k f = q df/dq - (k/12) E_2 f raises weight by 2.  A VvmfVector carries a
weight tag, one q-expansion per component, and a recorded exponent per
component; every exponent appearing in component j lies in lambda_j + Z
with lambda_j <= beta_j.  Solvers record lambda_j as the coset
representative in [0, 1).
"""

from __future__ import annotations

from fractions import Fraction

from ._kernel import convolve
from .errors import PreconditionError
from .forms import eisenstein
from .qseries import QSeries, _rat, _series, _spread, _theta, mul


class VvmfVector:
    """Weight-tagged tuple of q-expansions with recorded exponent cosets."""

    def __init__(self, weight, components, exponents):
        self.weight = _rat(weight)
        comps = tuple(components)
        if not comps:
            raise PreconditionError("vector needs at least one component")
        for f in comps:
            if not isinstance(f, QSeries):
                raise PreconditionError("components must be QSeries")
            if f.den != 1:
                raise PreconditionError("components must live on the integer grid")
        # tuples from lists, not generators: see qseries._raw
        exps = tuple([_rat(x) for x in exponents])
        if len(exps) != len(comps):
            raise PreconditionError("one recorded exponent per component")
        n = min(f.precision for f in comps)
        comps = tuple([f.truncated(n) for f in comps])
        for f, lam in zip(comps, exps):
            if f.is_zero:
                continue
            off = f.beta - lam
            if off.denominator != 1 or off < 0:
                raise PreconditionError(
                    "component support must lie in its exponent coset, at or above it"
                )
        self.components = comps
        self.exponents = exps

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def precision(self) -> int:
        return self.components[0].precision

    def truncated(self, n: int) -> "VvmfVector":
        return VvmfVector(self.weight, [f.truncated(n) for f in self.components], self.exponents)

    def scaled(self, c) -> "VvmfVector":
        c = _rat(c)
        return VvmfVector(self.weight, [c * f for f in self.components], self.exponents)

    def plus(self, other: "VvmfVector") -> "VvmfVector":
        if self.weight != other.weight:
            raise PreconditionError("can only add vectors of equal weight")
        if self.exponents != other.exponents:
            raise PreconditionError("can only add vectors with matching exponents")
        comps = [a + b for a, b in zip(self.components, other.components)]
        return VvmfVector(self.weight, comps, self.exponents)

    def times_form(self, series: QSeries, form_weight) -> "VvmfVector":
        """Multiply every component by a weight form_weight scalar expansion."""
        w = self.weight + _rat(form_weight)
        comps = [mul(f, series) for f in self.components]
        return VvmfVector(w, comps, self.exponents)

    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.components)

    def __repr__(self) -> str:
        return "VvmfVector(weight=%r, d=%d, exponents=%r)" % (
            str(self.weight),
            self.d,
            tuple(str(x) for x in self.exponents),
        )


def _derive(beta: Fraction, den: int, nums, scale: int, k: Fraction):
    """Numerators and scale of D_k on q^beta * sum_t (nums[t] / scale) q^(t/den),
    on the input's window with no content pass; no product at k = 0 or on zero."""
    theta, m = _theta(beta, den, nums)
    c = k / 12
    if not c or not any(nums):
        return theta, scale * m
    e2 = eisenstein(2, len(nums) - 1)
    conv = convolve(_spread(e2, den), nums, len(nums))
    # theta / (scale m) - a conv / (scale b) over scale m b
    a, b = c.numerator, c.denominator * e2.scale
    return [b * x - a * m * y for x, y in zip(theta, conv)], scale * m * b


def modular_derivative(f: QSeries, k) -> QSeries:
    """D_k f = q df/dq - (k/12) E_2 f, known on the window of f."""
    nums, scale = _derive(f.beta, f.den, f.nums, f.scale, _rat(k))
    return _series(f.beta, f.den, nums, scale)


def derivative_vector(F: VvmfVector) -> VvmfVector:
    """Apply D at the vector's weight; weight tag rises by 2."""
    comps = [modular_derivative(f, F.weight) for f in F.components]
    return VvmfVector(F.weight + 2, comps, F.exponents)


def iterate_derivative(f, k, n: int):
    """n-fold modular derivative D_{k+2(n-1)} ... D_{k+2} D_k.

    Accepts a QSeries with explicit starting weight k, or a VvmfVector
    (k must then be None).
    """
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("iteration count must be an integer >= 0")
    if isinstance(f, VvmfVector):
        if k is not None:
            raise PreconditionError("vector input carries its own weight")
        out = f
        for _ in range(n):
            out = derivative_vector(out)
        return out
    k = _rat(k)
    out = f
    for i in range(n):
        out = modular_derivative(out, k + 2 * i)
    return out

