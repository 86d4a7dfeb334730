"""The modular derivative and tuples of component q-expansions.

D_k f = q df/dq - (k/12) E_2 f raises weight by 2.  The E_2 product takes
no dense convolution: with Euler's pentagonal series P = prod (1 - q^j),
E_2 = 1 + 24 theta(P)/P, and P has O(sqrt(N)) nonzero terms on a window of
N steps, so E_2 f = (1 + 24 theta) f - 24 P theta(f/P) costs O(N^(3/2))
additions (``_kernel._e2_times``).

A VvmfVector carries a weight tag, one q-expansion per component, and a
recorded exponent per component; every exponent appearing in component j
lies in lambda_j + Z with lambda_j <= beta_j.  Solvers record lambda_j as
the coset representative in [0, 1).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from ._kernel import _e2_times
from .qseries import QSeries, _pair, _rat, _series, _sum, _theta, mul


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


def _derive(beta: Fraction, f, k: Fraction, *terms) -> tuple:
    """The pair of D_k f plus the further _sum terms, for the pair f = (nums, scale)
    of q^beta * sum_t (nums[t] / scale) q^t, on f's window, with no content pass."""
    nums, scale = f
    e2f = (_e2_times(nums, len(nums)), scale) if k else f  # _sum skips a zero c
    return _sum(len(nums) - 1, [(1, _theta(beta, f), None, 0), (-k / 12, e2f, None, 0), *terms])


def modular_derivative(f: QSeries, k) -> QSeries:
    """D_k f = q df/dq - (k/12) E_2 f, known on the window of f."""
    return _series(f.beta, *_derive(f.beta, _pair(f), _rat(k)))


def derivative_vector(F: VvmfVector) -> VvmfVector:
    """Apply D at the vector's weight; weight tag rises by 2."""
    comps = [modular_derivative(f, F.weight) for f in F.components]
    return VvmfVector(F.weight + 2, comps, F.exponents)


def _ladder(F: VvmfVector, n: int) -> list:
    """[F, DF, ..., D^n F], each derivative taken at the weight of the one before."""
    out = [F]
    for _ in range(n):
        out.append(derivative_vector(out[-1]))
    return out
