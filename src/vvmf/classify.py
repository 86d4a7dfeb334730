"""Multiplier arithmetic and the low-dimensional weight classification.

Roots of unity are handled as exact rational angles.  For input data
(T-eigenvalue angles, the sign of -I, a multiplier system) the one entry
``classification`` produces the minimal weight and generator-weight offsets
of the associated graded module in dimensions 1 through 5, with the branch
data: the twist parity in dimension 4, the twist class N, its anchor weight
k_N and grading shift n_N in dimension 5.  Dimensions 1-3, the odd branch of
dimension 4 and the twist class N = 0 of dimension 5 share one cyclic
series: offsets 0 .. d-1 from weight 12*(lambda sum)/d + 1 - d.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

from .errors import (
    ParityUnsolvableError,
    PreconditionError,
    ReducibilityBoundaryError,
    TDeterminedRequiredError,
)
from .forms import _classical_dimension
from .qseries import _rat


class RationalAngle:
    """A root of unity e(x), stored as the exact angle x reduced into [0, 1)."""

    __slots__ = ("value",)

    def __init__(self, x):
        v = _rat(x)
        object.__setattr__(self, "value", v - v.__floor__())

    def __setattr__(self, name, value):
        raise AttributeError("RationalAngle is immutable")

    def __add__(self, other):
        if not isinstance(other, RationalAngle):
            return NotImplemented
        return RationalAngle(self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, RationalAngle):
            return NotImplemented
        return RationalAngle(self.value - other.value)

    def __neg__(self):
        return RationalAngle(-self.value)

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return RationalAngle(self.value * n)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RationalAngle):
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(("RationalAngle", self.value))

    def __repr__(self):
        return "RationalAngle(%s)" % self.value

    def __str__(self):
        return str(self.value)


class MultiplierSpec:
    """Multiplier system of eta^{2w} twisted by the N-th power of the
    weight-0 character of the commutator quotient."""

    def __init__(self, eta_weight, chi_power: int):
        w = _rat(eta_weight)
        if not (0 <= w < 12):
            raise PreconditionError("eta weight must lie in [0, 12)")
        if not isinstance(chi_power, int) or not (0 <= chi_power <= 11):
            raise PreconditionError("character power must be an integer in 0..11")
        self.eta_weight = w
        self.chi_power = chi_power

    @classmethod
    def trivial(cls) -> "MultiplierSpec":
        return cls(0, 0)

    @property
    def cusp_parameter(self) -> Fraction:
        m = self.eta_weight + self.chi_power
        return m - 12 * (m / 12).__floor__()

    def __eq__(self, other):
        if not isinstance(other, MultiplierSpec):
            return NotImplemented
        return self.eta_weight == other.eta_weight and self.chi_power == other.chi_power

    def __repr__(self):
        return "MultiplierSpec(eta_weight=%s, chi_power=%d)" % (self.eta_weight, self.chi_power)


def multiplier_values(m: MultiplierSpec) -> dict:
    """Angles of the multiplier at T and at S^2, plus the cusp parameter."""
    s = m.eta_weight + m.chi_power
    return {
        "angle_T": RationalAngle(s / 12),
        "angle_S2": RationalAngle(-s / 2),
        "cusp_parameter": m.cusp_parameter,
    }


def minimal_admissible_set(r, m):
    """Exponents lambda_j = frac(r_j + m/12) with the integer drops l_j."""
    m = _rat(m)
    if not (0 <= m < 12):
        raise PreconditionError("cusp parameter must lie in [0, 12)")
    lams, ls = [], []
    for x in r:
        x = _rat(x)
        if not (0 <= x < 1):
            raise PreconditionError("eigenvalue angles must lie in [0, 1)")
        raw = x + m / 12
        # raw lies in [0, 2), so the drop -floor(raw) is 0 or -1
        lams.append(raw - raw.__floor__())
        ls.append(-raw.__floor__())
    return tuple(lams), tuple(ls)


def t_determined_heuristic(r) -> bool:
    """True when no proper nonempty sub-multiset of the angles sums to a
    multiple of 1/12; sufficient for the representation to be determined by
    its T-eigenvalues."""
    vals = [_rat(x) for x in r]
    for size in range(1, len(vals)):
        for sub in combinations(vals, size):
            if (12 * sum(sub)).denominator == 1:
                return False
    return True


class RepInput:
    """Classifying data of an irreducible representation: T-eigenvalue
    angles, the scalar at -I, and the multiplier system, with the admissible
    exponents (lambdas) and drops of minimal_admissible_set."""

    def __init__(self, dimension: int, exponents, epsilon: int, multiplier: MultiplierSpec,
                 t_determined_asserted: bool = False):
        if not isinstance(dimension, int) or not (1 <= dimension <= 5):
            raise PreconditionError("dimension must be 1..5")
        exps = tuple([_rat(x) for x in exponents])
        if len(exps) != dimension:
            raise PreconditionError("need one eigenvalue angle per dimension")
        for x in exps:
            if not (0 <= x < 1):
                raise PreconditionError("eigenvalue angles must lie in [0, 1)")
        if dimension >= 2 and len(set(exps)) != dimension:
            raise PreconditionError("eigenvalue angles must be pairwise distinct")
        if epsilon not in (1, -1):
            raise PreconditionError("the scalar at -I must be +1 or -1")
        if not isinstance(multiplier, MultiplierSpec):
            raise PreconditionError("multiplier must be a MultiplierSpec")
        rsum = sum(exps, Fraction(0))
        if dimension == 2:
            diff = exps[0] - exps[1]
            diff -= diff.__floor__()
            if diff in (Fraction(1, 6), Fraction(5, 6)):
                raise ReducibilityBoundaryError(
                    "eigenvalue ratio is a primitive sixth root of unity"
                )
        if dimension == 4 and (3 * rsum).denominator != 1:
            raise PreconditionError("dimension 4 requires 3 * (angle sum) integral")
        if dimension in (1, 5) and (12 * rsum).denominator != 1:
            raise PreconditionError("dimension %d requires 12 * (angle sum) integral" % dimension)
        self.dimension = dimension
        self.exponents = exps
        self.epsilon = epsilon
        self.multiplier = multiplier
        self.t_determined_asserted = bool(t_determined_asserted)
        self.t_determined = self.t_determined_asserted or t_determined_heuristic(exps)
        self.lambdas, self.drops = minimal_admissible_set(exps, multiplier.cusp_parameter)


class HpSeries:
    """Minimal weight plus generator offsets; the graded dimension data
    t^{k0} P(t) / ((1-t^4)(1-t^6)) with P(t) = sum over offsets of t^{2o}."""

    def __init__(self, k0, offsets):
        self.k0 = _rat(k0)
        offs = tuple(sorted(offsets))
        if not offs:
            raise PreconditionError("need at least one generator offset")
        for o in offs:
            if not isinstance(o, int) or o < 0:
                raise PreconditionError("offsets must be nonnegative integers")
        self.offsets = offs

    @property
    def rank(self) -> int:
        return len(self.offsets)

    def numerator(self) -> str:
        counts = Counter(self.offsets)
        terms = []
        for o in sorted(counts):
            c = counts[o]
            if o == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append("t^%d" % (2 * o))
            else:
                terms.append("%dt^%d" % (c, 2 * o))
        return "+".join(terms)

    def __eq__(self, other):
        if not isinstance(other, HpSeries):
            return NotImplemented
        return self.k0 == other.k0 and self.offsets == other.offsets

    def __repr__(self):
        return "HpSeries(k0=%s, offsets=%r)" % (self.k0, self.offsets)


def hp_dimension(h: HpSeries, k) -> int:
    """Coefficient of t^k in the graded dimension series; 0 off the grading."""
    diff = _rat(k) - h.k0
    if diff < 0 or diff.denominator != 1 or int(diff) % 2 != 0:
        return 0
    d = int(diff)
    # the number of E_4^a E_6^b of weight d - 2o is the classical dimension
    return sum(_classical_dimension(d - 2 * o) for o in h.offsets)


def _require_t_determined(rep: RepInput, both: str):
    if not rep.t_determined:
        raise TDeterminedRequiredError(
            "classification in dimension %d needs the T-determined hypothesis; "
            "without it the structure is one of: %s. Re-run with the flag "
            "asserted if the representation is known to be T-determined." % (rep.dimension, both)
        )


def _cyclic_hp(rep: RepInput) -> HpSeries:
    """The series of a module generated by one form over forms and the modular derivative."""
    d = rep.dimension
    return HpSeries(12 * sum(rep.lambdas) / d + 1 - d, range(d))


def dim4_parity(rep: RepInput) -> str:
    """Parity of the character twist, solved from the scalar at -I."""
    if rep.dimension != 4:
        raise PreconditionError("expected a four-dimensional input")
    lam = sum(rep.lambdas)
    mv = multiplier_values(rep.multiplier)
    eps_angle = RationalAngle(0 if rep.epsilon == 1 else Fraction(1, 2))
    half_n = eps_angle + mv["angle_S2"] + RationalAngle(Fraction(3, 2) * lam)
    if half_n.value == 0:
        return "even"
    if half_n.value == Fraction(1, 2):
        return "odd"
    raise ParityUnsolvableError(
        "no integer twist parity matches the given sign and multiplier"
    )


_DIM5_SHIFTS = (0, 0, -2, -3, -4)
_DIM5_OFFSETS = {
    0: (0, 1, 2, 3, 4),
    1: (0, 0, 1, 1, 2),
    2: (0, 1, 2, 2, 3),
    3: (0, 1, 1, 2, 3),
    4: (0, 1, 1, 2, 2),
}


def dim5_data(rep: RepInput) -> dict:
    """Twist class N, anchor weight k_N, grading shift n_N, and offsets."""
    if rep.dimension != 5:
        raise PreconditionError("expected a five-dimensional input")
    _require_t_determined(
        rep,
        "one of the five twist classes N=0..4 with anchor weight 12(lambda+N)/5 - 4",
    )
    # the N with 12 * (angle sum + drop sum + N) = 0 (mod 5), as 12 * 3 = 1 (mod 5)
    n = int(-36 * (sum(rep.exponents) + sum(rep.drops))) % 5
    lam = sum(rep.lambdas)
    k_n = Fraction(12) * (lam + n) / 5 - 4
    return {
        "N": n,
        "k_N": k_n,
        "n_N": _DIM5_SHIFTS[n],
        "k0": k_n + 2 * _DIM5_SHIFTS[n],
        "offsets": _DIM5_OFFSETS[n],
    }


def classification(rep: RepInput) -> tuple:
    """(HpSeries, branch data) of rep, keyed as the structure reports print
    them: {"parity"} in dimension 4, {"N", "k_N", "n_N"} in dimension 5 and
    none below.  In dimension 4 the T-determined hypothesis is checked before
    the parity."""
    if rep.dimension < 4:
        return _cyclic_hp(rep), {}
    if rep.dimension == 5:
        data = dim5_data(rep)
        return HpSeries(data["k0"], data["offsets"]), {k: data[k] for k in ("N", "k_N", "n_N")}
    _require_t_determined(
        rep,
        "cyclic with offsets {0,1,2,3} at 3*lambda-3, or offsets {0,1,1,2} at 3*lambda-2",
    )
    parity = dim4_parity(rep)
    h = _cyclic_hp(rep) if parity == "odd" else HpSeries(3 * sum(rep.lambdas) - 2, (0, 1, 1, 2))
    return h, {"parity": parity}
