"""Constructive module-structure tools for vectors of q-expansions.

Generator sets from iterated modular derivatives, exact ranks of truncated
weight spaces, the search for combinations divisible by the discriminant,
division by the discriminant, the scripted verification ``structure`` of
the structure theorems in dimensions 1 through 5, and the order-six
one-parameter family.  ``structure`` classifies its input once, refusals
included, and then runs only its series part, on d unit steps first.  One
cyclic check serves dimensions 1-3, the odd branch of dimension 4 and the
twist class N = 0 of dimension 5.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm as _lcm

from . import linalg
from .classify import RepInput, classification, hp_dimension
from .deriv import VvmfVector, _ladder, derivative_vector
from .errors import DivisibilityError, PrecisionError, PreconditionError
from .forms import delta, eisenstein, mspace_basis
from .frobenius import monodromy_T, solve_fundamental_system
from .mmde import appendix_family, apply, indicial_polynomial, unique_operator
from .qseries import QSeries, _numerators_at, _rat, divide_exact


def _independent_components(F: VvmfVector) -> bool:
    groups: dict = {}
    for j, f in enumerate(F.components):
        if f.is_zero:
            return False
        key = f.beta - f.beta.__floor__()
        groups.setdefault(key, []).append((j, f))
    for members in groups.values():
        if len(members) == 1:
            continue
        fs = [f for _, f in members]
        lo = min(f.beta for f in fs)
        j, short = min(members, key=lambda m: m[1].window_top)
        # one column per component, from the lowest leading exponent up
        need = lo + len(fs) - 1
        if short.window_top < need:
            raise PrecisionError(
                "d_iterate_generators: not enough precision to certify independence: "
                "component %d is known through q^%s, short of q^%s for %d components on one coset"
                % (j, short.window_top, need, len(fs))
            )
        cols = int((short.window_top - lo).__floor__()) + 1
        rows = [_numerators_at(f, lo, cols, f.scale) for f in fs]
        if linalg.rank(rows, cols) != len(fs):
            return False
    return True


def d_iterate_generators(F: VvmfVector, n: int) -> list:
    """[F, DF, ..., D^{n-1}F] with stepped weight tags."""
    if not isinstance(n, int) or not (1 <= n <= F.d):
        raise PreconditionError("iterate count must be in 1..d")
    if not _independent_components(F):
        raise PreconditionError("components must be linearly independent")
    return _ladder(F, n - 1)


def module_products(generators, target_weight) -> list:
    """All products b * G_i with b in the form basis of weight target - w_i.

    Generators whose gap is negative, odd, or non-integral contribute
    nothing.  Order is generator-major, then basis order.
    """
    target = _rat(target_weight)
    out = []
    for g in generators:
        gap = target - g.weight
        if gap < 0 or gap.denominator != 1 or int(gap) % 2 != 0:
            continue
        basis = mspace_basis(int(gap), g.precision)
        for b in basis.expansions:
            out.append(g.times_form(b, int(gap)))
    return out


def _stacked_rows(vectors, max_cols=None):
    first = vectors[0]
    d = first.d
    for v in vectors:
        if v.exponents != first.exponents:
            raise PreconditionError("vectors must share recorded exponents")
    caps = []
    for j in range(d):
        lam = first.exponents[j]
        hi = min(v.components[j].window_top for v in vectors)
        cap = int((hi - lam).__floor__())
        if cap < 0:
            raise PrecisionError(
                "rank rows: component window does not reach its exponent: component %d is known through q^%s, below q^%s"
                % (j, hi, lam)
            )
        if max_cols is not None:
            cap = min(cap, max_cols - 1)
        caps.append(cap)
    rows = []
    for v in vectors:
        scale = _lcm(*[f.scale for f in v.components])
        row = []
        for f, lam, cap in zip(v.components, first.exponents, caps):
            row += _numerators_at(f, lam, cap + 1, scale)
        rows.append(row)
    return rows, sum(c + 1 for c in caps)


def vector_rank(vectors) -> int:
    """Exact rank of a family of vectors sharing recorded exponents."""
    vectors = list(vectors)
    if not vectors:
        return 0
    rows, ncols = _stacked_rows(vectors)
    return linalg.rank(rows, ncols)


def weight_space_dimension(generators, target_weight, n_samples: int) -> int:
    """Rank of the span of form-multiples of the generators at one weight.

    This is a lower bound for the dimension of the weight space; paired
    with the graded-series upper bound it certifies equality.  n_samples
    caps the coefficient window used per component.
    """
    if n_samples < 1:
        raise PreconditionError("need at least one coefficient sample")
    return _product_rank(generators, target_weight, n_samples)[0]


def _product_rank(generators, target_weight, n_samples: int) -> tuple:
    """(rank, count) of the module products at one weight, on n_samples columns per component."""
    prods = module_products(generators, target_weight)
    if not prods:
        return 0, 0
    rows, ncols = _stacked_rows(prods, n_samples)
    return linalg.rank(rows, ncols), len(prods)


def delta_divisible_combination(vectors, kill_offsets):
    """Nonzero combination whose component j vanishes at the first
    kill_offsets[j] exponents lambda_j + 0 .. lambda_j + t_j - 1.

    Returns the combination with its first nonzero coefficient scaled to 1,
    or None when only the trivial combination satisfies the constraints.
    """
    vectors = list(vectors)
    if not vectors:
        raise PreconditionError("need at least one vector")
    first = vectors[0]
    for v in vectors:
        if v.weight != first.weight:
            raise PreconditionError("vectors must share one weight")
        if v.exponents != first.exponents:
            raise PreconditionError("vectors must share recorded exponents")
    kills = list(kill_offsets)
    if len(kills) != first.d:
        raise PreconditionError("one kill threshold per component")
    rows = []
    for j, t_j in enumerate(kills):
        if not isinstance(t_j, int) or t_j < 0:
            raise PreconditionError("kill thresholds are nonnegative integers")
        lam = first.exponents[j]
        for t in range(t_j):
            rows.append([v.components[j].coefficient_at(lam + t) for v in vectors])
    coeffs = linalg.kernel_vector(rows, len(vectors))
    if coeffs is None:
        return None
    out = None
    for c, v in zip(coeffs, vectors):
        if c == 0:
            continue
        term = v.scaled(c)
        out = term if out is None else out.plus(term)
    return out


def descend_by_delta(G: VvmfVector) -> VvmfVector:
    """Divide every component by the discriminant; weight drops by 12.

    Requires each nonzero component to vanish at all exponents below
    lambda_j + 1."""
    quots = []
    for f, lam in zip(G.components, G.exponents):
        if f.is_zero:
            quots.append(QSeries.zero(max(0, f.precision - 1)))
            continue
        off = f.beta - lam
        if off < 1:
            raise DivisibilityError(
                "component with leading exponent %s is not divisible by the discriminant"
                % f.beta
            )
        quots.append(divide_exact(f, delta(f.precision), f.precision))
    return VvmfVector(G.weight - 12, quots, G.exponents)


def _shifted_system(lams_sorted, n_shift: int, precision: int) -> VvmfVector:
    roots = [lam + (1 if i < n_shift else 0) for i, lam in enumerate(lams_sorted)]
    return solve_fundamental_system(unique_operator(roots), precision)


def eis_candidates(F: VvmfVector, top_power: int, min_gap: int = 0) -> list:
    """Candidate vectors E_gap * D^m F at the single weight
    F.weight + 2*top_power + min_gap, one per derivative order m.

    With min_gap 0 the top term is D^{top_power} F itself and the gap-2
    slot is empty; with min_gap 4 every candidate carries an Eisenstein
    factor."""
    if min_gap not in (0, 4):
        raise PreconditionError("minimum gap must be 0 or 4")
    # a negative top_power slices the ladder [F] to nothing: no candidates
    return _eis_candidates(_ladder(F, top_power)[: top_power + 1], min_gap)


def _eis_candidates(ladder, min_gap: int) -> list:
    """eis_candidates(F, top_power, min_gap) from the ladder [F, DF, ..., D^{top_power} F]."""
    top_power = len(ladder) - 1
    out = []
    for m in range(top_power, -1, -1):
        gap = 2 * (top_power - m) + min_gap
        g = ladder[m]
        if gap == 0:
            out.append(g)
        elif gap == 2:
            continue
        else:
            out.append(g.times_form(eisenstein(gap, g.precision), gap))
    return out


def _descend(ladder, min_gap: int, extra=()):
    """The discriminant quotient of the nonzero combination of
    _eis_candidates(ladder, min_gap) that vanishes at every lambda_j, and also
    at lambda_j + 1 for j in extra; None when no such combination exists."""
    kills = [2 if j in extra else 1 for j in range(ladder[0].d)]
    combo = delta_divisible_combination(_eis_candidates(ladder, min_gap), kills)
    return None if combo is None else descend_by_delta(combo)


def structure(rep: RepInput, precision: int = 20) -> dict:
    """Scripted verification of the structure theorem of rep's dimension d, 1
    to 5: the report on max(precision, d) unit steps, found on d when they
    certify it.

    _script classifies rep once.  Its series part runs on d steps first, and
    that report is returned when certified: no PrecisionError, every boolean
    true and every rank equal to its product count.  It then equals the
    longer one: the kill rows read at most two coefficients, a nonzero
    truncation is a nonzero series, a column subset of full row rank proves
    full row rank, and the weights read no series.  Otherwise the longer run
    decides, errors included."""
    if precision < 1:
        raise PreconditionError("precision must be >= 1")
    series = _script(rep)
    d = rep.dimension
    if precision > d:
        try:
            report, ranks = series(d)
        except PrecisionError:
            pass
        else:
            if all(v for v in report.values() if isinstance(v, bool)) and all(r == c for _, r, c in ranks):
                return report
    return series(max(precision, d))[0]


def _script(rep: RepInput):
    """Classify rep, raising every refusal, and return the series part: n ->
    (report on n unit steps, graded ranks as (weight, rank, product count)),
    from the system shifted by 0 (cyclic), 1 (dimension 4 even) or N (dimension 5)."""
    h, branch = classification(rep)
    header = {**branch, "k0": h.k0, "offsets": h.offsets, "numerator": h.numerator()}
    shift, check = 0, _cyclic
    if "N" in branch:
        shift, check = branch["N"], _dim5
    elif branch.get("parity") == "even":
        shift, check = 1, _dim4_even
    return lambda n: check(dict(header), h, n, _shifted_system(sorted(rep.lambdas), shift, n))


def _cyclic(report: dict, h, precision: int, F: VvmfVector) -> tuple:
    """report with F's weight and the ranks over its ladder at k0 .. k0 + 8
    against h, and those ranks as (weight, rank, product count)."""
    gens = d_iterate_generators(F, F.d)
    ranks = [(t, *_product_rank(gens, t, precision)) for t in (h.k0 + 2 * kp for kp in range(5))]
    dims = [(str(t), r, hp_dimension(h, t)) for t, r, _ in ranks]
    report["generator_weight_matches_k0"] = F.weight == h.k0
    report["dims"] = dims
    report["dims_match"] = all(got == want for _, got, want in dims)
    return report, ranks


def _dim4_even(report: dict, h, precision: int, F1: VvmfVector) -> tuple:
    """report with the descent to k0 of F1, the system shifted by one; its exponents are the lambdas."""
    report["shifted_weight"] = F1.weight
    report["shifted_weight_is_3lambda"] = F1.weight == 3 * sum(F1.exponents)
    ladder = _ladder(F1, 3)
    G = _descend(ladder, 4)
    report["combination_exists"] = G is not None
    if G is not None:
        report["descended_weight"] = G.weight
        report["descended_weight_matches_k0"] = G.weight == h.k0
        report["descended_nonzero"] = not G.is_zero()
    report["no_vector_below_k0"] = _descend(ladder[:3], 4) is None
    return report, ()


def _dim5(report: dict, h, precision: int, F: VvmfVector) -> tuple:
    """report with the checks of twist class N on the system shifted by N."""
    n, k_n = report["N"], report["k_N"]
    report["anchor_weight_matches"] = F.weight == k_n
    if n == 0:
        cyclic, ranks = _cyclic({}, h, precision, F)
        return {**report, "dims_match": cyclic["dims_match"]}, ranks
    ladder = _ladder(F, 4)
    shifted = [j for j in range(5) if F.components[j].beta != F.exponents[j]]
    if n == 1:
        G = _descend(ladder, 4)
        report["combination_exists"] = G is not None
        if G is not None:
            report["descended_weight_matches_k0"] = G.weight == h.k0 and not G.is_zero()
            report["two_minimal_generators"] = vector_rank([F, G]) == 2
        return report, ()
    if n == 2:
        G = _descend(ladder, 0)
        report["combination_exists"] = G is not None
        if G is not None:
            report["descended_weight"] = G.weight
            report["descends_to_k0"] = G.weight == k_n - 4 and G.weight == h.k0 and not G.is_zero()
        return report, ()
    if n == 3:
        j1 = next(j for j in range(5) if j not in shifted and F.exponents[j] != (k_n - 6) / 12)
        g1 = _descend(ladder[:4], 0)
        report["combination_exists"] = g1 is not None
        if g1 is not None:
            report["first_descent_to_k0"] = g1.weight == h.k0 and not g1.is_zero()
        g2 = _descend(ladder, 0, extra=(j1,))
        report["second_combination_exists"] = g2 is not None
        if g1 is not None and g2 is not None:
            report["second_descent_weight"] = g2.weight
            report["independent_pair"] = vector_rank([derivative_vector(g1), g2]) == 2
        return report, ()
    i1 = next(j for j in shifted if F.exponents[j] != (k_n - 8) / 12)
    i2 = next(j for j in shifted if j != i1 and F.exponents[j] != (k_n - 6) / 12)
    g1 = _descend(ladder[:3], 0)
    report["combination_exists"] = g1 is not None
    if g1 is not None:
        report["first_descent_to_k0"] = g1.weight == h.k0 and not g1.is_zero()
    g2 = _descend(ladder[:4], 0, extra=(i1,))
    report["second_combination_exists"] = g2 is not None
    g3 = _descend(ladder, 0, extra=(i1, i2))
    report["third_combination_exists"] = g3 is not None
    if g1 is not None and g2 is not None and g3 is not None:
        triple = [g1.times_form(eisenstein(4, g1.precision), 4), derivative_vector(g2), g3]
        report["independent_triple"] = vector_rank(triple) == 3
    return report, ()


def appendix_demo(exponents, c_values, precision: int = 24) -> dict:
    """Exercise the order-six one-parameter family over the given cusp
    coefficients: constant indicial data, residual of the constant
    function, and the leading-exponent angles."""
    exps = [_rat(x) for x in exponents]
    if len(exps) != 5 or len(set(exps)) != 5:
        raise PreconditionError("need five pairwise distinct exponents")
    for x in exps:
        if not (0 <= x < 1):
            raise PreconditionError("exponents must lie in [0, 1)")
    expected_angles = [str(a) for a in sorted([Fraction(0)] + exps)]
    cases = []
    indicials = []
    one = QSeries.one(precision)
    for c in c_values:
        c = _rat(c)
        L = appendix_family(exps, c)
        ind = indicial_polynomial(L)
        indicials.append(ind)
        residual = apply(L, one)
        if c == 0:
            matches = residual.is_zero
        else:
            matches = residual == c * delta(residual.precision)
        # the angles read each component's leading exponent, its indicial root
        angles = [str(a) for a in monodromy_T(solve_fundamental_system(L, 1))]
        cases.append(
            {
                "c": str(c),
                "indicial": [str(a) for a in ind],
                "constant_residual_is_zero": residual.is_zero,
                "residual_equals_c_delta": bool(matches),
                "angles": angles,
                "angles_match": angles == expected_angles,
            }
        )
    return {
        "exponents": [str(x) for x in exps],
        "cases": cases,
        "indicial_identical_across_c": all(ind == indicials[0] for ind in indicials),
        "residual_zero_iff_c_zero": all(
            case["constant_residual_is_zero"] == (case["c"] == "0") for case in cases
        ),
        "all_angles_match": all(case["angles_match"] for case in cases),
    }
