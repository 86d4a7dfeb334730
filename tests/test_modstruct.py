"""Module generators, discriminant divisibility, and the structure scripts."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from vvmf import classify, deriv, linalg, modstruct
from vvmf import (
    DivisibilityError,
    InternalCheckError,
    MultiplierSpec,
    PrecisionError,
    PreconditionError,
    QSeries,
    RepInput,
    TDeterminedRequiredError,
    VvmfVector,
    appendix_demo,
    classification,
    d_iterate_generators,
    delta,
    delta_divisible_combination,
    descend_by_delta,
    eis_candidates,
    eisenstein,
    module_products,
    mul,
    solve_fundamental_system,
    structure,
    unique_operator,
    vector_rank,
    weight_space_dimension,
)

F = Fraction
TRIV = MultiplierSpec.trivial()


def solved_pair(precision=14):
    return solve_fundamental_system(unique_operator([F(1, 12), F(5, 12)]), precision)


def shifted_five(precision=32):
    # five angles whose twist class demands one unit shift on the smallest
    lams = sorted(F(n, 12) for n in (1, 2, 3, 5, 7))
    return solve_fundamental_system(unique_operator([lams[0] + 1] + lams[1:]), precision)


def test_d_iterate_generators():
    V = solved_pair()
    gens = d_iterate_generators(V, 2)
    assert [g.weight for g in gens] == [2, 4]
    assert gens[0] is V
    with pytest.raises(PreconditionError):
        d_iterate_generators(V, 0)
    with pytest.raises(PreconditionError):
        d_iterate_generators(V, 3)
    zero = VvmfVector(V.weight, [V.components[0], QSeries.zero(V.precision)], V.exponents)
    with pytest.raises(PreconditionError, match="linearly independent"):
        d_iterate_generators(zero, 1)


def test_d_iterate_rejects_dependent_components():
    e4 = eisenstein(4, 10)
    dep = VvmfVector(4, [e4, 2 * e4], (0, 0))
    with pytest.raises(PreconditionError):
        d_iterate_generators(dep, 2)
    short = VvmfVector(4, [e4.truncated(0), (3 * e4).truncated(0)], (0, 0))
    with pytest.raises(PrecisionError):
        d_iterate_generators(short, 1)


def test_independence_precision_error_names_stage_component_and_window():
    # delta is known through q^1 and E_4 only through q^0, but two components
    # on one coset need two columns from q^0
    short = VvmfVector(12, [delta(0), eisenstein(4, 0)], (0, 0))
    want = (
        "^d_iterate_generators: not enough precision to certify independence: "
        "component 1 is known through q\\^0, short of q\\^1 for 2 components on one coset$"
    )
    with pytest.raises(PrecisionError, match=want):
        d_iterate_generators(short, 1)


def test_rank_rows_precision_error_names_stage_component_and_window():
    V = VvmfVector(2, [QSeries(F(1, 12), [1, 2]), QSeries.zero(1)], (F(1, 12), F(3, 2)))
    want = "^rank rows: component window does not reach its exponent: component 1 is known through q\\^1, below q\\^3/2$"
    with pytest.raises(PrecisionError, match=want):
        vector_rank([V])


def test_module_products():
    gens = d_iterate_generators(solved_pair(), 2)
    assert module_products(gens, 3) == []
    assert module_products(gens, 6) != []
    six = module_products(gens, 6)
    assert len(six) == 1 and six[0].weight == 6
    eight = module_products(gens, 8)
    assert len(eight) == 2 and all(v.weight == 8 for v in eight)
    # generator-major order: the weight-2 generator times E_6 comes first
    lead = eight[0].components[0]
    assert lead == mul(gens[0].components[0], eisenstein(6, lead.precision))


def test_vector_rank():
    V = solved_pair()
    gens = d_iterate_generators(V, 2)
    assert vector_rank([]) == 0
    assert vector_rank([V]) == 1
    assert vector_rank([V, V.scaled(7)]) == 1
    assert vector_rank(gens) == 2
    other = solve_fundamental_system(unique_operator([F(1, 6), F(1, 3)]), 14)
    with pytest.raises(PreconditionError):
        vector_rank([V, other])


def test_stacked_rows_are_scaled_coefficient_rows():
    gens = d_iterate_generators(shifted_five(), 3)
    for vectors in (gens, module_products(gens, gens[0].weight + 8)):
        rows, ncols = modstruct._stacked_rows(vectors, 20)
        assert ncols == len(rows[0])
        widths = [
            min(20, int((min(w.components[j].window_top for w in vectors) - lam).__floor__()) + 1)
            for j, lam in enumerate(vectors[0].exponents)
        ]
        for v, row in zip(vectors, rows):
            want = [
                f.coefficient_at(lam + t)
                for f, lam, width in zip(v.components, v.exponents, widths)
                for t in range(width)
            ]
            scale = lcm(*[f.scale for f in v.components])
            assert row == [x * scale for x in want]
            assert all(type(x) is int for x in row)


def test_rank_paths_read_no_fractions(monkeypatch):
    V = shifted_five()
    gens = d_iterate_generators(V, 3)

    def unused(self, exponent):
        raise AssertionError("a rank path read a coefficient as a Fraction")

    monkeypatch.setattr(QSeries, "coefficient_at", unused)
    assert len(d_iterate_generators(V, 3)) == 3
    assert vector_rank(gens) == 3
    assert weight_space_dimension(gens, gens[0].weight + 8, 20) > 0


def test_weight_space_dimension_free_rank_two():
    # the weight 2 system with exponents 1/12, 5/12 generates freely in
    # weights 2 and 4, so graded dimensions follow the two-offset count
    gens = d_iterate_generators(solved_pair(), 2)
    for target, want in ((2, 1), (4, 1), (6, 1), (8, 2), (10, 2)):
        assert weight_space_dimension(gens, target, 12) == want
    assert weight_space_dimension(gens, 5, 12) == 0
    assert weight_space_dimension(gens, 0, 12) == 0
    with pytest.raises(PreconditionError):
        weight_space_dimension(gens, 4, 0)


def full_window_rank(gens, target, n_samples):
    prods = module_products(gens, target)
    return linalg.rank(*modstruct._stacked_rows(prods, n_samples)) if prods else 0


def odd_dim4_generators():
    lams = sorted(F(n, 30) for n in (6, 11, 16, 27))
    # the working precision of structure at its default precision
    F0 = solve_fundamental_system(unique_operator(lams), max(20, len(lams)))
    return d_iterate_generators(F0, 4)


def dim5_n0_generators():
    lams = [F(n, 12) for n in range(1, 6)]
    # the working precision of structure at precision 16
    F0 = solve_fundamental_system(unique_operator(lams), max(16, len(lams)))
    return d_iterate_generators(F0, 5)


@pytest.mark.parametrize("make", [odd_dim4_generators, dim5_n0_generators])
def test_weight_space_dimension_on_the_structure_inputs(make):
    gens = make()
    k0, n = gens[0].weight, gens[0].precision
    want = {(t, s): full_window_rank(gens, k0 + 2 * t, s) for t in range(9) for s in (1, 3, n)}
    for (t, s), r in want.items():
        assert weight_space_dimension(gens, k0 + 2 * t, s) == r, (t, s)


def test_weight_space_dimension_falls_back_to_the_full_window():
    gens = odd_dim4_generators()
    k0, n = gens[0].weight, gens[0].precision
    # a repeated generator makes every window rank-deficient; a generator
    # times delta^2 vanishes on its first two steps but not on the full
    # window.  Each target gives the repeated or vanishing generator a product.
    repeated = gens + gens[:1]
    vanishing = gens[:2] + [gens[0].times_form(delta(n) * delta(n), 24)]
    cases = [(repeated, k0 + 2 * t) for t in (0, 2, 3, 4, 5)] + [(vanishing, k0 + 24 + 2 * t) for t in (0, 2, 3, 4)]
    want = [full_window_rank(g, target, n) for g, target in cases]
    got = [weight_space_dimension(g, target, n) for g, target in cases]
    assert got == want


def test_eis_candidates_counts_and_weights():
    V = shifted_five(16)
    plain = eis_candidates(V, 4)
    assert len(plain) == 4
    assert all(v.weight == V.weight + 8 for v in plain)
    loaded = eis_candidates(V, 4, min_gap=4)
    assert len(loaded) == 5
    assert all(v.weight == V.weight + 12 for v in loaded)
    assert eis_candidates(V, 0) == [V]
    with pytest.raises(PreconditionError):
        eis_candidates(V, 4, min_gap=2)


def test_combination_single_vector_no_constraints():
    V = solved_pair()
    combo = delta_divisible_combination([V], [0, 0])
    assert combo is not None
    assert combo.components == V.components


def test_combination_on_shifted_five():
    V = shifted_five()
    cands = eis_candidates(V, 4, min_gap=4)
    combo = delta_divisible_combination(cands, [1] * 5)
    assert combo is not None
    for f, lam in zip(combo.components, combo.exponents):
        assert f.coefficient_at(lam) == 0
    G = descend_by_delta(combo)
    assert G.weight == combo.weight - 12 == 2
    assert not G.is_zero()
    # two candidates cannot satisfy the same constraints
    assert delta_divisible_combination(cands[:2], [1] * 5) is None


def test_combination_guards():
    V = solved_pair()
    gens = d_iterate_generators(V, 2)
    with pytest.raises(PreconditionError):
        delta_divisible_combination([], [1, 1])
    with pytest.raises(PreconditionError):
        delta_divisible_combination(gens, [1, 1])  # weights differ
    with pytest.raises(PreconditionError):
        delta_divisible_combination([V], [1])
    with pytest.raises(PreconditionError):
        delta_divisible_combination([V], [1, -1])
    other = solve_fundamental_system(unique_operator([F(1, 6), F(1, 3)]), 14)
    with pytest.raises(PreconditionError):
        delta_divisible_combination([V, other], [1, 1])


def test_descend_round_trip():
    V = shifted_five()
    combo = delta_divisible_combination(eis_candidates(V, 4, min_gap=4), [1] * 5)
    G = descend_by_delta(combo)
    back = G.times_form(delta(G.precision), 12)
    for a, b in zip(back.components, combo.components):
        assert (a - b).is_zero
    with pytest.raises(DivisibilityError):
        descend_by_delta(V)


def test_descend_keeps_zero_components():
    top = QSeries(1, [1, -24])
    zero = QSeries.zero(2)
    V = VvmfVector(12, [top, zero], (0, 0))
    G = descend_by_delta(V)
    assert G.weight == 0
    assert G.components[1].is_zero
    assert G.components[0].coefficient_at(0) == 1


def test_dim4_structure_even():
    rep = RepInput(4, (F(1, 24), F(5, 24), F(7, 24), F(11, 24)), -1, TRIV,
                   t_determined_asserted=True)
    r = structure(rep)
    assert r["parity"] == "even"
    assert r["k0"] == 1 and r["offsets"] == (0, 1, 1, 2)
    assert r["numerator"] == "1+2t^2+t^4"
    assert r["shifted_weight"] == 3 and r["shifted_weight_is_3lambda"]
    assert r["combination_exists"]
    assert r["descended_weight"] == 1 and r["descended_weight_matches_k0"]
    assert r["descended_nonzero"]
    assert r["no_vector_below_k0"]


def test_dim4_structure_odd():
    rep = RepInput(4, (F(1, 5), F(11, 30), F(8, 15), F(9, 10)), -1, TRIV)
    assert rep.t_determined
    r = structure(rep)
    assert r["parity"] == "odd"
    assert r["k0"] == 3 and r["offsets"] == (0, 1, 2, 3)
    assert r["generator_weight_matches_k0"]
    assert r["dims"] == [("3", 1, 1), ("5", 1, 1), ("7", 2, 2), ("9", 3, 3), ("11", 3, 3)]
    assert r["dims_match"]


DIM5_STRUCTURE_CASES = [
    ((1, 2, 3, 4, 5), 12, 0, ["anchor_weight_matches", "dims_match"]),
    ((1, 2, 3, 5, 7), 12, 1,
     ["anchor_weight_matches", "combination_exists",
      "descended_weight_matches_k0", "two_minimal_generators"]),
    ((1, 2, 3, 4, 6), 12, 2,
     ["anchor_weight_matches", "combination_exists", "descends_to_k0"]),
    ((6, 7, 8, 13, 16), 25, 3,
     ["anchor_weight_matches", "combination_exists", "first_descent_to_k0",
      "second_combination_exists", "independent_pair"]),
    ((1, 2, 3, 4, 15), 25, 4,
     ["anchor_weight_matches", "combination_exists", "first_descent_to_k0",
      "second_combination_exists", "third_combination_exists", "independent_triple"]),
]


@pytest.mark.parametrize("nums,den,n,flags", DIM5_STRUCTURE_CASES)
def test_dim5_structure(nums, den, n, flags):
    rep = RepInput(5, tuple(F(x, den) for x in nums), 1, TRIV, t_determined_asserted=True)
    r = structure(rep, 16)
    assert r["N"] == n
    for flag in flags:
        assert r[flag], flag
    if n == 3:
        assert r["second_descent_weight"] == r["k0"] + 2


@pytest.mark.parametrize("nums,asserted", [
    ((6, 7, 8, 13, 16), True),
    ((2, 3, 9, 12, 24), False),
    ((1, 2, 3, 4, 15), True),
    ((1, 3, 5, 7, 9), False),
])
def test_dim5_extra_vanishing_sets_the_later_combinations_apart(nums, asserted, monkeypatch):
    # N = 3 and N = 4 ask the second and third combinations to vanish one
    # step further at some components; each such combination must differ
    # from the one found without that condition, and its discriminant
    # quotient must vanish at the exponent of every such component
    calls = []
    real = modstruct._descend

    def spy(ladder, min_gap, extra=()):
        G = real(ladder, min_gap, extra)
        calls.append((ladder, min_gap, extra, G))
        return G

    monkeypatch.setattr(modstruct, "_descend", spy)
    rep = RepInput(5, tuple(F(x, 25) for x in nums), 1, TRIV, t_determined_asserted=asserted)
    assert rep.t_determined
    report = structure(rep, 16)
    constrained = [c for c in calls if c[2]]
    assert len(constrained) == report["N"] - 2
    for ladder, min_gap, extra, G in constrained:
        assert G is not None
        plain = real(ladder, min_gap)
        assert plain is not None and plain.components != G.components
        for j in extra:
            g = G.components[j]
            assert g.is_zero or g.beta > G.exponents[j]


# one heuristic-T-determined input per branch: dimension 4 even (epsilon -1),
# then dimension 5 N = 0 .. 4 (epsilon 1)
HEURISTIC_INPUTS = [
    RepInput(4, (F(12, 25), F(4, 5), F(21, 25), F(22, 25)), -1, TRIV),
    RepInput(5, (F(1, 30), F(11, 30), F(8, 15), F(7, 10), F(13, 15)), 1, TRIV),
    RepInput(5, tuple(F(x, 25) for x in (16, 18, 20, 22, 24)), 1, TRIV),
    RepInput(5, tuple(F(x, 25) for x in (10, 13, 14, 18, 20)), 1, TRIV),
    RepInput(5, tuple(F(x, 25) for x in (2, 3, 9, 12, 24)), 1, TRIV),
    RepInput(5, tuple(F(x, 25) for x in (1, 3, 5, 7, 9)), 1, TRIV),
]


def seeded_structure_inputs(count):
    """count dimension 4 and 5 inputs that classify: angles with denominators
    up to 45, the last one completing an admissible sum, with the sign, the
    character and the eta weight drawn, and T-determination asserted or
    left to the heuristic."""
    rng = random.Random(1)
    out = []
    while len(out) < count:
        d = rng.choice((4, 5))
        den = rng.randrange(2, 46)
        r = [F(rng.randrange(den), den) for _ in range(d - 1)]
        r.append((rng.randrange(12) * F(1, 3 if d == 4 else 12) - sum(r)) % 1)
        m = MultiplierSpec(rng.choice((0, 2)), rng.randrange(12))
        try:
            rep = RepInput(d, r, rng.choice((1, -1)), m, rng.random() < 0.5)
            classification(rep)
        except PreconditionError:
            continue
        out.append(rep)
    return out


PRECISION_INPUTS = (
    [RepInput(4, (F(1, 24), F(5, 24), F(7, 24), F(11, 24)), -1, TRIV, t_determined_asserted=True),
     RepInput(4, (F(1, 5), F(11, 30), F(8, 15), F(9, 10)), -1, TRIV)]
    + [RepInput(5, tuple(F(x, den) for x in nums), 1, TRIV, t_determined_asserted=True)
       for nums, den, _, _ in DIM5_STRUCTURE_CASES]
    + HEURISTIC_INPUTS
    + seeded_structure_inputs(27)
    + [RepInput(1, (F(5, 12),), 1, MultiplierSpec(F(1, 2), 3)),
       RepInput(2, (F(1, 12), F(5, 12)), 1, TRIV),
       RepInput(3, (0, F(1, 3), F(2, 3)), 1, TRIV)]
)


def full_report(rep, precision):
    """The report on max(precision, d) steps, with no short run first."""
    return modstruct._script(rep)(max(precision, rep.dimension))[0]


def count_solves(monkeypatch):
    calls = []
    real = modstruct._shifted_system

    def spy(lams, n_shift, precision):
        calls.append(precision)
        return real(lams, n_shift, precision)

    monkeypatch.setattr(modstruct, "_shifted_system", spy)
    return calls


@pytest.mark.parametrize("rep", PRECISION_INPUTS)
def test_structure_reports_do_not_depend_on_precision(rep, monkeypatch):
    # every report is certified on d steps, and equals the one on 30 steps
    want = full_report(rep, 30)
    calls = count_solves(monkeypatch)
    assert structure(rep, 1) == structure(rep, 30) == want
    assert calls == [rep.dimension] * 2


ODD_DIM4 = PRECISION_INPUTS[1]
EVEN_DIM4 = PRECISION_INPUTS[0]


def seeded_cyclic_inputs(count):
    """count dimension 1-3 inputs: distinct angles with denominators d + 1 .. 30
    (twelfths in dimension 1), with the sign, the character and the eta
    weight drawn; dimension 2 pairs at a sixth-root ratio are skipped."""
    rng = random.Random(3)
    out = []
    while len(out) < count:
        d = rng.choice((1, 2, 3))
        den = 12 if d == 1 else rng.randrange(d + 1, 31)
        r = [F(x, den) for x in rng.sample(range(den), d)]
        q = rng.randrange(1, 7)
        m = MultiplierSpec(F(rng.randrange(12 * q), q), rng.randrange(12))
        try:
            out.append(RepInput(d, r, rng.choice((1, -1)), m))
        except PreconditionError:
            continue
    return out


def test_cyclic_structure_holds_in_dimensions_one_to_three(monkeypatch):
    # the paper's first theorem: for d < 4 the form of minimal weight and its
    # d - 1 derivatives are a free basis; each report is certified on d steps
    calls = count_solves(monkeypatch)
    for rep in seeded_cyclic_inputs(100):
        want = full_report(rep, 20)
        calls.clear()
        report = structure(rep)
        assert calls == [rep.dimension], rep.exponents
        assert report == want, rep.exponents
        assert report["generator_weight_matches_k0"] and report["dims_match"], rep.exponents


def test_structure_classification_refusals_run_once(monkeypatch):
    # no window lifts a refusal of the classification: it is raised once,
    # before any series is solved
    rep = RepInput(5, tuple(F(x, 12) for x in (1, 2, 3, 4, 6)), 1, TRIV)
    classified = []
    real = classify.dim5_data

    def spy(rep):
        classified.append(rep)
        return real(rep)

    monkeypatch.setattr(classify, "dim5_data", spy)
    calls = count_solves(monkeypatch)
    with pytest.raises(TDeterminedRequiredError):
        structure(rep, 30)
    assert len(classified) == 1 and calls == []


def test_structure_escalates_when_a_rank_falls_short_of_its_count(monkeypatch):
    # the short report is unchanged, but a product count one above its rank
    # leaves the rank unproven on the long window
    real = modstruct._product_rank

    def short_count(gens, target, n_samples):
        rank, count = real(gens, target, n_samples)
        return rank, count + (gens[0].precision == 4)

    want = full_report(ODD_DIM4, 30)
    monkeypatch.setattr(modstruct, "_product_rank", short_count)
    calls = count_solves(monkeypatch)
    assert structure(ODD_DIM4, 30) == want
    assert calls == [4, 30]


def test_structure_escalates_when_the_descended_vector_vanishes_on_the_short_window(monkeypatch):
    real = modstruct.descend_by_delta

    def vanishing(G):
        Q = real(G)
        if G.components[0].precision > 4:
            return Q
        return VvmfVector(Q.weight, [QSeries.zero(f.precision) for f in Q.components], Q.exponents)

    want = full_report(EVEN_DIM4, 30)
    monkeypatch.setattr(modstruct, "descend_by_delta", vanishing)
    calls = count_solves(monkeypatch)
    assert structure(EVEN_DIM4, 30) == want
    assert want["descended_nonzero"]
    assert calls == [4, 30]


@pytest.mark.parametrize(
    "error,escalates", [(PrecisionError, True), (PreconditionError, False), (InternalCheckError, False)]
)
def test_structure_escalates_on_precision_errors_only(error, escalates, monkeypatch):
    real = modstruct._shifted_system
    calls = []

    def failing(lams, n_shift, precision):
        calls.append(precision)
        if precision == 5:
            raise error("short window")
        return real(lams, n_shift, precision)

    rep = PRECISION_INPUTS[2]
    want = full_report(rep, 30)
    monkeypatch.setattr(modstruct, "_shifted_system", failing)
    if escalates:
        assert structure(rep, 30) == want
        assert calls == [5, 30]
    else:
        with pytest.raises(error):
            structure(rep, 30)
        assert calls == [5]


def test_structure_at_d_steps_runs_once(monkeypatch):
    # with precision at most d, the short run is the full run: its report or
    # its error is returned without a second pass
    calls = count_solves(monkeypatch)
    assert structure(ODD_DIM4, 4) == structure(ODD_DIM4, 2)
    assert calls == [4, 4]
    calls.clear()
    monkeypatch.setattr(modstruct, "_product_rank", lambda gens, target, n: (0, 1))
    report = structure(ODD_DIM4, 3)
    assert not report["dims_match"] and calls == [4]


@pytest.mark.parametrize("rep", [ODD_DIM4, PRECISION_INPUTS[2]])
@pytest.mark.parametrize("precision", [0, -5])
def test_structure_refuses_precision_below_one(rep, precision, monkeypatch):
    calls = count_solves(monkeypatch)
    with pytest.raises(PreconditionError, match="precision must be >= 1"):
        structure(rep, precision)
    assert calls == []


def test_structure_on_twelve_digit_denominators_at_precision_200():
    # the dimension 5 branch N = 4 with twelve-digit denominators: its full
    # run on 200 steps takes tens of seconds, certified on 5 steps it answers
    # at once
    rep = RepInput(5, (F(3419116618, 4243856509), F(107021490649, 165510403851),
                       F(49313937167, 110340269234), F(323105073457, 331020807702),
                       F(137733055909, 662041615404)), -1, TRIV)
    report = structure(rep, 200)
    assert report["N"] == 4 and report["independent_triple"]
    assert report == full_report(rep, 30)


@pytest.mark.parametrize("bad", [0.5, "1e5"])
def test_appendix_demo_refuses_inexact_rationals(bad):
    exps = [F(n, 6) for n in range(1, 6)]
    with pytest.raises(PreconditionError):
        appendix_demo(exps[:4] + [bad], (0,), 4)
    with pytest.raises(PreconditionError):
        appendix_demo(exps, (0, bad), 4)


@pytest.mark.parametrize("bad", [6.0, "1e5"])
def test_module_products_refuses_inexact_weight(bad):
    gens = d_iterate_generators(solved_pair(), 2)
    with pytest.raises(PreconditionError):
        module_products(gens, bad)
    assert [g.weight for g in module_products(gens, "6")] == [g.weight for g in module_products(gens, 6)]


def count_ladder_steps(monkeypatch):
    # deriv._ladder steps with deriv.derivative_vector; modstruct's own
    # derivative_vector calls on descended vectors are not counted
    calls = []
    real = deriv.derivative_vector

    def spy(V):
        calls.append(V.weight)
        return real(V)

    monkeypatch.setattr(deriv, "derivative_vector", spy)
    return calls


@pytest.mark.parametrize("rep,steps", [
    (RepInput(5, tuple(F(x, 25) for x in (1, 2, 3, 4, 15)), 1, TRIV, t_determined_asserted=True), 4),
    (RepInput(5, tuple(F(x, 25) for x in (6, 7, 8, 13, 16)), 1, TRIV, t_determined_asserted=True), 4),
    (RepInput(4, (F(1, 24), F(5, 24), F(7, 24), F(11, 24)), -1, TRIV, t_determined_asserted=True), 3),
])
def test_structure_builds_one_derivative_ladder(rep, steps, monkeypatch):
    calls = count_ladder_steps(monkeypatch)
    structure(rep, 16 if rep.dimension == 5 else 20)
    assert len(calls) == steps


def test_appendix_demo():
    demo = appendix_demo([F(n, 6) for n in range(1, 6)], (0, 1, -3))
    assert demo["indicial_identical_across_c"]
    assert demo["residual_zero_iff_c_zero"]
    assert demo["all_angles_match"]
    assert len(demo["cases"]) == 3
    by_c = {case["c"]: case for case in demo["cases"]}
    assert by_c["0"]["constant_residual_is_zero"]
    assert not by_c["1"]["constant_residual_is_zero"]
    assert by_c["1"]["residual_equals_c_delta"]
    assert by_c["-3"]["residual_equals_c_delta"]
    assert by_c["0"]["angles"] == ["0", "1/6", "1/3", "1/2", "2/3", "5/6"]


def test_appendix_demo_validation():
    with pytest.raises(PreconditionError):
        appendix_demo([F(1, 6)] * 5, (0,))
    with pytest.raises(PreconditionError):
        appendix_demo([F(1, 6), F(1, 3), F(1, 2), F(2, 3)], (0,))
    with pytest.raises(PreconditionError):
        appendix_demo([F(3, 2), F(1, 3), F(1, 2), F(2, 3), F(5, 6)], (0,))
    with pytest.raises(PreconditionError):
        appendix_demo([F(n, 7) for n in range(1, 6)], (0,))  # sum is not 5/2
