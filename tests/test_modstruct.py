"""Module generators, discriminant divisibility, and the structure scripts."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

from vvmf import deriv, linalg, modstruct
from vvmf import (
    DivisibilityError,
    MultiplierSpec,
    PrecisionError,
    PreconditionError,
    QSeries,
    RepInput,
    VvmfVector,
    appendix_demo,
    d_iterate_generators,
    delta,
    delta_divisible_combination,
    descend_by_delta,
    dim4_structure,
    dim5_structure,
    eis_candidates,
    eisenstein,
    module_products,
    mul,
    solve_fundamental_system,
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


def count_product_calls(monkeypatch):
    calls = []
    real = modstruct.module_products

    def spy(gens, target):
        calls.append(gens[0].precision)
        return real(gens, target)

    monkeypatch.setattr(modstruct, "module_products", spy)
    return calls


def odd_dim4_generators():
    lams = sorted(F(n, 30) for n in (6, 11, 16, 27))
    F0 = solve_fundamental_system(unique_operator(lams), modstruct._grid_steps(lams, 20))
    return d_iterate_generators(F0, 4)


def dim5_n0_generators():
    lams = [F(n, 12) for n in range(1, 6)]
    F0 = solve_fundamental_system(unique_operator(lams), modstruct._grid_steps(lams, 16))
    return d_iterate_generators(F0, 5)


@pytest.mark.parametrize("make", [odd_dim4_generators, dim5_n0_generators])
def test_weight_space_dimension_on_the_structure_inputs(make, monkeypatch):
    gens = make()
    k0, n = gens[0].weight, gens[0].precision
    want = {(t, s): full_window_rank(gens, k0 + 2 * t, s) for t in range(9) for s in (1, 3, n)}
    calls = count_product_calls(monkeypatch)
    for (t, s), r in want.items():
        assert weight_space_dimension(gens, k0 + 2 * t, s) == r, (t, s)
    # at the weights the structure scripts check, full row rank shows on the
    # short window, so the full window is never formed
    calls.clear()
    for t in range(5):
        weight_space_dimension(gens, k0 + 2 * t, n)
    assert calls == [len(gens)] * 5


def test_weight_space_dimension_falls_back_to_the_full_window(monkeypatch):
    gens = odd_dim4_generators()
    k0, n = gens[0].weight, gens[0].precision
    # a repeated generator makes every window rank-deficient; a generator
    # times delta^2 vanishes on the whole short window but not on the full
    # one.  Each target gives the repeated or vanishing generator a product.
    repeated = gens + gens[:1]
    vanishing = gens[:2] + [gens[0].times_form(delta(n) * delta(n), 24)]
    cases = [(repeated, k0 + 2 * t) for t in (0, 2, 3, 4, 5)] + [(vanishing, k0 + 24 + 2 * t) for t in (0, 2, 3, 4)]
    want = [full_window_rank(g, target, n) for g, target in cases]
    calls = count_product_calls(monkeypatch)
    got = [weight_space_dimension(g, target, n) for g, target in cases]
    assert got == want
    # each case ranked the short window, found it deficient and ranked the full one
    assert calls == [len(g) if i % 2 == 0 else n for g, _ in cases for i in range(2)]


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
    r = dim4_structure(rep)
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
    r = dim4_structure(rep)
    assert r["parity"] == "odd"
    assert r["k0"] == 3 and r["offsets"] == (0, 1, 2, 3)
    assert r["generator_weight_matches_k0"]
    assert r["dims"] == [("3", 1, 1), ("5", 1, 1), ("7", 2, 2), ("9", 3, 3), ("11", 3, 3)]
    assert r["dims_match"]


def test_dim4_structure_needs_dim4():
    rep = RepInput(2, (F(1, 5), F(2, 5)), 1, TRIV)
    with pytest.raises(PreconditionError):
        dim4_structure(rep)


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
    r = dim5_structure(rep)
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
    report = dim5_structure(rep)
    constrained = [c for c in calls if c[2]]
    assert len(constrained) == report["N"] - 2
    for ladder, min_gap, extra, G in constrained:
        assert G is not None
        plain = real(ladder, min_gap)
        assert plain is not None and plain.components != G.components
        for j in extra:
            g = G.components[j]
            assert g.is_zero or g.beta > G.exponents[j]


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
    (dim5_structure if rep.dimension == 5 else dim4_structure)(rep)
    assert len(calls) == steps


def test_dim5_structure_needs_dim5():
    rep = RepInput(2, (F(1, 5), F(2, 5)), 1, TRIV)
    with pytest.raises(PreconditionError):
        dim5_structure(rep)


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
