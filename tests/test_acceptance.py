"""Acceptance suite: one test per criterion, exact-zero tolerances throughout.

Run with -v to get one pass/fail line per criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import prod

from vvmf import (
    HpSeries,
    MultiplierSpec,
    QSeries,
    RationalAngle,
    RepInput,
    add,
    appendix_family,
    apply,
    d_iterate_generators,
    delta,
    delta_divisible_combination,
    descend_by_delta,
    dim5_data,
    divide_exact,
    eis_candidates,
    eisenstein,
    eta_power,
    hp_dimension,
    indicial_polynomial,
    modular_derivative,
    monodromy_T,
    mul,
    q_derivative,
    solve_fundamental_system,
    structure,
    unique_operator,
    weight_space_dimension,
    wronskian_factorization,
)

from corpus import CORPUS_SEED, random_root_multiset
from test_qseries import assert_ring_axioms, rand_series

F = Fraction
N_PROPERTY_CASES = 200


def poly_from_roots(roots):
    p = [F(1)]
    for r in roots:
        out = [F(0)] * (len(p) + 1)
        for i, a in enumerate(p):
            out[i] -= a * r
            out[i + 1] += a
        p = out
    return p


def test_a1_classical_identities():
    """E_4^3 - E_6^2 = 1728 Delta, eta^24 = Delta, and the derivative identities, at 50 steps."""
    n = 50
    e4 = eisenstein(4, n + 1)
    e6 = eisenstein(6, n + 1)
    via_eis = (e4 * e4 * e4 - e6 * e6) * F(1, 1728)
    assert via_eis == eta_power(24, n)
    assert via_eis.coefficient_at(1) == 1
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    assert modular_derivative(e4, 4) == F(-1, 3) * e6
    assert modular_derivative(e6, 6) == F(-1, 2) * mul(e4, e4)
    assert modular_derivative(delta(n), 12).is_zero


def test_a2_mmde_round_trip(mmde_corpus):
    """100 random root multisets: indicial polynomial and weight are recovered exactly."""
    assert len(mmde_corpus) == 100
    for roots, L in mmde_corpus:
        n = len(roots)
        lam = sum(roots, F(0))
        assert list(indicial_polynomial(L)) == poly_from_roots(sorted(roots))[:n]
        assert L.weight == F(12) * lam / n + 1 - n
        assert L.indicial_roots == tuple(sorted(roots))


def test_a3_frobenius_residuals(solved_corpus):
    """Every Frobenius solution of every corpus operator has exactly zero residual."""
    for roots, L, system in solved_corpus:
        assert system.precision == 30
        for f in system.components:
            assert apply(L, f).is_zero


def test_a4_wronskian_factorization(solved_corpus):
    """W(F) = gamma eta^{24 lambda} with gamma the Vandermonde product of the
    sorted roots and weight bound tight; E_4 F is strict with cofactor gamma E_4^d."""
    for roots, L, system in solved_corpus:
        d = len(roots)
        r = sorted(roots)
        vandermonde = prod((r[j] - r[i] for i, j in combinations(range(d), 2)), start=F(1))
        trimmed = system.truncated(d + 7)
        e, g, g_weight = wronskian_factorization(trimmed)
        assert e == sum(roots, F(0))
        assert g_weight == 0
        gamma = g.coefficient_at(F(0))
        assert gamma != 0
        assert (g - gamma * QSeries.one(g.precision)).is_zero
        assert g == vandermonde * QSeries.one(g.precision)
        lifted = trimmed.times_form(eisenstein(4, trimmed.precision), 4)
        e2, g2, gw2 = wronskian_factorization(lifted)
        assert e2 == e
        assert gw2 == 4 * d and gw2 > 0
        e4_power = QSeries.one(g2.precision)
        for _ in range(d):
            e4_power = e4_power * eisenstein(4, g2.precision)
        assert g2 == vandermonde * e4_power


def test_a5_cyclic_dimension_counts():
    """Graded dimensions of the cyclic d=2 and d=3 modules match the bracket formulas."""
    cases = [
        ([F(1, 12), F(5, 12)], (0, 1), 3),
        ([F(0), F(1, 3), F(2, 3)], (0, 1, 2), 2),
    ]
    for roots, offsets, divisor in cases:
        L = unique_operator(roots)
        system = solve_fundamental_system(L, 20)
        gens = d_iterate_generators(system, len(roots))
        h = HpSeries(L.weight, offsets)
        for kp in range(7):
            target = L.weight + 2 * kp
            got = weight_space_dimension(gens, target, 20)
            assert got == hp_dimension(h, target) == kp // divisor + 1


def test_a6_dim4_minimal_weight():
    """Shifted weight-3lambda system yields a vector at 3lambda - 2 and none below."""
    lams = [F(1, 24), F(5, 24), F(7, 24), F(11, 24)]
    lam = sum(lams)
    shifted = unique_operator([lams[0] + 1] + lams[1:])
    assert shifted.weight == 3 * lam
    system = solve_fundamental_system(shifted, 20)
    combo = delta_divisible_combination(eis_candidates(system, 3, min_gap=4), [1] * 4)
    assert combo is not None
    G = descend_by_delta(combo)
    assert G.weight == 3 * lam - 2
    assert not G.is_zero()
    below = delta_divisible_combination(eis_candidates(system, 2, min_gap=4), [1] * 4)
    assert below is None


DIM5_TABLE = [
    ((1, 2, 3, 4, 5), 12, 0, F(-1), 0, "1+t^2+t^4+t^6+t^8"),
    ((1, 2, 3, 5, 7), 12, 1, F(2), 0, "2+2t^2+t^4"),
    ((1, 2, 3, 4, 6), 12, 2, F(4), -2, "1+t^2+2t^4+t^6"),
    ((6, 7, 8, 13, 16), 25, 3, F(8), -3, "1+2t^2+t^4+t^6"),
    ((1, 2, 3, 4, 15), 25, 4, F(8), -4, "1+2t^2+2t^4"),
]


def test_a7_dim5_table():
    """Five inputs hit N = 0..4 with the tabulated k_N, n_N, numerators; N=2 descends to k_2 - 4."""
    triv = MultiplierSpec.trivial()
    seen = []
    for nums, den, n, k_n, n_n, numerator in DIM5_TABLE:
        rep = RepInput(5, tuple(F(x, den) for x in nums), 1, triv, t_determined_asserted=True)
        data = dim5_data(rep)
        seen.append(data["N"])
        assert data["N"] == n
        assert data["k_N"] == k_n
        assert data["n_N"] == n_n
        assert HpSeries(data["k0"], data["offsets"]).numerator() == numerator
        if n == 2:
            report = structure(rep, 16)
            assert report["descended_weight"] == k_n - 4
            assert report["descends_to_k0"]
    assert seen == [0, 1, 2, 3, 4]


def test_a8_appendix_family():
    """The order-six family over {2,5,8,19,21}/22: c-independent exponents, residual c*Delta."""
    lam = [F(2, 22), F(5, 22), F(8, 22), F(19, 22), F(21, 22)]
    assert unique_operator(lam).weight == 2
    expected = tuple(RationalAngle(x) for x in sorted([F(0)] + lam))
    indicials = []
    for c in (0, 1, -3):
        fam = appendix_family(lam, c)
        indicials.append(indicial_polynomial(fam))
        assert monodromy_T(solve_fundamental_system(fam, 12)) == expected
    assert all(ind == indicials[0] for ind in indicials)
    one = QSeries.one(20)
    assert apply(appendix_family(lam, 0), one).is_zero
    assert (apply(appendix_family(lam, 1), one) - delta(20)).is_zero


def test_a9_property_suites():
    """Ring axioms, Leibniz rules, divide/mul round-trips, canonicalization, permutation invariance."""
    rng = random.Random(CORPUS_SEED + 9)
    for _ in range(N_PROPERTY_CASES):
        assert_ring_axioms(rand_series(rng), rand_series(rng), rand_series(rng))
    for _ in range(N_PROPERTY_CASES):
        a, b = rand_series(rng), rand_series(rng)
        assert q_derivative(mul(a, b)).agrees_with(
            add(mul(q_derivative(a), b), mul(a, q_derivative(b)))
        )
        k = F(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
        l = F(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
        assert modular_derivative(mul(a, b), k + l).agrees_with(
            add(mul(modular_derivative(a, k), b), mul(a, modular_derivative(b, l)))
        )
    for _ in range(N_PROPERTY_CASES):
        f, g = rand_series(rng), rand_series(rng, zero_ok=False)
        n = min(f.precision, g.precision)
        assert divide_exact(mul(f, g), g, n) == f.truncated(n)
    for _ in range(N_PROPERTY_CASES):
        s = rand_series(rng)
        assert QSeries(s.beta, s.coeffs) == s
    for _ in range(N_PROPERTY_CASES):
        roots = random_root_multiset(rng)
        shuffled = list(roots)
        rng.shuffle(shuffled)
        x, y = unique_operator(roots), unique_operator(shuffled)
        assert (x.order, x.weight, x.alphas) == (y.order, y.weight, y.alphas)
        assert x.indicial_roots == y.indicial_roots
