"""The eta-twist through the stack: D_(k+r)(eta^(2r) f) = eta^(2r) D_k f,
since D_(1/2) eta = 0.

Conjugating a monic operator by eta^(24s) shifts every indicial root by s and
the weight by 12s and keeps every alpha; up to order 5 the operator is fixed
by its roots, so the operator, its solutions and their Wronskian all follow
from those of the unshifted roots.  On classification the twist multiplies
the multiplier by that of eta^(2s): while no exponent wraps past 1 it maps
M(rho x v_w) onto M(rho x v_(w+s)), so the series is t^s times the original.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_modstruct import HEURISTIC_INPUTS, seeded_cyclic_inputs, seeded_structure_inputs
from vvmf import (
    HpSeries,
    MultiplierSpec,
    RepInput,
    classification,
    eta_power,
    modular_wronskian,
    mul,
    solve_fundamental_system,
    unique_operator,
)
from vvmf.wronskian import _PRECISION_MARGIN, _generic

F = Fraction

rationals = st.builds(F, st.integers(0, 36), st.integers(1, 12))
shifts = st.builds(F, st.integers(-24, 24), st.integers(1, 12))


@pytest.mark.parametrize("d", range(1, 6))
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data(), s=shifts, n=st.integers(1, 16))
def test_twist_shifts_the_operator_its_solutions_and_their_wronskian(d, data, s, n):
    # distinct mod 1, so that no two roots differ by an integer
    roots = data.draw(st.lists(rationals, min_size=d, max_size=d, unique_by=lambda x: x % 1))
    assume(min(roots) + s >= 0)
    L, Ls = unique_operator(roots), unique_operator([r + s for r in roots])
    assert Ls.alphas == L.alphas and Ls.weight == L.weight + 12 * s

    F0, Fs = solve_fundamental_system(L, n), solve_fundamental_system(Ls, n)
    eta = eta_power(24 * s, n)
    assert Fs.components == tuple(mul(eta, f) for f in F0.components)

    # the ladder route refuses some twisted non-generic systems; _generic is
    # invariant under the twist, as beta_j and the weight shift together
    if n < d + _PRECISION_MARGIN or not _generic(F0):
        return
    assert _generic(Fs)
    W = modular_wronskian(F0)
    assert modular_wronskian(Fs) == mul(eta_power(24 * s * d, W.precision), W)


def twisted(rep, s):
    """rep with its multiplier times that of eta^(2s)."""
    m = rep.multiplier
    return RepInput(rep.dimension, rep.exponents, rep.epsilon,
                    MultiplierSpec(m.eta_weight + s, m.chi_power), rep.t_determined_asserted)


def test_classification_is_eta_twist_equivariant():
    pairs = {d: 0 for d in range(1, 6)}
    for rep in HEURISTIC_INPUTS + seeded_structure_inputs(40) + seeded_cyclic_inputs(200):
        h, branch = classification(rep)
        for s in (F(1, 3), F(1, 2), F(1), F(3, 2), F(2)):
            if rep.multiplier.eta_weight + s >= 12 or max(rep.lambdas) + s / 12 >= 1:
                continue
            hs, branch_s = classification(twisted(rep, s))
            assert hs == HpSeries(h.k0 + s, h.offsets), (rep.exponents, rep.multiplier, s)
            # the anchor weight of dimension 5 moves with k0; N, n_N and the parity stay
            assert branch_s == {k: v + s if k == "k_N" else v for k, v in branch.items()}
            pairs[rep.dimension] += 1
    assert all(pairs.values()), pairs


def test_dim4_parity_follows_the_twist():
    # even at k0 = 7 untwisted, and at 15/2 under eta; an odd answer at 13/2
    # would fail the -I coset, e(-k0/2) = epsilon * v(-I)
    rep = HEURISTIC_INPUTS[0]
    assert classification(rep) == (HpSeries(7, (0, 1, 1, 2)), {"parity": "even"})
    assert classification(twisted(rep, F(1, 2))) == (HpSeries(F(15, 2), (0, 1, 1, 2)), {"parity": "even"})
