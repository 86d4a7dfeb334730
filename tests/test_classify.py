"""Rational angles, multiplier data, and the dimension 1-5 classification."""

from __future__ import annotations

from fractions import Fraction

import pytest

from vvmf import classify
from vvmf import (
    HpSeries,
    MultiplierSpec,
    ParityUnsolvableError,
    PreconditionError,
    RationalAngle,
    ReducibilityBoundaryError,
    RepInput,
    TDeterminedRequiredError,
    classification,
    dim4_parity,
    dim5_data,
    hp_dimension,
    minimal_admissible_set,
    multiplier_values,
    t_determined_heuristic,
)

F = Fraction


def test_rational_angle_reduction_and_arithmetic():
    assert RationalAngle(F(7, 3)) == RationalAngle(F(1, 3))
    assert RationalAngle(F(-1, 4)).value == F(3, 4)
    assert (RationalAngle(F(2, 3)) + RationalAngle(F(2, 3))).value == F(1, 3)
    assert (RationalAngle(F(1, 4)) - RationalAngle(F(1, 2))).value == F(3, 4)
    assert (-RationalAngle(F(1, 8))).value == F(7, 8)
    assert (2 * RationalAngle(F(5, 8))).value == F(1, 4)
    assert str(RationalAngle(F(1, 3))) == "1/3"
    assert len({RationalAngle(F(1, 3)), RationalAngle(F(4, 3))}) == 1
    with pytest.raises(AttributeError):
        RationalAngle(0).value = F(1, 2)
    with pytest.raises(PreconditionError):
        RationalAngle(0.5)


def test_multiplier_spec():
    assert MultiplierSpec.trivial() == MultiplierSpec(0, 0)
    assert MultiplierSpec(F(23, 2), 3).cusp_parameter == F(5, 2)
    assert MultiplierSpec(0, 0).cusp_parameter == 0
    vals = multiplier_values(MultiplierSpec(F(1, 2), 1))
    assert vals["angle_T"] == RationalAngle(F(1, 8))
    assert vals["angle_S2"] == RationalAngle(F(1, 4))
    assert vals["cusp_parameter"] == F(3, 2)
    with pytest.raises(PreconditionError):
        MultiplierSpec(12, 0)
    with pytest.raises(PreconditionError):
        MultiplierSpec(-1, 0)
    with pytest.raises(PreconditionError):
        MultiplierSpec(0, 12)


@pytest.mark.parametrize("eta_weight", ["1/0", "abc", "1/2/3"])
def test_multiplier_spec_refuses_malformed_rational_text(eta_weight):
    with pytest.raises(PreconditionError, match="cannot parse rational"):
        MultiplierSpec(eta_weight, 0)
    with pytest.raises(PreconditionError):
        MultiplierSpec(0, "3")


def test_minimal_admissible_set():
    lams, ls = minimal_admissible_set([F(1, 2), F(11, 12)], 3)
    assert lams == (F(3, 4), F(1, 6))
    assert ls == (0, -1)
    lams, ls = minimal_admissible_set([0], 0)
    assert lams == (F(0),) and ls == (0,)
    with pytest.raises(PreconditionError):
        minimal_admissible_set([0], 12)
    with pytest.raises(PreconditionError):
        minimal_admissible_set([0], -1)
    with pytest.raises(PreconditionError):
        minimal_admissible_set([F(3, 2)], 0)


def test_t_determined_heuristic():
    assert t_determined_heuristic([F(1, 5), F(2, 5)])
    assert t_determined_heuristic([F(1, 7)])
    assert not t_determined_heuristic([F(1, 12), F(1, 5)])
    assert not t_determined_heuristic([F(1, 24), F(5, 24), F(7, 24), F(11, 24)])
    # only proper sub-multisets matter: a full sum on the grid is fine
    assert t_determined_heuristic([F(6, 25), F(7, 25), F(8, 25), F(13, 25), F(16, 25)])


def test_rep_input_validation():
    triv = MultiplierSpec.trivial()
    with pytest.raises(PreconditionError):
        RepInput(0, (), 1, triv)
    with pytest.raises(PreconditionError):
        RepInput(2, (F(1, 5),), 1, triv)
    with pytest.raises(PreconditionError):
        RepInput(2, (F(1, 5), F(6, 5)), 1, triv)
    with pytest.raises(PreconditionError):
        RepInput(2, (F(1, 5), F(1, 5)), 1, triv)
    with pytest.raises(PreconditionError):
        RepInput(2, (F(1, 5), F(2, 5)), 2, triv)
    with pytest.raises(PreconditionError):
        RepInput(2, (F(1, 5), F(2, 5)), 1, "eta")
    with pytest.raises(ReducibilityBoundaryError):
        RepInput(2, (F(1, 2), F(1, 3)), 1, triv)
    with pytest.raises(PreconditionError):
        RepInput(4, (F(1, 5), F(2, 5), F(3, 5), F(1, 7)), 1, triv)
    with pytest.raises(PreconditionError):
        RepInput(5, (F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 7)), 1, triv)


def test_rep_input_t_determined_flag():
    triv = MultiplierSpec.trivial()
    auto = RepInput(2, (F(1, 5), F(2, 5)), 1, triv)
    assert auto.t_determined and not auto.t_determined_asserted
    manual = RepInput(2, (F(1, 12), F(1, 2)), 1, triv, t_determined_asserted=True)
    assert manual.t_determined and manual.t_determined_asserted
    neither = RepInput(2, (F(1, 12), F(1, 2)), 1, triv)
    assert not neither.t_determined


def dim1(c, m):
    return RepInput(1, [F(c, 12)], 1, m)


def test_classify_dim1():
    assert classification(dim1(0, MultiplierSpec.trivial())) == (HpSeries(0, (0,)), {})
    assert classification(dim1(6, MultiplierSpec.trivial())) == (HpSeries(6, (0,)), {})
    # a cusp parameter that pushes the exponent over 1 drops it back down
    assert classification(dim1(6, MultiplierSpec(6, 0))) == (HpSeries(0, (0,)), {})
    with pytest.raises(PreconditionError):
        classification(dim1(12, MultiplierSpec.trivial()))


def test_rep_input_refuses_a_dimension_one_angle_off_the_twelfths():
    # the T-eigenvalue of a character of SL2(Z) is a twelfth root of unity
    with pytest.raises(PreconditionError, match="dimension 1 requires 12"):
        RepInput(1, [F(1, 5)], 1, MultiplierSpec.trivial())
    assert RepInput(1, [F(5, 12)], 1, MultiplierSpec.trivial()).lambdas == (F(5, 12),)


@pytest.mark.parametrize("m", [MultiplierSpec.trivial(), MultiplierSpec(6, 0), MultiplierSpec(F(7, 3), 5)])
def test_classify_dim1_is_the_weight_of_the_eta_power(m):
    # k0 = 12 lambda, the weight of the eta power with exponent lambda
    for c in range(12):
        lams, _ = minimal_admissible_set([F(c, 12)], m.cusp_parameter)
        assert classification(dim1(c, m)) == (HpSeries(12 * lams[0], (0,)), {})


def test_classify_dim2_dim3():
    triv = MultiplierSpec.trivial()
    two = classification(RepInput(2, (F(1, 12), F(5, 12)), 1, triv, True))
    assert two == (HpSeries(2, (0, 1)), {})
    three = classification(RepInput(3, (0, F(1, 3), F(2, 3)), 1, triv, True))
    assert three == (HpSeries(2, (0, 1, 2)), {})


def test_dim4_parity_and_classification():
    triv = MultiplierSpec.trivial()
    angles = (F(1, 24), F(5, 24), F(7, 24), F(11, 24))
    even = RepInput(4, angles, -1, triv, t_determined_asserted=True)
    assert dim4_parity(even) == "even"
    assert classification(even) == (HpSeries(1, (0, 1, 1, 2)), {"parity": "even"})
    odd = RepInput(4, angles, 1, triv, t_determined_asserted=True)
    assert dim4_parity(odd) == "odd"
    assert classification(odd) == (HpSeries(0, (0, 1, 2, 3)), {"parity": "odd"})


def test_dim4_parity_unsolvable():
    angles = (F(1, 5), F(11, 30), F(8, 15), F(9, 10))
    rep = RepInput(4, angles, 1, MultiplierSpec(F(1, 3), 0), t_determined_asserted=True)
    with pytest.raises(ParityUnsolvableError):
        dim4_parity(rep)


def test_dim4_refuses_t_determination_before_parity():
    # neither T-determined by the heuristic nor parity-solvable: the
    # T-determined refusal comes first, and asserting it exposes the parity one
    angles = (F(8, 21), F(11, 21), F(20, 21), F(17, 21))
    m = MultiplierSpec(F(1, 3), 7)
    with pytest.raises(TDeterminedRequiredError):
        classification(RepInput(4, angles, 1, m))
    with pytest.raises(ParityUnsolvableError):
        classification(RepInput(4, angles, 1, m, t_determined_asserted=True))


def test_dim4_requires_t_determined():
    angles = (F(1, 24), F(5, 24), F(7, 24), F(11, 24))
    rep = RepInput(4, angles, -1, MultiplierSpec.trivial())
    with pytest.raises(TDeterminedRequiredError) as exc:
        classification(rep)
    msg = str(exc.value)
    assert "{0,1,2,3}" in msg and "{0,1,1,2}" in msg


def test_dim5_requires_t_determined():
    triv = MultiplierSpec.trivial()
    rep = RepInput(5, tuple(F(n, 12) for n in range(1, 6)), 1, triv)
    with pytest.raises(TDeterminedRequiredError) as exc:
        classification(rep)
    assert "N=0..4" in str(exc.value)


DIM5_CASES = [
    (tuple(F(n, 12) for n in (1, 2, 3, 4, 5)), 0, F(-1), 0, "1+t^2+t^4+t^6+t^8"),
    (tuple(F(n, 12) for n in (1, 2, 3, 5, 7)), 1, F(2), 0, "2+2t^2+t^4"),
    (tuple(F(n, 12) for n in (1, 2, 3, 4, 6)), 2, F(4), -2, "1+t^2+2t^4+t^6"),
    (tuple(F(n, 25) for n in (6, 7, 8, 13, 16)), 3, F(8), -3, "1+2t^2+t^4+t^6"),
    (tuple(F(n, 25) for n in (1, 2, 3, 4, 15)), 4, F(8), -4, "1+2t^2+2t^4"),
]


def test_dim5_twist_classes():
    triv = MultiplierSpec.trivial()
    for angles, n, k_n, n_n, numerator in DIM5_CASES:
        rep = RepInput(5, angles, 1, triv, t_determined_asserted=True)
        data = dim5_data(rep)
        assert data["N"] == n
        assert data["k_N"] == k_n
        assert data["n_N"] == n_n
        assert data["k0"] == k_n + 2 * n_n
        h, branch = classification(rep)
        assert branch == {"N": n, "k_N": k_n, "n_N": n_n}
        assert h.k0 == data["k0"]
        assert h.numerator() == numerator
        # the table row N = 0 is the cyclic series
        assert (h == classify._cyclic_hp(rep)) == (n == 0)


def test_hp_series_guards_and_numerator():
    with pytest.raises(PreconditionError):
        HpSeries(0, ())
    with pytest.raises(PreconditionError):
        HpSeries(0, (-1,))
    with pytest.raises(PreconditionError):
        HpSeries(0, (F(1, 2),))
    assert HpSeries(2, (1, 0, 2, 1)).offsets == (0, 1, 1, 2)
    assert HpSeries(2, (0, 1, 1, 2)).numerator() == "1+2t^2+t^4"
    assert HpSeries(0, (0,)).rank == 1


def test_hp_dimension_matches_level_one_dimensions():
    # offsets (0,) at weight 0 reproduce the classical dimension table
    h = HpSeries(0, (0,))
    dims = [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3]
    for i, want in enumerate(dims):
        assert hp_dimension(h, 2 * i) == want
    assert hp_dimension(h, -2) == 0
    assert hp_dimension(h, 3) == 0
    assert hp_dimension(h, F(1, 2)) == 0
    half = HpSeries(F(1, 2), (0,))
    assert hp_dimension(half, F(1, 2)) == 1
    assert hp_dimension(half, F(3, 2)) == 0
    assert hp_dimension(half, 1) == 0


def test_hp_dimension_sums_over_offsets():
    h = HpSeries(2, (0, 1, 1, 2))
    assert hp_dimension(h, 2) == 1
    assert hp_dimension(h, 4) == 2
    assert hp_dimension(h, 6) == 2


def count_4_6(m) -> int:
    """The number of (a, b) with 4a + 6b = m, counted one b at a time: the loop
    hp_dimension ran before it used the closed form."""
    if m < 0 or m % 2 != 0:
        return 0
    return sum(1 for b in range(m // 6 + 1) if (m - 6 * b) % 4 == 0)


def test_hp_dimension_matches_the_monomial_count():
    hs = [HpSeries(0, (0,)), HpSeries(F(1, 2), (0, 1, 1, 3)), HpSeries(-4, (0, 2, 5))]
    for h in hs:
        for d in range(-50, 1200):
            k = h.k0 + d
            assert hp_dimension(h, k) == sum(count_4_6(d - 2 * o) for o in h.offsets)
    # the count took m/6 steps; the closed form answers at once
    assert hp_dimension(HpSeries(0, (0,)), 10**12) == 10**12 // 12 + 1
    assert hp_dimension(HpSeries(2, (0, 1)), 10**12 + 2) == 2 * (10**12 // 12) + 1
