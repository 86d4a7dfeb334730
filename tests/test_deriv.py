"""The modular derivative and weight-tagged vectors."""

from __future__ import annotations

from fractions import Fraction

import pytest

import vvmf._kernel
import vvmf.deriv
import vvmf.mmde
import vvmf.qseries
from vvmf import (
    PreconditionError,
    QSeries,
    VvmfVector,
    delta,
    derivative_vector,
    eisenstein,
    eta_power,
    modular_derivative,
    mul,
    q_derivative,
)
from vvmf.deriv import _ladder
from vvmf.mmde import apply
from vvmf.qseries import _pair, _sum, _theta


def test_ramanujan_identities():
    n = 20
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    assert modular_derivative(e4, 4) == Fraction(-1, 3) * e6
    assert modular_derivative(e6, 6) == Fraction(-1, 2) * mul(e4, e4)
    e2 = eisenstein(2, n)
    assert q_derivative(e2) == Fraction(1, 12) * (mul(e2, e2) - e4)
    assert modular_derivative(delta(n), 12).is_zero
    assert modular_derivative(QSeries.one(n), 0).is_zero


def test_eta_power_is_killed_at_its_own_weight():
    # eta^{2w} has weight w; the modular derivative annihilates it
    for w in (Fraction(1, 2), 1, 6, Fraction(25, 2)):
        assert modular_derivative(eta_power(2 * w, 15), w).is_zero


def test_derivative_raises_leading_exponent_action():
    # on q^r + O(q^(r+1)) the derivative acts as multiplication by r - k/12
    f = QSeries(Fraction(2, 7), [3, 1, 4])
    out = modular_derivative(f, 6)
    assert out.coefficient_at(Fraction(2, 7)) == 3 * (Fraction(2, 7) - Fraction(1, 2))


def derive_n(f, k, n):
    """D_{k+2(n-1)} ... D_{k+2} D_k f, one modular derivative at a time."""
    for i in range(n):
        f = modular_derivative(f, k + 2 * i)
    return f


def dkn_constants(n, k):
    """Constant terms f_{n,j}(0) of the coefficients in D_k^n = sum_j f_{n,j} (q d/dq)^j.

    Recovered by probing D_k^n on the monomials q^r, r = 0..n-1, and solving
    the triangular falling-factorial system; no closed form is hardcoded.
    The library uses the closed-form root product; this probe is its oracle.
    """
    k = Fraction(k)
    values = []
    for r in range(n):
        probe = QSeries(r, [Fraction(1)] + [Fraction(0)] * n)
        values.append(derive_n(probe, k, n).coefficient_at(Fraction(r)))
    # P(r) = sum_j f_{n,j}(0) (r)_j with (r)_j the falling factorial;
    # (r)_j vanishes for integer r < j, so the system is triangular.
    consts = []
    for j in range(n):
        acc = values[j]
        for i in range(j):
            acc -= consts[i] * falling(j, i)
        consts.append(acc / falling(j, j))
    return tuple(consts)


def falling(x, j):
    acc = Fraction(1)
    for m in range(j):
        acc *= x - m
    return acc


def test_dkn_constants_match_root_product():
    # the indicial polynomial of D_k^n is the product of (r - (k+2i)/12)
    for n in (1, 2, 3, 4):
        for k in (0, 2, Fraction(1, 3), Fraction(-7, 5)):
            consts = dkn_constants(n, k)
            for r in range(n + 3):
                got = falling(r, n) + sum(consts[j] * falling(r, j) for j in range(n))
                want = Fraction(1)
                for i in range(n):
                    want *= r - Fraction(k + 2 * i, 12)
                assert got == want


def test_dkn_top_constant_closed_form():
    for n in (1, 2, 3, 5):
        for k in (0, 4, Fraction(2, 3)):
            assert dkn_constants(n, k)[n - 1] == Fraction(n * (5 * (n - 1) - k), 12)


def test_vector_validation():
    f = QSeries(Fraction(1, 12), [1, 2, 3])
    with pytest.raises(PreconditionError):
        VvmfVector(2, [], ())
    with pytest.raises(PreconditionError):
        VvmfVector(2, [f], (Fraction(1, 12), Fraction(5, 12)))
    with pytest.raises(PreconditionError):
        VvmfVector(2, [f], (Fraction(5, 12),))  # support below the exponent
    with pytest.raises(PreconditionError):
        VvmfVector(2, [f], (Fraction(1, 24),))  # off the exponent coset
    with pytest.raises(PreconditionError, match="QSeries"):
        VvmfVector(2, [[1, 2, 3]], (0,))
    gap = QSeries(0, [1, 0, 1])
    assert VvmfVector(2, [gap], (0,)).d == 1


def test_vector_truncates_to_joint_precision():
    a = QSeries(0, [1, 2, 3, 4])
    b = QSeries(Fraction(1, 2), [1, 2])
    v = VvmfVector(3, [a, b], (0, Fraction(1, 2)))
    assert v.precision == 1
    assert v.components[0].coeffs == (1, 2)


def test_vector_arithmetic_and_tags():
    f = QSeries(Fraction(1, 12), [1, 1, 1])
    g = QSeries(Fraction(5, 12), [2, 0, 1])
    v = VvmfVector(2, [f, g], (Fraction(1, 12), Fraction(5, 12)))
    w = derivative_vector(v)
    assert w.weight == 4 and w.exponents == v.exponents
    assert w.components[0] == modular_derivative(f, 2)
    total = v.plus(v.scaled(-1))
    assert total.is_zero()
    lifted = v.times_form(eisenstein(4, 2), 4)
    assert lifted.weight == 6
    assert lifted.components[1] == mul(g, eisenstein(4, 2))
    with pytest.raises(PreconditionError):
        v.plus(w)
    with pytest.raises(PreconditionError, match="matching exponents"):
        v.plus(VvmfVector(2, [f, g], (Fraction(1, 12), Fraction(-7, 12))))
    assert derivative_vector(w).weight == 6


def dense_derive(beta, f, k, *terms):
    """deriv._derive with the E_2 product as one dense convolve by the
    sieve's E_2."""
    n = len(f[0]) - 1
    return _sum(n, [(1, _theta(beta, f), None, 0), (-k / 12, _pair(eisenstein(2, n)), f, 0), *terms])


def test_sparse_e2_matches_the_dense_product_on_the_corpus(solved_corpus, monkeypatch):
    # the ladders and the residuals, on the solutions and on a neighbour's
    # solutions, where the residual is not zero, with the pentagonal E_2
    # product and with the dense one
    runs = []
    for _ in range(2):
        out = []
        for i, (_, L, F) in enumerate(solved_corpus):
            other = solved_corpus[i - 1][2]
            ladder = _ladder(F, L.order)
            odd = [modular_derivative(f, F.weight + Fraction(1, 3)) for f in F.components]
            residuals = [apply(L, f) for f in F.components + other.components]
            out.append(([G.components for G in ladder], odd, residuals))
        runs.append(out)
        monkeypatch.setattr(vvmf.deriv, "_derive", dense_derive)
        monkeypatch.setattr(vvmf.mmde, "_derive", dense_derive)
    assert runs[0] == runs[1]
    assert any(not r.is_zero for _, _, residuals in runs[0] for r in residuals)


def test_derivative_makes_no_convolve(monkeypatch):
    f = eta_power(Fraction(7, 3), 40) + QSeries(Fraction(7, 72), [Fraction(1, t + 2) for t in range(41)])
    v = VvmfVector(Fraction(7, 6), [f], (Fraction(7, 72),))
    want = _ladder(v, 5)
    calls = []
    for mod in (vvmf._kernel, vvmf.qseries):
        fn = mod.convolve
        monkeypatch.setattr(mod, "convolve", lambda *args, _fn=fn: calls.append(args) or _fn(*args))
    assert [G.components for G in _ladder(v, 5)] == [G.components for G in want]
    assert modular_derivative(f, Fraction(7, 6)) == want[1].components[0]
    assert calls == []
