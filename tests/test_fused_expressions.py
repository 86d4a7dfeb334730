"""The fused series expressions against the pairwise routes they replaced.

``apply``, ``theta_form``, ``modular_derivative`` and the minors of
``modular_wronskian`` add their integer terms over one scale and divide the
content out once per result.  The references below are the earlier
pairwise versions, one canonical series per operation; the fused routes
must give the same series, window included, by exact ==.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_qseries import rationals, raw_series

import vvmf._kernel
import vvmf.deriv
import vvmf.qseries
import vvmf.wronskian
from vvmf import (
    InternalCheckError,
    PrecisionError,
    QSeries,
    VvmfVector,
    appendix_family,
    apply,
    delta,
    derivative_vector,
    eisenstein,
    eta_power,
    modular_derivative,
    modular_wronskian,
    mul,
    q_derivative,
    solve_fundamental_system,
    theta_form,
    unique_operator,
)

N = 30
APPENDIX_EXPONENTS = [Fraction(n, 6) for n in range(1, 6)]


def pairwise_derivative(f, k):
    """D_k f as q_derivative, mul, a scalar product and add.  At k = 0 it is
    q_derivative alone: the product with zero there was a zero series on a
    floored window, which cut the theta part short."""
    k = Fraction(k)
    if k == 0:
        return q_derivative(f)
    return q_derivative(f) - Fraction(k, 12) * mul(eisenstein(2, f.precision), f)


def pairwise_apply(L, f):
    ladder = [f]
    for i in range(L.order):
        ladder.append(pairwise_derivative(ladder[-1], L.weight + 2 * i))
    out = ladder[L.order]
    for l in range(2, L.order + 1):
        a = L.alphas[l - 2]
        if a:
            g = ladder[L.order - l]
            out = out + a * mul(eisenstein(2 * l, g.precision), g)
    if L.cusp_c is not None:
        out = out + L.cusp_c * mul(delta(f.precision), f)
    return out


def pairwise_theta_form(L, precision):
    n, k = L.order, L.weight
    e2 = eisenstein(2, precision)
    prefixes = [[QSeries.one(precision)]]
    for t in range(n):
        w = Fraction(k + 2 * t, 12)
        cur = prefixes[-1]
        new = [QSeries.zero(precision) for _ in range(len(cur) + 1)]
        for i, a in enumerate(cur):
            new[i + 1] = new[i + 1] + a
            new[i] = new[i] + q_derivative(a) - w * mul(e2, a)
        prefixes.append(new)
    out = list(prefixes[n])
    for l in range(2, n + 1):
        alpha = L.alphas[l - 2]
        if alpha:
            for i, a in enumerate(prefixes[n - l]):
                out[i] = out[i] + alpha * mul(eisenstein(2 * l, precision), a)
    if L.cusp_c is not None:
        out[0] = out[0] + L.cusp_c * delta(precision)
    return out


def pairwise_wronskian(F):
    """The minor expansion with one mul and one add per term; the rows come
    from the library's derivative_vector, which is pinned on its own."""
    d = F.d
    rows = [F]
    for _ in range(d - 1):
        rows.append(derivative_vector(rows[-1]))
    mat = [list(r.components) for r in rows]
    minors = {(j,): mat[0][j] for j in range(d)}
    for i in range(1, d):
        nxt = {}
        for cols, minor in minors.items():
            if minor.is_zero:
                continue
            for j in range(d):
                if j in cols:
                    continue
                pos = sum(1 for c in cols if c < j)
                term = mul(minor, mat[i][j])
                if (len(cols) - pos) % 2:
                    term = -term
                key = cols[:pos] + (j,) + cols[pos:]
                nxt[key] = term if key not in nxt else nxt[key] + term
        minors = nxt
        if not minors:
            break
    det = minors.get(tuple(range(d)))
    if det is None:
        n = min(r.precision for r in rows)
        det = QSeries(sum(F.exponents, Fraction(0)), [Fraction(0)] * (n + 1))
    return det


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError:
        return PrecisionError


@pytest.fixture(scope="module")
def appendix_system():
    L = appendix_family(APPENDIX_EXPONENTS, Fraction(-7, 3))
    return L, solve_fundamental_system(L, N)


def test_corpus_matches_pairwise(solved_corpus):
    for _, L, F in solved_corpus:
        assert theta_form(L, N) == pairwise_theta_form(L, N)
        for f in F.components:
            assert apply(L, f) == pairwise_apply(L, f)
            if L.weight:
                assert modular_derivative(f, L.weight) == pairwise_derivative(f, L.weight)


def test_corpus_wronskians_match_pairwise(solved_corpus):
    # the whole corpus at the window d + 7 of the acceptance test, and every
    # tenth system at N, each also lifted by E_4; a d = 5 determinant at N
    # costs about 0.1 s per route
    systems = [F.truncated(F.d + 7) for _, _, F in solved_corpus]
    systems += [F for _, _, F in solved_corpus[::10]]
    for F in systems:
        assert modular_wronskian(F) == pairwise_wronskian(F)
        G = F.times_form(eisenstein(4, F.precision), 4)
        assert modular_wronskian(G) == pairwise_wronskian(G)


def test_e4_lifted_components_match_pairwise(solved_corpus):
    e4 = eisenstein(4, N)
    for _, L, F in solved_corpus[::5]:
        G = F.times_form(e4, 4)
        for g in G.components:
            assert modular_derivative(g, G.weight) == pairwise_derivative(g, G.weight)
            assert apply(L, g) == pairwise_apply(L, g)


def test_appendix_family_matches_pairwise(appendix_system):
    L, F = appendix_system
    assert theta_form(L, N) == pairwise_theta_form(L, N)
    assert modular_wronskian(F) == pairwise_wronskian(F)
    for f in F.components:
        assert apply(L, f).is_zero
        assert apply(L, f) == pairwise_apply(L, f)
        # q^beta E_4 lies on f's exponent coset, as an addend must
        g = 3 * f + QSeries(f.beta, eisenstein(4, N).coeffs)
        assert apply(L, g) == pairwise_apply(L, g)


def test_appendix_residual_on_constants_is_c_delta():
    # the window modstruct.appendix_demo compares against
    one = QSeries.one(24)
    for c in (Fraction(-7, 3), Fraction(1), Fraction(5, 2)):
        residual = apply(appendix_family(APPENDIX_EXPONENTS, c), one)
        assert residual == c * delta(residual.precision) == pairwise_apply(appendix_family(APPENDIX_EXPONENTS, c), one)


def test_theta_form_cusp_term_needs_a_window():
    L = appendix_family(APPENDIX_EXPONENTS, Fraction(-7, 3))
    with pytest.raises(PrecisionError):
        pairwise_theta_form(L, 0)
    with pytest.raises(PrecisionError):
        theta_form(L, 0)


def test_residual_cusp_product_needs_a_window():
    # on the constant 1 known only at q^0 every ladder term vanishes, and
    # c Delta * 1 starts at q^1, past the window of that zero sum
    one = QSeries.one(0)
    with pytest.raises(PrecisionError):
        apply(appendix_family(APPENDIX_EXPONENTS, Fraction(-7, 3)), one)
    assert apply(appendix_family(APPENDIX_EXPONENTS, 0), one).is_zero


def test_wronskian_rows_with_zero_entries_match_pairwise():
    # D_1 kills the eta^2 component of the roots (1/12, 1/4) and D_2 the
    # eta^4 component of (1/12, 1/6, 3/4), so the derivative rows hold zero
    # series; a scaled copy makes zero minors, which the expansion skips
    F = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(1, 4)]), N)
    assert F.components[0] == eta_power(2, N)
    assert derivative_vector(F).components[0].is_zero
    assert modular_wronskian(F) == pairwise_wronskian(F)
    G = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(1, 6), Fraction(3, 4)]), N)
    assert derivative_vector(G).components[1].is_zero
    assert modular_wronskian(G) == pairwise_wronskian(G)
    # a zero product is known only as far as QSeries.zero of the shorter
    # precision, which cuts the minor when its partners start past q^1
    late = VvmfVector(1, [eta_power(2, N), QSeries(Fraction(5, 4), range(1, N + 2))], (Fraction(1, 12), Fraction(1, 4)))
    assert modular_wronskian(late) == pairwise_wronskian(late)
    e4 = eisenstein(4, N)
    dependent = VvmfVector(4, [e4, 2 * e4, delta(N)], (0, 0, 0))
    assert modular_wronskian(dependent).is_zero
    assert modular_wronskian(dependent) == pairwise_wronskian(dependent)
    # every 2 x 2 minor of proportional columns is zero and a zero column
    # leaves no minor at all, so the full minor has no term: the zero series
    # at the exponent sum on the window of the derivative rows
    for cols in ([e4, 2 * e4, 3 * e4], [QSeries.zero(N), QSeries.zero(N)]):
        degenerate = VvmfVector(4, cols, (0,) * len(cols))
        assert modular_wronskian(degenerate).is_zero
        assert modular_wronskian(degenerate) == pairwise_wronskian(degenerate)


def route_cases():
    """(vector, takes the theta-row route) for each kind of input the route test covers."""
    e4, n = eisenstein(4, N), 12
    fifth = QSeries(Fraction(1, 5), range(1, N + 2))
    solved = [solve_fundamental_system(unique_operator(roots), n) for roots in (
        [Fraction(1, 12), Fraction(5, 12)],
        [Fraction(1, 24), Fraction(5, 24), Fraction(7, 24), Fraction(11, 24), Fraction(13, 24), Fraction(19, 24)],
        [Fraction(1, 12), Fraction(1, 4)],
    )]
    return [
        (VvmfVector(1, [eta_power(2, N)], (Fraction(1, 12),)), True),
        (solved[0], True),
        (solved[1], True),
        (solved[1].times_form(eisenstein(4, n), 4), True),
        # beta = 0, and beta_b = beta_a + 1: the theta-shifted rows of E_4
        # start a step late, on the exponent of Delta
        (VvmfVector(4, [e4, delta(N), fifth], (0, 0, Fraction(1, 5))), True),
        # a constant component: every theta shift of it is zero
        (VvmfVector(4, [QSeries.one(N), delta(N), fifth], (0, 0, Fraction(1, 5))), True),
        # D_1 kills the eta^2 component: the ladder keeps its shorter window
        (solved[2], False),
        # repeated leading exponents, dependent columns, a zero column
        (VvmfVector(4, [e4, e4 + delta(N)], (0, 0)), False),
        (VvmfVector(4, [e4, 2 * e4, delta(N)], (0, 0, 0)), False),
        (VvmfVector(4, [fifth, QSeries.zero(N)], (Fraction(1, 5), 0)), False),
    ]


def test_each_wronskian_route_matches_pairwise(monkeypatch):
    calls = {"modular_derivative": 0, "_ladder_wronskian": 0}
    for mod, name in ((vvmf.deriv, "modular_derivative"), (vvmf.wronskian, "_ladder_wronskian")):
        def counting(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(mod, name, counting)
    for F, theta_route in route_cases():
        want = pairwise_wronskian(F)
        for key in calls:
            calls[key] = 0
        assert modular_wronskian(F) == want
        # the theta rows need no derivative ladder
        if theta_route:
            assert calls == {"modular_derivative": 0, "_ladder_wronskian": 0}
        else:
            assert calls == {"modular_derivative": F.d * (F.d - 1), "_ladder_wronskian": 1}


def test_theta_route_refuses_a_result_off_its_natural_window(monkeypatch):
    # a 2 x 2 minor computed one step past the window must not come back
    real = vvmf.wronskian._theta_minor
    monkeypatch.setattr(vvmf.wronskian, "_theta_minor", lambda n, *args: real(n + 1, *args))
    F = solve_fundamental_system(unique_operator([Fraction(1, 12), Fraction(5, 12)]), 12)
    with pytest.raises(InternalCheckError, match="window"):
        modular_wronskian(F)


OPERATORS = [
    unique_operator([Fraction(1, 12), Fraction(5, 12)]),
    unique_operator([0, Fraction(1, 3), Fraction(7, 6)]),
    unique_operator([Fraction(1, 24), Fraction(5, 24), Fraction(7, 24), Fraction(11, 24), Fraction(13, 24)]),
    appendix_family(APPENDIX_EXPONENTS, Fraction(-7, 3)),
]


def assert_pinned(fused, pair):
    """fused == pair, unless an intermediate canonical form of the pairwise
    route cut its window: a zero series floored to an integer window.  The
    fused route keeps the input's window, so it then agrees with pair on
    pair's window and knows more, and it answers where the pairwise route ran
    out of window."""
    assert fused is not PrecisionError or pair is PrecisionError
    if pair is PrecisionError or fused is PrecisionError:
        return
    assert fused.agrees_with(pair) and fused.window_top >= pair.window_top
    if fused.window_top == pair.window_top:
        assert fused == pair


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(raw_series, rationals.filter(bool), st.sampled_from(OPERATORS))
def test_generated_series_match_pairwise(raw, k, L):
    f = QSeries(*raw)
    assert_pinned(outcome(modular_derivative, f, k), outcome(pairwise_derivative, f, k))
    assert_pinned(outcome(apply, L, f), outcome(pairwise_apply, L, f))


def test_weight_zero_derivative_keeps_the_window():
    f = QSeries(Fraction(1, 3), [1, 2, 3, 4])
    d = modular_derivative(f, 0)
    assert d == q_derivative(f)
    assert d.precision == 3 and d.window_top == Fraction(10, 3)
    assert modular_derivative(QSeries(Fraction(5, 7), [3]), 0) == QSeries(Fraction(5, 7), [Fraction(15, 7)])


def count_calls(monkeypatch):
    """Count convolve, mul and _series calls made from every vvmf module."""
    counts = {"convolve": 0, "mul": 0, "_series": 0}
    targets = {"convolve": vvmf._kernel.convolve, "mul": vvmf.qseries.mul, "_series": vvmf.qseries._series}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for modname, mod in list(sys.modules.items()):
        if modname == "vvmf" or modname.startswith("vvmf."):
            for name, fn in targets.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting(name, fn))
    return counts


def test_solve_and_apply_call_counts(monkeypatch):
    # The pairwise routes made 70 convolve calls here and 190 _series calls.
    # The fused routes run the same products and one content pass per
    # result: d + 1 theta-form coefficients, d components, one per residual.
    L = OPERATORS[2]
    for f in solve_fundamental_system(L, N).components:
        apply(L, f)  # fill the eisenstein and delta caches
    counts = count_calls(monkeypatch)
    F = solve_fundamental_system(L, N)
    d, n = F.d, L.order
    solved = counts["_series"]
    for f in F.components:
        before = counts["_series"]
        assert apply(L, f).is_zero
        assert counts["_series"] - before == 1
    assert counts["convolve"] == 70
    assert solved <= d + n + 2


def test_only_qseries_holds_the_kernel():
    # every series product runs through the qseries primitive, which alone
    # knows the integer numerator-over-scale format
    holders = []
    for info in pkgutil.iter_modules(vvmf.__path__):
        mod = importlib.import_module("vvmf." + info.name)
        if any(obj is vvmf._kernel.convolve for obj in vars(mod).values()):
            holders.append(info.name)
    assert sorted(holders) == ["_kernel", "qseries"]
