"""Tests of the benchmark's own code.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import statistics
from fractions import Fraction

import pytest

import oracle
import run
import tracing
import workloads

ROOT = workloads.ROOT


# -- tail percentile ---------------------------------------------------


def test_tail_has_ten_samples_above():
    values = list(range(1, 101))  # 100 samples
    pct, value = run.tail(values)
    assert value == 90
    assert sum(1 for v in values if v > value) == 10
    assert pct == 90.0


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
    pct, value = run.tail(values)
    assert value == 2.0
    assert pct == pytest.approx(100 * 2 / 12)


def test_tail_with_ten_samples_or_fewer_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail(list(range(10))) == (100.0, 9)


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a.f", 1.0, 7.0, 0, 0],
        ["b.g", 2.0, 4.0, 1, 0],
        ["b.g", 4.5, 5.0, 1, 0],
        ["c.h", 2.5, 3.0, 2, 0],
        ["a.f", 8.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.5, 1.5, 0.5, 0.5, 1.0])


def test_layer_metrics_attribute_self_time_per_op():
    tr = tracing.Tracer()
    tr.spans = [
        ["op", 0.0, 4.0, None, 0],
        ["qseries.mul", 0.5, 2.5, 0, 0],
        ["kernel.convolve", 1.0, 2.0, 1, 0],
        ["trace.probe", 2.0, 2.2, 1, 0],
        ["op", 5.0, 6.0, None, 1],
        ["qseries.mul", 5.0, 5.5, 4, 1],
        ["qseries.mul", 9.0, 9.5, None, None],  # set-up: not part of any op
    ]
    m = tracing.layer_metrics(tr, 2)
    assert m["qseries.mul.calls"] == 1.0
    assert m["qseries.mul.self_s"] == pytest.approx((0.8 + 0.5) / 2)
    assert m["kernel.convolve.self_s"] == pytest.approx(0.5)
    assert m["unattributed.self_s"] == pytest.approx((2.0 + 0.5) / 2)


# -- wrapper coverage --------------------------------------------------


@pytest.fixture
def traced():
    import vvmf  # noqa: F401  (loads every layer module)

    tr = tracing.Tracer()
    tr.install()
    tr.begin_op(0, 0.0)
    yield tr
    tr.end_op(1.0)
    tr.uninstall()


def test_copy_imported_by_another_module_counts_under_its_owner(traced):
    import vvmf.frobenius
    import vvmf.qseries

    one = vvmf.qseries.QSeries.one(3)
    vvmf.frobenius.mul(one, one)
    names = [s[0] for s in traced.spans]
    assert names.count("qseries.mul") == 1
    assert names.count("kernel.convolve") == 1  # via vvmf.qseries.convolve
    mul_span = names.index("qseries.mul")
    conv = traced.spans[names.index("kernel.convolve")]
    assert conv[3] == mul_span


def test_operators_and_package_exports_are_traced(traced):
    import vvmf

    one = vvmf.QSeries.one(2)
    vvmf.mul(one, one)
    _ = one + one  # QSeries.__add__ looks up qseries.add at call time
    names = [s[0] for s in traced.spans]
    assert names.count("qseries.mul") == 1
    assert names.count("qseries.add") == 1


def test_uninstall_restores_every_function(traced):
    import vvmf.frobenius
    import vvmf.qseries

    original = vvmf.qseries.mul.__wrapped__
    assert vvmf.frobenius.mul is vvmf.qseries.mul is not original
    traced.uninstall()
    assert vvmf.frobenius.mul is vvmf.qseries.mul is original
    traced.install()


def test_escaping_exception_counts_once_per_layer(traced):
    import vvmf

    with pytest.raises(vvmf.PreconditionError):
        vvmf.eisenstein(3, 5)
    assert traced.counts["forms.errors"] == 1


def test_convolve_probe_counts_limb_products_and_shape(traced):
    import vvmf.qseries

    a, b = [1, 0, 2**40], [3, 2**70]
    vvmf.qseries.convolve(a, b, 3)
    # nonzero pairs with i + j < 3: (0,0) 1*1, (0,1) 1*3, (2,0) 2*1
    assert traced.counts["kernel.convolve.limb_products"] == 1 + 3 + 2
    assert traced.maxima["kernel.convolve.len_max"] == 3
    assert traced.maxima["kernel.convolve.bits_max"] == 71
    assert traced.counts["kernel.convolve.shape.len_1_32.bits_65_512"] == 1


def test_every_declared_metric_is_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.metric_units()
    assert set(tracing.layer_metrics(tracing.Tracer(), 1)) | {
        name for name, _ in tracing.TRACE_METRICS if name != "trace.probe_errors"
    } == set(declared)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- traced and untraced outputs are byte-identical --------------------


@pytest.mark.parametrize("name,count", [("solve", 4), ("wronskian", 3), ("cli", 3)])
def test_traced_outputs_equal_untraced(name, count):
    w = workloads.WORKLOADS[name](7)
    tr = tracing.Tracer()
    if isinstance(w, workloads.InProcess):
        w.lib = workloads.import_library()
        tr.install()
    try:
        w.setup()
        traced = run.run_ops(w, None, tr, count=count)
    finally:
        tr.uninstall()
    plain = run.run_ops(w, None, None, count=count)
    assert traced.failures == [] and plain.failures == []
    assert traced.digests == plain.digests
    assert any(s[0] != tracing.OP_SPAN for s in tr.spans)


# -- inputs and oracles ------------------------------------------------


def test_inputs_depend_only_on_seed_and_index():
    assert workloads.Solve(3).make_input(17) == workloads.Solve(3).make_input(17)
    assert workloads.Solve(3).make_input(17) != workloads.Solve(4).make_input(17)
    assert workloads.cli_input(5, 9) == workloads.cli_input(5, 9)


def test_eta_oracle_matches_known_expansions():
    # delta = q - 24 q^2 + 252 q^3 - 1472 q^4 + 4830 q^5
    assert oracle.eta_product_power(Fraction(24), 4) == [1, -24, 252, -1472, 4830]
    # prod (1 - q^n)^-1 is the partition generating function
    assert oracle.eta_product_power(Fraction(-1), 7) == [1, 1, 2, 3, 5, 7, 11, 15]


def test_eisenstein_oracle_matches_known_expansions():
    assert oracle.eisenstein_coeffs(4, 3) == [1, 240, 2160, 6720]
    assert oracle.eisenstein_coeffs(2, 3) == [1, -24, -72, -96]
    assert oracle.eisenstein_coeffs(12, 1)[1] == Fraction(65520, 691)


def test_oracle_rejects_a_wrong_coefficient():
    good = {"base_exponent": "1", "coeffs": ["1", "-24", "252"], "precision": 2}
    facts = {"exponent": Fraction(24), "precision": 2}
    assert oracle.check_cli_document("delta", {"expansion": good}, facts) == []
    bad = dict(good, coeffs=["1", "-24", "253"])
    assert oracle.check_cli_document("delta", {"expansion": bad}, facts)


def test_reference_digests_are_current():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    assert ref["definitions"] == workloads.definitions_hash()
    assert statistics.median(len(v) for v in ref["digests"].values()) > 0
