"""Spans around the public functions of every vvmf layer, and the per-layer
metrics computed from them.

The tracer times each layer from outside: it replaces every public function
of a layer module by a wrapper that records a span (name, start, end,
parent span, op id).  The replacement is made in every loaded ``vvmf``
module that holds the same function object, so a copy taken with
``from .qseries import mul`` (``vvmf.frobenius.mul``) or re-exported by the
package (``vvmf.mul``) is traced under its owner's name (``qseries.mul``).
Spans stay in memory until the run ends.

Self time is a span's duration minus the time its child spans cover.  A
probe (extra counts taken from a call's arguments or result) runs after its
span closes and is recorded as a ``trace.probe`` span, so its cost is
charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# (layer name, module); a function belongs to the layer whose module defined it.
LAYERS = (
    ("kernel", "vvmf._kernel"),
    ("qseries", "vvmf.qseries"),
    ("forms", "vvmf.forms"),
    ("deriv", "vvmf.deriv"),
    ("mmde", "vvmf.mmde"),
    ("frobenius", "vvmf.frobenius"),
    ("wronskian", "vvmf.wronskian"),
    ("linalg", "vvmf.linalg"),
    ("modstruct", "vvmf.modstruct"),
    ("classify", "vvmf.classify"),
    ("cli", "vvmf.cli"),
)

OP_SPAN = "op"
PROBE_SPAN = "trace.probe"
IMPORT_SPAN = "cli.import"
SPANS_MARK = "\x00perfbench-spans "  # precedes a traced child's spans on its stderr

# Buckets of the convolve shape histogram.  The length edge at 120/121 is
# the measured break-even of Kronecker substitution against the plain loop.
LEN_BUCKETS = ((32, "len_1_32"), (64, "len_33_64"), (120, "len_65_120"),
               (240, "len_121_240"), (None, "len_241_up"))
BITS_BUCKETS = ((64, "bits_0_64"), (512, "bits_65_512"), (2048, "bits_513_2048"),
                (8192, "bits_2049_8192"), (None, "bits_8193_up"))

# Per-layer metrics: sums are reported per traced op, maxima and ratios as is.
CALLS = (
    "kernel.convolve", "qseries.mul", "qseries.add", "qseries.divide_exact",
    "forms.eisenstein", "forms.eta_power", "forms.delta",
    "deriv.modular_derivative", "mmde.apply", "frobenius.solve_fundamental_system",
    "linalg.rank", "linalg.kernel_vector",
)
SELF = (
    "kernel.convolve",
    "qseries.mul", "qseries.add", "qseries.divide_exact", "qseries.q_derivative",
    "forms.eisenstein", "forms.eta_power", "forms.delta", "forms.mspace_basis",
    "deriv.modular_derivative", "deriv.derivative_vector", "deriv.dkn_constants",
    "mmde.unique_operator", "mmde.indicial_polynomial", "mmde.apply",
    "frobenius.theta_form", "frobenius.solve_fundamental_system",
    "wronskian.modular_wronskian", "wronskian.wronskian_factorization",
    "linalg.rank", "linalg.kernel_vector",
    "modstruct", "modstruct.delta_divisible_combination", "modstruct.descend_by_delta",
    "modstruct.weight_space_dimension",
    "classify", "cli.main", "unattributed",
)
PER_OP_COUNTS = (
    ("kernel.convolve.limb_products", "1/op"),
    ("linalg.cells", "1/op"),
    ("cli.stdout_bytes", "B/op"),
)
MAXIMA = (
    ("kernel.convolve.len_max", "count"),
    ("kernel.convolve.bits_max", "bits"),
    ("frobenius.coeff_bits_max", "bits"),
)
TRACE_METRICS = (
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.output_mismatches", "count"),
    ("trace.probe_errors", "count"),
)


def shape_metric(length: int, bits: int) -> str:
    """Histogram cell of one convolve call."""
    lb = next(name for edge, name in LEN_BUCKETS if edge is None or length <= edge)
    bb = next(name for edge, name in BITS_BUCKETS if edge is None or bits <= edge)
    return "kernel.convolve.shape.%s.%s" % (lb, bb)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SELF:
        if name in CALLS:
            out[name + ".calls"] = "1/op"
        out[name + ".self_s"] = "s/op"
    out["forms.eisenstein.repeat_ratio"] = "ratio"
    out["cli.import_s"] = "s/op"
    for name, unit in PER_OP_COUNTS + MAXIMA:
        out[name] = unit
    for layer, _ in LAYERS:
        out[layer + ".errors"] = "count"
    for _, lb in LEN_BUCKETS:
        for _, bb in BITS_BUCKETS:
            out["kernel.convolve.shape.%s.%s" % (lb, bb)] = "1/op"
    for name, unit in TRACE_METRICS:
        out[name] = unit
    return out


def _limbs(x: int) -> int:
    """Number of 30-bit digits CPython stores for x (0 for x = 0)."""
    return (abs(x).bit_length() + 29) // 30


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe_convolve(tr, args, kwargs, out):
    if tr.op is None:
        return
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    n_out = _arg(args, kwargs, 2, "n_out")
    a, b = list(a[:n_out]), list(b[:n_out])
    lb = [_limbs(x) for x in b]
    prefix = [0]
    for v in lb:
        prefix.append(prefix[-1] + v)
    # pairs (i, j) with i + j < n_out; zero entries have 0 limbs
    products = sum(_limbs(x) * prefix[min(len(b), n_out - i)] for i, x in enumerate(a) if x)
    length = max(len(a), len(b))
    bits = max((abs(x).bit_length() for x in a + b), default=0)
    tr.counts["kernel.convolve.limb_products"] += products
    tr.counts[shape_metric(length, bits)] += 1
    tr.raise_max("kernel.convolve.len_max", length)
    tr.raise_max("kernel.convolve.bits_max", bits)


def _probe_eisenstein(tr, args, kwargs, out):
    key = (_arg(args, kwargs, 0, "k"), _arg(args, kwargs, 1, "precision"))
    if tr.op is not None and key in tr.seen_eisenstein:
        tr.counts["forms.eisenstein.repeats"] += 1
    tr.seen_eisenstein.add(key)


def _probe_solve(tr, args, kwargs, out):
    if tr.op is None:
        return
    bits = 0
    for f in out.components:
        for c in f.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tr.raise_max("frobenius.coeff_bits_max", bits)


def _probe_linalg(tr, args, kwargs, out):
    if tr.op is None:
        return
    rows = _arg(args, kwargs, 0, "rows")
    tr.counts["linalg.cells"] += len(rows) * _arg(args, kwargs, 1, "ncols")


PROBES = {
    "kernel.convolve": _probe_convolve,
    "forms.eisenstein": _probe_eisenstein,
    "frobenius.solve_fundamental_system": _probe_solve,
    "linalg.rank": _probe_linalg,
    "linalg.kernel_vector": _probe_linalg,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id or None]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.maxima = {}
        self.seen_eisenstein = set()
        self._patches = []

    # -- recording ---------------------------------------------------

    def raise_max(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def add_span(self, name, start, end, parent=None):
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def begin_op(self, op, start):
        """Open the root span of one op; layer spans nest under it."""
        self.op = op
        self.stack.append(self.add_span(OP_SPAN, start, start))

    def end_op(self, end):
        self.spans[self.stack.pop()][2] = end
        self.op = None

    def merge_child(self, payload):
        """Adopt the spans and counts of a traced child process, under the open op."""
        base = len(self.spans)
        root = self.stack[-1]
        for name, start, end, parent in payload["spans"]:
            self.spans.append([name, start, end, root if parent is None else base + parent, self.op])
        self.counts.update(payload["counts"])
        for name, value in payload["maxima"].items():
            self.raise_max(name, value)

    def child_payload(self):
        return {
            "spans": [s[:4] for s in self.spans],
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        probe = PROBES.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                escaped = parent is None or spans[parent][0].split(".", 1)[0] != layer
                if escaped and self.op is not None:
                    self.counts[layer + ".errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                t = perf_counter()
                try:
                    probe(self, args, kwargs, out)
                except Exception:
                    self.counts["trace.probe_errors"] += 1
                self.add_span(PROBE_SPAN, t, perf_counter(), parent)
            return out

        return functools.update_wrapper(traced, fn)

    # -- installation ------------------------------------------------

    def install(self):
        """Wrap the public functions of every loaded layer module."""
        owned = {}
        for layer, modname in LAYERS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", None) or ""
                if owner == modname or owner.startswith(modname + "."):
                    owned.setdefault(id(obj), (obj, self._wrap("%s.%s" % (layer, attr), obj)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "vvmf" or modname.startswith("vvmf.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = owned.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    # -- output ------------------------------------------------------

    def write(self, path):
        """Write the spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct child spans cover.

    Children of one parent never overlap (one thread), so what they cover
    is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer values over the spans that belong to an op."""
    calls, own = Counter(), Counter()
    import_s = 0.0
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        name, op = span[0], span[4]
        if op is None or name == PROBE_SPAN:
            continue
        if name == OP_SPAN:
            own["unattributed"] += t
            continue
        if name == IMPORT_SPAN:
            import_s += span[2] - span[1]
            continue
        calls[name] += 1
        own[name] += t
        own[name.split(".", 1)[0]] += t
    n = max(n_ops, 1)
    out = {}
    for name in CALLS:
        out[name + ".calls"] = calls[name] / n
    for name in SELF:
        out[name + ".self_s"] = own[name] / n
    eis = calls["forms.eisenstein"]
    out["forms.eisenstein.repeat_ratio"] = tracer.counts["forms.eisenstein.repeats"] / eis if eis else 0.0
    out["cli.import_s"] = import_s / n
    for name, _ in PER_OP_COUNTS:
        out[name] = tracer.counts[name] / n
    for name, _ in MAXIMA:
        out[name] = tracer.maxima.get(name, 0)
    for layer, _ in LAYERS:
        out[layer + ".errors"] = tracer.counts[layer + ".errors"]
    for _, lb in LEN_BUCKETS:
        for _, bb in BITS_BUCKETS:
            key = "kernel.convolve.shape.%s.%s" % (lb, bb)
            out[key] = tracer.counts[key] / n
    out["trace.probe_errors"] = tracer.counts["trace.probe_errors"]
    return out
