"""The three workloads: seeded inputs, the timed op, its digest and its checks.

Each op's input depends only on (workload, seed, op index), so the same seed
gives the same inputs and a traced replay sees exactly the ops of the
untraced one.  The library receives only these generated inputs.

- ``solve``: one random root multiset per op (order cycling 2, 3, 4, 5; each
  root drawn as in ``tests/conftest.py``), ``unique_operator``, then
  ``solve_fundamental_system`` at N = 30, then ``apply(L, f).is_zero`` for
  every component.  Cycling the order keeps the conftest mix of orders in
  every stretch of ops, so a run's cost does not hang on how many order-5
  operators the seed happened to draw.
- ``wronskian``: a pool of 12 systems each of order 3, 4 and 5, solved at
  N = 24 during set-up and grouped into 12 triples, one system of each
  order.  Op i factors the Wronskians of the three systems of triple
  i mod 12, each cut to a precision in [d + 7, 24] (acceptance scenario A4
  cuts to d + 7), and of the same systems times E_4.  The cost of an
  order-5 factorization spans 6x with the lcm of the root denominators, so
  each order's pool members are drawn at evenly spaced quantiles of that
  lcm among 240 seeded candidates (stratified sampling), and a triple joins
  the j-th cheapest order-5 system to the j-th dearest order-4 one.  One op
  over all three orders has a single-peaked latency, so its median does not
  jump between orders, and a seed's few costly systems do not set its
  throughput.  The cut of each visit to a system follows a golden-ratio
  sequence from a seeded phase, so a run's visits spread evenly over
  [d + 7, 24] and the ops stay distinct.
- ``cli``: one fresh interpreter per op, ``python -m vvmf.cli <argv>``,
  cycling through a fixed command list with seeded parameters.  The three
  costliest commands (the N = 3 and N = 4 rows of the dimension 5 table and
  the odd dimension 4 input) run in both output formats.  They are then a
  third of the ops, so the latency tail (ten samples above it) falls among
  them and does not jump with where a run happens to stop in the cycle.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import lcm

import oracle
from tracing import SPANS_MARK

SOLVE_PRECISION = 30
WRONSKIAN_PRECISION = 24
WRONSKIAN_ORDERS = (3, 4, 5)
POOL_PER_ORDER = 12
POOL_CANDIDATES = 240
GOLDEN = (5 ** 0.5 - 1) / 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "cli_child.py")


def rng_for(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def random_roots(rng, n):
    """n roots with denominators <= 24, entries in [0, 2), pairwise
    incongruent modulo 1 (the root distribution of tests/conftest.py)."""
    roots, seen = [], set()
    while len(roots) < n:
        den = rng.randrange(1, 25)
        r = Fraction(rng.randrange(0, 2 * den), den)
        frac = r - r.__floor__()
        if frac in seen:
            continue
        seen.add(frac)
        roots.append(r)
    return roots


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def import_library():
    import vvmf

    return vvmf


class InProcess:
    """A workload whose ops call the library in this process.

    Ops look functions up on the package at call time, so that the tracer's
    wrappers see them."""

    def __init__(self, seed):
        self.seed = seed
        self.lib = None

    def setup(self):
        self.lib = import_library()

    def backend(self):
        return getattr(self.lib, "BACKEND", "none")


class Solve(InProcess):
    name = "solve"

    def make_input(self, i):
        return random_roots(rng_for(self.name, self.seed, i), 2 + i % 4)

    def run(self, roots, tracer=None):
        lib = self.lib
        L = lib.unique_operator(roots)
        F = lib.solve_fundamental_system(L, SOLVE_PRECISION)
        residuals_zero = [lib.apply(L, f).is_zero for f in F.components]
        return L, F, residuals_zero

    def digest(self, out):
        return sha(canonical([f.to_record() for f in out[1].components]))

    def check(self, roots, out):
        L, F, residuals_zero = out
        n = len(roots)
        problems = []
        if not all(residuals_zero):
            problems.append("nonzero residual")
        if L.weight != Fraction(12) * sum(roots) / n + 1 - n:
            problems.append("weight is not 12*lambda/n + 1 - n")
        if [f.beta for f in F.components] != sorted(roots):
            problems.append("leading exponents are not the sorted roots")
        if any(f.coeffs[0] != 1 or f.precision != SOLVE_PRECISION for f in F.components):
            problems.append("components are not normalized to precision 30")
        return problems


class Wronskian(InProcess):
    name = "wronskian"

    def setup(self):
        super().setup()
        pools = {}
        for order in WRONSKIAN_ORDERS:
            rng = rng_for(self.name, self.seed, "pool", order)
            cands = [random_roots(rng, order) for _ in range(POOL_CANDIDATES)]
            cands.sort(key=lambda rs: lcm(*(r.denominator for r in rs)))
            pools[order] = []
            for j in range(POOL_PER_ORDER):
                roots = cands[(2 * j + 1) * POOL_CANDIDATES // (2 * POOL_PER_ORDER)]
                L = self.lib.unique_operator(roots)
                pools[order].append((roots, self.lib.solve_fundamental_system(L, WRONSKIAN_PRECISION)))
        # the j-th cheapest order 5 system goes with the j-th dearest order 4
        # one, so that the triples' costs lie close together
        last, half = POOL_PER_ORDER - 1, POOL_PER_ORDER // 2
        self.pool = [(pools[3][(j + half) % POOL_PER_ORDER], pools[4][last - j], pools[5][j])
                     for j in range(POOL_PER_ORDER)]
        rng = rng_for(self.name, self.seed, "phase")
        self.phases = [[rng.random() for _ in WRONSKIAN_ORDERS] for _ in self.pool]

    def make_input(self, i):
        j, visit = i % POOL_PER_ORDER, i // POOL_PER_ORDER
        systems = []
        for (roots, F), phase in zip(self.pool[j], self.phases[j]):
            lo = len(roots) + 7
            step = (phase + visit * GOLDEN) % 1.0
            systems.append((roots, F.truncated(lo + int(step * (WRONSKIAN_PRECISION + 1 - lo)))))
        return systems

    def run(self, systems, tracer=None):
        lib = self.lib
        out = []
        for _, F in systems:
            lifted = F.times_form(lib.eisenstein(4, F.precision), 4)
            out.append((lib.wronskian_factorization(F), lib.wronskian_factorization(lifted)))
        return out

    def digest(self, out):
        return sha(canonical([[[str(e), g.to_record(), str(w)] for e, g, w in pair] for pair in out]))

    def check(self, systems, out):
        problems = []
        for (roots, _), ((e, g, w), (e2, g2, w2)) in zip(systems, out, strict=True):
            gamma = oracle.vandermonde(roots)
            lifted = oracle.series_power(oracle.eisenstein_coeffs(4, g2.precision), len(roots))
            if e != sum(roots) or e2 != e:
                problems.append("eta exponent is not the root sum")
            if w != 0 or w2 != 4 * len(roots):
                problems.append("cofactor weights are not 0 and 4d")
            if g.beta != 0 or list(g.coeffs) != [gamma] + [0] * g.precision:
                problems.append("cofactor is not the Vandermonde constant")
            if g2.beta != 0 or list(g2.coeffs) != [gamma * c for c in lifted]:
                problems.append("cofactor of E_4 F is not the constant times E_4^d")
        return problems


DIM5_TABLE = (  # tests/test_acceptance.py::DIM5_TABLE, rows N = 0..4
    ((1, 2, 3, 4, 5), 12),
    ((1, 2, 3, 5, 7), 12),
    ((1, 2, 3, 4, 6), 12),
    ((6, 7, 8, 13, 16), 25),
    ((1, 2, 3, 4, 15), 25),
)
DIM4 = {
    "even": ["--dim", "4", "--r", "1/24,5/24,7/24,11/24", "--epsilon", "-1", "--assert-t-determined"],
    "odd": ["--dim", "4", "--r", "1/5,11/30,8/15,9/10", "--epsilon", "-1"],
}
APPENDIX_EXPONENTS = "2/22,5/22,8/22,19/22,21/22"

# One cycle of the cli workload: (kind, table row, output format).  The
# three costliest commands run in both formats (see the module docstring).
CLI_CYCLE = (
    ("dim5", 3, "json"), ("delta", None, None), ("dim5", 0, "json"), ("eta", None, None),
    ("dim4", "odd", "text"), ("dim4", "even", "json"), ("dim5", 4, "text"),
    ("solve", None, None), ("dim5", 1, "json"), ("classify", None, None),
    ("dim4", "odd", "json"), ("eisenstein", None, None), ("dim5", 3, "text"),
    ("hp", None, None), ("dim5", 2, "json"), ("appendix", None, None),
    ("dim5", 4, "json"), ("wronskian", None, None),
)


def _rats(xs) -> str:
    return ",".join(str(x) for x in xs)


def _angles(rng, n):
    out = set()
    while len(out) < n:
        den = rng.randrange(1, 25)
        out.add(Fraction(rng.randrange(den), den))
    return sorted(out)


def cli_input(seed, i):
    """(kind, argv, facts the checker needs) for op i of the cli workload."""
    kind, row, fmt = CLI_CYCLE[i % len(CLI_CYCLE)]
    rng = rng_for("cli", seed, i)
    if kind == "dim5":
        nums, den = DIM5_TABLE[row]
        argv = ["verify-structure", "--dim", "5", "--r", _rats(Fraction(x, den) for x in nums),
                "--assert-t-determined", "--format", fmt]
        return kind, argv, {"format": fmt}
    if kind == "dim4":
        return kind, ["verify-structure"] + DIM4[row] + ["--format", fmt], {"format": fmt}
    if kind == "appendix":
        cs = [0] + rng.sample([c for c in range(-5, 6) if c], 2)
        return kind, ["appendix", "--exponents", APPENDIX_EXPONENTS, "--c", _rats(cs)], {}
    if kind == "delta":
        return kind, ["forms", "--series", "delta", "--precision", "200"], {"exponent": Fraction(24), "precision": 200}
    if kind == "eta":
        q = rng.randrange(1, 25)
        p = rng.choice([x for x in range(-2 * q, 2 * q + 1) if x])
        e = Fraction(p, q)
        n = rng.randrange(100, 161)
        return kind, ["forms", "--series", "eta^%s" % e, "--precision", str(n)], {"exponent": e, "precision": n}
    if kind == "eisenstein":
        k = rng.randrange(2, 16, 2)
        n = rng.randrange(100, 201)
        return kind, ["forms", "--series", "E%d" % k, "--precision", str(n)], {"k": k, "precision": n}
    if kind == "solve":
        roots = random_roots(rng, rng.randrange(2, 6))
        return kind, ["mmde", "solve", "--roots", _rats(roots), "--precision", "30"], {"roots": roots}
    if kind == "wronskian":
        roots = random_roots(rng, rng.randrange(2, 5))
        return kind, ["wronskian", "--roots", _rats(roots), "--precision", "20"], {"roots": roots}
    if kind == "classify":
        dim = rng.choice([1, 2, 3, 5])
        chi = rng.randrange(12)
        if dim == 1:
            r = [Fraction(rng.randrange(12), 12)]
        elif dim == 5:
            nums, den = DIM5_TABLE[rng.randrange(5)]
            r = [Fraction(x, den) for x in nums]
        else:
            r = _angles(rng, dim)
            while dim == 2 and (r[1] - r[0]) in (Fraction(1, 6), Fraction(5, 6)):
                r = _angles(rng, dim)
        argv = ["classify", "--dim", str(dim), "--r", _rats(r), "--chi", str(chi)]
        if dim == 5:
            argv.append("--assert-t-determined")
        return kind, argv, {}
    # hp
    k0 = Fraction(rng.randrange(-24, 25), rng.randrange(1, 13))
    offsets = [rng.randrange(5) for _ in range(rng.randrange(1, 6))]
    weight = k0 + 2 * rng.randrange(11)
    argv = ["hp", "--k0=%s" % k0, "--offsets", ",".join(map(str, offsets)), "--weight=%s" % weight]
    return kind, argv, {"k0": k0, "offsets": offsets, "weight": weight}


def run_child(argv):
    """Run one child to completion; (exit code, stdout, stderr, peak RSS in KiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    # reap with wait4 so the child's own peak RSS is known
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], usage.ru_maxrss


class Cli:
    name = "cli"

    def __init__(self, seed):
        self.seed = seed
        self.peak_rss_kib = 0
        self._backend = None

    def setup(self):
        # also compiles the bytecode, which a shell user has from earlier runs
        rc, out, err, _ = run_child([
            sys.executable, "-c",
            "import vvmf, vvmf.cli; print(getattr(vvmf, 'BACKEND', 'none'))",
        ])
        if rc != 0:
            raise RuntimeError("cannot import vvmf in a child: %s" % err.decode(errors="replace"))
        self._backend = out.decode().strip()

    def backend(self):
        return self._backend

    def make_input(self, i):
        return cli_input(self.seed, i)

    def run(self, inp, tracer=None):
        _, argv, _ = inp
        if tracer is None:
            rc, out, err, rss = run_child([sys.executable, "-m", "vvmf.cli"] + argv)
        else:
            rc, out, err, rss = run_child([sys.executable, CHILD] + argv)
            err, _, payload = err.partition(SPANS_MARK.encode())
            if payload:
                tracer.merge_child(json.loads(payload))
            tracer.counts["cli.stdout_bytes"] += len(out)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return rc, out, err

    def digest(self, out):
        return sha(out[1])

    def check(self, inp, out):
        kind, _, facts = inp
        rc, stdout, stderr = out
        if rc != 0:
            return ["exit code %d: %s" % (rc, stderr.decode(errors="replace").strip()[-300:])]
        text = stdout.decode()
        if facts.get("format") == "text":
            bad = [line.strip() for line in text.splitlines() if line.endswith(": False")]
            return ["false in report: %s" % b for b in bad]
        return oracle.check_cli_document(kind, json.loads(text), facts)


WORKLOADS = {w.name: w for w in (Solve, Wronskian, Cli)}


def definitions_hash() -> str:
    """Hash of the files that define inputs, ops, digests and checks."""
    h = hashlib.sha256()
    for name in ("workloads.py", "oracle.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]
