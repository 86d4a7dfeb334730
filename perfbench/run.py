"""vvmf benchmark: seeded solve, wronskian and cli workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

A run is a closed loop with one client: each op starts when the previous one
has finished and been checked.  Ops run until --seconds have passed.  Every
op's output is checked (see workloads.py and oracle.py) outside the timed
region; at the reference seed its digest must also match
reference_digests.json.  An op fails if it raises, exits non-zero, gives a
wrong answer or a digest mismatch.

--trace 0 reports the end-to-end metrics.  --trace 1 runs ops traced for half
of --seconds, replays the same ops untraced, requires every op's output to be
byte-identical in both, and reports the per-layer metrics of the traced half
(tracing.py) with the tracing overhead.  The spans are written to
perfbench/out/.  Human-readable lines go first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import tracing
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
REFERENCE = os.path.join(HERE, "reference_digests.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def tail(values):
    """(percentile, value) at the highest percentile with at least ten samples
    above it: the 11th largest value, at percentile 100 (n - 10) / n.  With
    ten samples or fewer, the maximum at percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference(seed, definitions):
    """Digests of ops 0, 1, ... per workload, or None for another seed."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    if seed != ref["seed"]:
        return None
    if ref["definitions"] != definitions:
        raise SystemExit(
            "reference_digests.json was made for other workload definitions; "
            "regenerate it with perfbench/make_reference.py"
        )
    return ref["digests"]


class Ledger:
    """Outcome of every op in one phase."""

    def __init__(self):
        self.latency = []
        self.digests = []
        self.failures = []  # (op index, problem)

    @property
    def ok_ops(self):
        return len(self.latency) - len({i for i, _ in self.failures})


def run_ops(w, reference, tracer, seconds=None, count=None):
    """Run ops 0, 1, ... for `seconds`, at least one (or exactly `count` ops)."""
    led = Ledger()
    deadline = perf_counter() + (seconds or 0.0)
    i = 0
    while (i < count) if count is not None else (i == 0 or perf_counter() < deadline):
        inp = w.make_input(i)
        out = err = None
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_op(i, t0)
        try:
            out = w.run(inp, tracer)
        except Exception as e:  # a failed op is recorded, the run goes on
            err = "raised %s: %s" % (type(e).__name__, e)
        finally:
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op(t1)
        led.latency.append(t1 - t0)
        if err is None:
            digest = w.digest(out)
            try:
                problems = w.check(inp, out)
            except (LookupError, TypeError, ValueError, AttributeError) as e:
                problems = ["malformed output: %r" % e]
            if reference is not None and i < len(reference) and reference[i] != digest:
                problems.append("digest %s, reference %s" % (digest, reference[i]))
        else:
            digest, problems = None, [err]
        led.digests.append(digest)
        led.failures.extend((i, p) for p in problems)
        i += 1
    return led


def timed_setup(w):
    t0 = perf_counter()
    w.setup()
    return perf_counter() - t0


def child_setup_seconds(workload, seed) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, cwd=ROOT, check=True, timeout=170,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


def environment(w, seed, definitions) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "backend": w.backend(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "workload_definitions": definitions,
    }


def peak_rss_mib(w) -> float:
    kib = w.peak_rss_kib if isinstance(w, workloads.Cli) else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def report(workload, env, failures, metrics, details, attempted):
    """Print the readable lines, then the result object as the last line."""
    for i, problem in failures[:20]:
        print("FAILED %s op %d: %s" % (workload, i, problem))
    failed = len({i for i, _ in failures})
    print("environment " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    print("%-52s %14s  %s" % ("metric", "value", "unit"))
    for name, m in metrics.items():
        print("%-52s %14.6g  %s" % (name, m["value"], m["unit"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def untraced_run(w, args, reference, definitions):
    setups = [timed_setup(w)]
    setups += [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    env = environment(w, args.seed, definitions)
    led = run_ops(w, reference, None, seconds=args.seconds)
    ok = led.ok_ops
    busy = sum(led.latency)
    pct, tail_s = tail(led.latency)
    values = {
        "ops_per_s": ok / busy,
        "op_p50_ms": 1e3 * statistics.median(led.latency),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(w),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    n = len(led.latency)
    details = {
        "workload": args.workload,
        "ops": n,
        "ops_per_s": {"completed_and_verified": ok, "busy_s": busy},
        "op_p50_ms": {"samples": n},
        "op_tail_ms": {"samples": n, "percentile": round(pct, 3)},
        "failed_ratio": {"value": (n - ok) / n, "failed": n - ok, "attempted": n},
        "setup_s": {"samples": len(setups), "runs_s": setups},
        "peak_rss_mib": {"samples": 1, "of": "largest child" if isinstance(w, workloads.Cli) else "benchmark process"},
        "reference_digests": reference is not None,
    }
    report(args.workload, env, led.failures, metrics, details, n)


def traced_run(w, args, reference, definitions):
    tracer = tracing.Tracer()
    if isinstance(w, workloads.InProcess):
        w.lib = workloads.import_library()
        tracer.install()  # before set-up, so set-up requests count as earlier requests
    w.setup()
    env = environment(w, args.seed, definitions)
    traced = run_ops(w, reference, tracer, seconds=args.seconds / 2.0)
    tracer.uninstall()
    n = len(traced.latency)
    plain = run_ops(w, reference, None, count=n)
    mismatched = [i for i in range(n) if traced.digests[i] != plain.digests[i]]
    layer = tracing.layer_metrics(tracer, n)
    t_busy, p_busy = sum(traced.latency), sum(plain.latency)
    layer["trace.ops_per_s"] = traced.ok_ops / t_busy
    layer["trace.untraced_ops_per_s"] = plain.ok_ops / p_busy
    layer["trace.overhead_ratio"] = t_busy / p_busy
    layer["trace.output_mismatches"] = len(mismatched)
    units = tracing.metric_units()
    metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
    tracer.write(spans_path)
    failures = traced.failures + plain.failures
    failures += [(i, "traced output differs from the untraced one") for i in mismatched]
    details = {
        "workload": args.workload,
        "traced_ops": n,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "mismatched_ops": mismatched[:20],
        "reference_digests": reference is not None,
    }
    report(args.workload, env, failures, metrics, details, n)


def run_all(args) -> int:
    """Each workload in its own process, then one summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, cwd=ROOT,
        )
        lines = proc.stdout.decode().splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr.decode())
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vvmf benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "vvmf", "__init__.py")):
        sys.stderr.write("no vvmf sources under %s\n" % workloads.SRC)
        return 2
    sys.path.insert(0, workloads.SRC)
    if args.workload == "all":
        return run_all(args)
    w = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(w)}))
        return 0
    definitions = workloads.definitions_hash()
    reference = load_reference(args.seed, definitions)
    ref = None if reference is None else reference[args.workload]
    if args.trace:
        traced_run(w, args, ref, definitions)
    else:
        untraced_run(w, args, ref, definitions)
    return 0


if __name__ == "__main__":
    sys.exit(main())
