"""Independent checks of cli output; vvmf is not used to check itself.

- eta^e and delta = eta^24: Euler's pentagonal series for prod (1 - q^n),
  raised to the power e by the J.C.P. Miller recurrence (Knuth, TAOCP
  vol. 2, section 4.7): with f_0 = 1 and g = f^e,
  g_n = (1/n) sum_{k=1..n} ((e + 1) k - n) f_k g_{n-k}.
- E_k: 1 - (2k / B_k) sum sigma_{k-1}(n) q^n, with sigma from a divisor sieve
  and B_k from the Akiyama-Tanigawa algorithm.
- hp and classify: the dimension counted directly as solutions of
  4a + 6b = k - k0 - 2o.
- Wronskians of the normalized Frobenius basis: the cofactor constant is
  the Vandermonde product of the sorted roots, since row i of the matrix
  starts with a monic degree-i polynomial in the root; and the cofactor of
  E_4 F is that constant times E_4^d, because W(hF) = h^d W(F).
- every other report: each boolean is true, except the appendix field
  ``constant_residual_is_zero``, which is true exactly when c = 0.
"""

from __future__ import annotations

from fractions import Fraction


def pentagonal(n: int) -> list:
    """Coefficients of prod_{m>=1} (1 - q^m) through q^n."""
    f = [0] * (n + 1)
    k = 0
    while True:
        hit = False
        for j in ((k * (3 * k - 1)) // 2, (k * (3 * k + 1)) // 2) if k else (0,):
            if j <= n:
                f[j] = -1 if k % 2 else 1
                hit = True
        if not hit:
            return f
        k += 1


def eta_product_power(e: Fraction, n: int) -> list:
    """Coefficients of prod (1 - q^m)^e through q^n (Miller recurrence)."""
    f = pentagonal(n)
    support = [k for k in range(1, n + 1) if f[k]]
    g = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in support:
            if k > m:
                break
            acc += ((e + 1) * k - m) * f[k] * g[m - k]
        g.append(acc / m)
    return g


def bernoulli(m: int) -> Fraction:
    """B_m by the Akiyama-Tanigawa algorithm (B_1 = +1/2)."""
    a = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        a[j] = Fraction(1, j + 1)
        for i in range(j, 0, -1):
            a[i - 1] = i * (a[i - 1] - a[i])
    return a[0]


def eisenstein_coeffs(k: int, n: int) -> list:
    """Coefficients of E_k through q^n."""
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        p = d ** (k - 1)
        for m in range(d, n + 1, d):
            sigma[m] += p
    factor = Fraction(-2 * k) / bernoulli(k)
    return [Fraction(1)] + [factor * sigma[m] for m in range(1, n + 1)]


def series_power(coeffs, d: int) -> list:
    """Coefficients of (sum c_n q^n)^d, truncated to len(coeffs) terms."""
    out = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    for _ in range(d):
        out = [sum(out[i] * coeffs[n - i] for i in range(n + 1)) for n in range(len(coeffs))]
    return out


def vandermonde(roots) -> Fraction:
    """prod_{i<j} (r_j - r_i) over the sorted roots."""
    rs = sorted(roots)
    out = Fraction(1)
    for i, a in enumerate(rs):
        for b in rs[i + 1:]:
            out *= b - a
    return out


def hp_dim(k0: Fraction, offsets, weight: Fraction) -> int:
    diff = weight - k0
    if diff < 0 or diff.denominator != 1:
        return 0
    total = 0
    for o in offsets:
        rest = int(diff) - 2 * o
        total += sum(1 for b in range(rest // 6 + 1) if rest >= 0 and (rest - 6 * b) % 4 == 0)
    return total


def _series_problems(rec, beta, coeffs):
    want = {"base_exponent": str(beta), "coeffs": [str(c) for c in coeffs], "precision": len(coeffs) - 1}
    if rec == want:
        return []
    bad = [i for i, (x, y) in enumerate(zip(rec.get("coeffs", []), want["coeffs"])) if x != y]
    return ["expansion disagrees with the oracle (first bad index %s)" % (bad[:1] or "shape")]


def _false_fields(doc, path=""):
    if isinstance(doc, bool):
        return [] if doc else [path]
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _false_fields(v, "%s.%s" % (path, k))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _false_fields(v, "%s[%d]" % (path, i))]
    return []


def check_cli_document(kind, doc, facts) -> list:
    """Problems found in one parsed JSON report (empty when it is right)."""
    if kind in ("delta", "eta"):
        e, n = facts["exponent"], facts["precision"]
        return _series_problems(doc["expansion"], e / 24, eta_product_power(e, n))
    if kind == "eisenstein":
        return _series_problems(doc["expansion"], 0, eisenstein_coeffs(facts["k"], facts["precision"]))
    if kind == "hp":
        want = hp_dim(facts["k0"], facts["offsets"], facts["weight"])
        return [] if doc["dim"] == want else ["hp dimension %r, oracle %d" % (doc["dim"], want)]
    if kind == "appendix":
        problems = []
        for case in doc["cases"]:
            if case.pop("constant_residual_is_zero") != (case["c"] == "0"):
                problems.append("constant residual vanishes for c = %s" % case["c"])
        return problems + ["false: " + p for p in _false_fields(doc)]
    if kind == "solve":
        roots = sorted(facts["roots"])
        system = doc["system"]
        problems = []
        if system["exponents"] != [str(r - r.__floor__()) for r in roots]:
            problems.append("recorded exponents are not the root cosets")
        if [c["base_exponent"] for c in system["components"]] != [str(r) for r in roots]:
            problems.append("leading exponents are not the sorted roots")
        if any(c["coeffs"][0] != "1" for c in system["components"]):
            problems.append("components are not normalized")
        return problems
    if kind == "wronskian":
        problems = []
        if doc["exponent_sum"] != str(sum(facts["roots"], Fraction(0))):
            problems.append("exponent sum is not the root sum")
        if doc["g_weight"] != "0" or any(c != "0" for c in doc["g"]["coeffs"][1:]):
            problems.append("cofactor is not a constant of weight 0")
        if doc["gamma"] != str(vandermonde(facts["roots"])):
            problems.append("cofactor constant is not the Vandermonde product")
        return problems
    if kind == "classify":
        k0 = Fraction(doc["k0"])
        return ["dimension at weight %s disagrees with the count" % w
                for w, d in doc["dims"].items() if d != hp_dim(k0, doc["offsets"], Fraction(w))]
    return ["false: " + p for p in _false_fields(doc)]
