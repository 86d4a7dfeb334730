"""Integer convolution kernel: the innermost loop of series multiplication.

``convolve(a, b, n_out)`` returns the truncated Cauchy product of two integer
lists by the schoolbook double loop, skipping zero entries.

Weighted product.  ``_weighted(a, b, c, r, n_out)`` returns the truncated
sum of a[i]*b[j]*(c + r*(j - i)) over i + j = t: for series f_a, f_b on the
exponents p_a/q_a and p_b/q_b it is f_a*theta(f_b) - f_b*theta(f_a) with
c = p_b*q_a - p_a*q_b and r = q_a*q_b, the 2 x 2 minor of the Wronskian's
theta rows, at one big product per pair where the difference of two
convolves takes two.  It also multiplies the larger minors: on the minors
of two overlapping runs of consecutive columns, at their exponent sums, it
gives the minor of their union times the minor of their overlap
(Desnanot-Jacobi), so every big product of the Wronskian runs here.  The
weight is a small integer, so multiplying by it is linear in the bits.

E_2 product.  ``_e2_times(g, n_out)`` returns the truncated product of E_2
and g.  With Euler's pentagonal series P = prod_{j>=1} (1 - q^j),
E_2 = 1 + 24 theta(P)/P, so with h = g/P, an integer list as P starts with
1, E_2 g = g + 24 theta(P) h = (1 + 24 theta) g - 24 P theta(h).  P has
nonzero terms, each +-1, only at the O(sqrt(n)) generalized pentagonal
numbers, so one pass per output step over them gives h and P theta(h):
O(n^(3/2)) big additions, where the dense product takes n^2/2 big products.
"""


def convolve(a, b, n_out):
    """Truncated Cauchy product of two integer coefficient lists.

    Returns the list c of length n_out with c[n] = sum a[i]*b[n-i].
    """
    out = [0] * n_out
    nb = len(b)
    for i, ai in enumerate(a):
        if i >= n_out:
            break
        if not ai:
            continue
        jmax = min(nb, n_out - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _weighted(a, b, c, r, n_out):
    """The list w of length n_out with w[t] = sum a[i]*b[j]*(c + r*(j - i))
    over i + j = t: one big product per pair, skipping zero entries as
    convolve does."""
    out = [0] * n_out
    nb = len(b)
    for i, ai in enumerate(a):
        if i >= n_out:
            break
        if not ai:
            continue
        w = c - r * i
        jmax = min(nb, n_out - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj * (w + r * j)
    return out


def _pentagonal(n: int) -> list:
    """The nonzero terms (m, sign) of prod_{j>=1} (1 - q^j) through q^n, m >= 1:
    by Euler's pentagonal theorem, sign (-1)^i at m = i(3i -+ 1)/2."""
    out, i = [], 1
    while i * (3 * i - 1) // 2 <= n:
        out += [(m, (-1) ** i) for m in (i * (3 * i - 1) // 2, i * (3 * i + 1) // 2) if m <= n]
        i += 1
    return out


def _e2_times(g, n_out):
    """convolve(E_2, g, n_out), through Euler's pentagonal series."""
    terms = _pentagonal(n_out - 1)
    ng = len(g)
    h, th, out = [], [], []
    for t in range(n_out):
        gt = g[t] if t < ng else 0
        # h_t = g_t - sum P_m h_(t-m), and u = sum P_m theta(h)_(t-m)
        acc, u = gt, 0
        for m, sign in terms:
            if m > t:
                break
            if sign > 0:
                acc -= h[t - m]
                u += th[t - m]
            else:
                acc += h[t - m]
                u -= th[t - m]
        h.append(acc)
        th.append(t * acc)
        out.append((1 + 24 * t) * gt - 24 * (th[t] + u))
    return out

