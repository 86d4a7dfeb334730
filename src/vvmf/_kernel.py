"""Integer convolution kernel: the innermost loop of series multiplication.

``convolve(a, b, n_out)`` returns the truncated Cauchy product of two integer
lists, the same list the schoolbook loop ``_schoolbook`` gives.  A series
keeps its numerators over one scale for the whole window, and the
denominators of Frobenius coefficients and of the Wronskian minors built from
them grow with the index, so the low half of a numerator list shares a factor
of about half the scale's bits.

Exactness.  Let n be the output length that can be nonzero and h = ceil(n/2).
No pair i, j >= h has i + j < n, so the truncated product of a = a_lo + a_hi
and b = b_lo + b_hi (blocks below and from h) is a_lo*b_lo + a_lo*b_hi +
a_hi*b_lo.  With g_a, g_b the gcds of the low blocks, a_lo = g_a*a_lo' and
b_lo = g_b*b_lo'; the three block products run on the smaller a_lo', b_lo'
and their n outputs are multiplied back by g_a*g_b, g_a and g_b.  Every step
is an integer identity, so the result is unchanged.

When.  The split runs when min(len(a), len(b), n_out) times the bit length of
the smaller leading entry is at least ``_SPLIT_SIZE``.  Below that the gcds
and the multiply-back cost more than the smaller products save.

Weighted product.  ``_weighted(a, b, c, r, n_out)`` returns the truncated
sum of a[i]*b[j]*(c + r*(j - i)) over i + j = t: for series f_a, f_b on the
exponents p_a/q_a and p_b/q_b it is f_a*theta(f_b) - f_b*theta(f_a) with
c = p_b*q_a - p_a*q_b and r = q_a*q_b, the 2 x 2 minor of the Wronskian's
theta rows, at one big product per pair where the difference of two
convolves takes two.  It also multiplies the larger minors: on the minors
of two overlapping runs of consecutive columns, at their exponent sums, it
gives the minor of their union times the minor of their overlap
(Desnanot-Jacobi), so every big product of the Wronskian runs here.  The
weight is a small integer, so multiplying by it is linear in the bits.  The
split carries over unchanged: a block that starts at index h sees the
weight of its absolute indices, c + r*h in the low x high block and
c - r*h in the high x low one, and the gcds factor out of every term.  So
the weighted product is exact on any input too.

E_2 product.  ``_e2_times(g, n_out)`` returns the truncated product of E_2
and g.  With Euler's pentagonal series P = prod_{j>=1} (1 - q^j),
E_2 = 1 + 24 theta(P)/P, so with h = g/P, an integer list as P starts with
1, E_2 g = g + 24 theta(P) h = (1 + 24 theta) g - 24 P theta(h).  P has
nonzero terms, each +-1, only at the O(sqrt(n)) generalized pentagonal
numbers, so one pass per output step over them gives h and P theta(h):
O(n^(3/2)) big additions, where the dense product takes n^2/2 big products.
"""

from math import gcd

# Break-even of the split against the schoolbook loop on series operands,
# in length times leading bits.
_SPLIT_SIZE = 8192


def convolve(a, b, n_out):
    """Truncated Cauchy product of two integer coefficient lists.

    Returns the list c of length n_out with c[n] = sum a[i]*b[n-i].
    """
    if _splits(a, b, n_out):
        return _split(a, b, n_out)
    return _schoolbook(a, b, n_out)


def _weighted(a, b, c, r, n_out):
    """The list w of length n_out with w[t] = sum a[i]*b[j]*(c + r*(j - i))
    over i + j = t: one big product per pair, split as convolve is."""
    if _splits(a, b, n_out):
        return _split(a, b, n_out, (c, r))
    return _weighted_schoolbook(a, b, n_out, c, r)


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


def _splits(a, b, n_out):
    """Whether the product is wide enough for the split to pay."""
    length = min(len(a), len(b), n_out)
    return length > 0 and length * min(abs(a[0]), abs(b[0])).bit_length() >= _SPLIT_SIZE


def _split(a, b, n_out, weight=None):
    """convolve, or _weighted with weight = (c, r), on the low blocks divided
    by their gcds; exact on any input."""
    n = max(0, min(n_out, len(a) + len(b) - 1))
    h = (n + 1) // 2
    a_lo, b_lo = a[:h], b[:h]
    # the top of a low block holds its smallest common factor, so starting
    # there leaves one remainder per further entry
    ga, gb = gcd(*reversed(a_lo)), gcd(*reversed(b_lo))
    if ga > 1:
        a_lo = [x // ga for x in a_lo]
    if gb > 1:
        b_lo = [x // gb for x in b_lo]
    if weight is None:
        ll = _schoolbook(a_lo, b_lo, n)
        lh = _schoolbook(a_lo, b[h:n], n - h)
        hl = _schoolbook(a[h:n], b_lo, n - h)
    else:
        c, r = weight
        ll = _weighted_schoolbook(a_lo, b_lo, n, c, r)
        lh = _weighted_schoolbook(a_lo, b[h:n], n - h, c + r * h, r)
        hl = _weighted_schoolbook(a[h:n], b_lo, n - h, c - r * h, r)
    g = ga * gb
    out = [g * x for x in ll[:h]]
    out += [ga * (gb * x + y) + gb * z for x, y, z in zip(ll[h:], lh, hl)]
    return out + [0] * (n_out - n)


def _schoolbook(a, b, n_out):
    """The plain double loop of convolve, skipping zero entries."""
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


def _weighted_schoolbook(a, b, n_out, c, r):
    """The double loop of _weighted, skipping zero entries."""
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
