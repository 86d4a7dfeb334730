"""Integer convolution kernel: the innermost loop of series multiplication."""


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
