"""Sample-quality metrics: kernel two-sample distance and a correlation
nearest-neighbor probe.

Each (n, n) matrix is filled in place in one buffer.  `_pairwise_sq_dists`
writes a @ b.T into it and turns it into squared distances in place, one
block of `_BLOCK` rows at a time for the outer sum of squared norms, with
the same float operations per entry as max(aa + bb - 2 (a @ b.T), 0).
`mmd2` fills its three kernels in turn in one flat buffer of max(m, n)^2
floats, each in a contiguous view of the buffer's front, so k.sum() adds in
the order it would on a fresh array.  `median_pairwise_distance` keeps the
full (n, n) matrix, because BLAS does not promise a row the same bits when
it is computed in a smaller block, and selects its median in place in it:
a @ a.T is exactly symmetric (numpy computes it with syrk, and
aa_i + aa_j commutes), so each pair's distance is there twice.

The nearest-neighbor probe is a bulk call, `pearson_nns`, over a block of
queries: it centres, norms and transposes the corpus once, and each query
keeps its own corpus product, clip and argmin, so its answer is the one it
gets alone.  `pearson_nn` is its one-query call.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64  # rows per outer-sum temporary in _pairwise_sq_dists


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """(len(a), len(b)) squared distances, written into `out` when given."""
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d2 = np.matmul(a, b.T, out=out)
    d2 *= 2.0
    for i in range(0, len(aa), _BLOCK):
        rows = d2[i:i + _BLOCK]
        np.subtract(np.add.outer(aa[i:i + _BLOCK], bb), rows, out=rows)
    return np.maximum(d2, 0.0, out=d2)


def median_pairwise_distance(xs) -> float:
    """Median distance over distinct pairs; the default kernel bandwidth."""
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 2:
        raise ValueError("need at least two points")
    n = a.shape[0]
    pairs = n * (n - 1) // 2
    # with its diagonal at +inf the flat matrix holds each pair i < j twice
    # (d2 is exactly symmetric) and then the n infinities, so np.median's
    # middle ranks (pairs - 1) // 2 and pairs // 2 of the pairs are ranks
    # pairs - 1 and, when pairs is even, pairs of the flat matrix.  One
    # partition places the first; the second is the least value above it
    # (numpy partitions at two ranks about ten times slower than at one).
    # A NaN sorts above every number, and sqrt keeps the order, so only the
    # middle values need it.
    d2 = _pairwise_sq_dists(a, a)
    np.fill_diagonal(d2, np.inf)
    flat = d2.ravel()
    flat.partition(pairs - 1)
    upper = flat[pairs - 1:]
    if np.isnan(upper.max()):
        return float("nan")
    middle = upper[:1] if pairs % 2 else np.array([upper[0], upper[1:].min()])
    med = float(np.mean(np.sqrt(middle)))
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero; pass a bandwidth explicitly")
    return med


def mmd2(xs, ys, bandwidth: float) -> float:
    """Unbiased squared maximum mean discrepancy, Gaussian kernel
    exp(-||a-b||^2 / (2 bandwidth^2)).

    Within-set sums run over distinct pairs.  For equal sample sizes the
    cross term also excludes matched indices (so identical sets give exactly
    zero); otherwise all cross pairs are used.  Sets too small to form
    distinct pairs contribute 0 by convention.
    """
    a = np.asarray(xs, dtype=np.float64)
    b = np.asarray(ys, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] < 1 or b.shape[0] < 1:
        raise ValueError("xs and ys must be nonempty (n, dim) arrays")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    m, n = a.shape[0], b.shape[0]
    if m < 2 or n < 2:
        return 0.0
    scale = -0.5 / (bandwidth * bandwidth)
    flat = np.empty(max(m, n) ** 2)

    def kernel(p, q):
        k = _pairwise_sq_dists(p, q, out=flat[:len(p) * len(q)].reshape(len(p), len(q)))
        k *= scale
        return np.exp(k, out=k)

    def off_diagonal_mean(p, q):
        k = kernel(p, q)
        return (k.sum() - np.trace(k)) / (p.shape[0] * (p.shape[0] - 1))

    sxx = off_diagonal_mean(a, a)
    syy = off_diagonal_mean(b, b)
    sxy = off_diagonal_mean(a, b) if m == n else kernel(a, b).mean()
    return float(sxx + syy - 2.0 * sxy)


def pearson_nns(queries, corpus):
    """(indices, distances) of each query's corpus row with smallest
    1 - corr(query, row), for a (k, dim) block of queries.

    Distances live in [0, 2]; ties resolve to the lowest index, and a row
    bitwise-equal to its query is distance exactly 0.  A constant query has
    no correlation and raises; a constant corpus row is never nearest, and a
    corpus of only such rows raises.  The corpus is centred, normed and
    transposed once for all the queries.
    """
    Q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(corpus, dtype=np.float64)
    if Q.ndim != 2 or c.ndim != 2 or c.shape[0] < 1 or c.shape[1] != Q.shape[1]:
        raise ValueError("queries must be (k, dim), corpus (n, dim) nonempty")
    cc = c - c.mean(axis=1, keepdims=True)
    cn = np.sqrt(np.sum(cc * cc, axis=1))
    flat = np.flatnonzero(cn == 0.0)
    cn[flat] = np.inf  # a constant row's product over it is 0, not 0 / 0
    cT = c.T.copy()
    idx = np.empty(len(Q), dtype=np.int64)
    dist = np.empty(len(Q))
    for i, q in enumerate(Q):
        qc = q - q.mean()
        qn = float(np.sqrt(np.sum(qc * qc)))
        if qn == 0.0:
            raise ValueError(f"query {i} has zero variance")
        if flat.size == len(cn):
            raise ValueError("every corpus row has zero variance")
        exact = np.logical_and.reduce(cT == q[:, None], axis=0).nonzero()[0]
        if exact.size:
            idx[i], dist[i] = exact[0], 0.0
            continue
        d = 1.0 - np.clip((cc @ qc) / (cn * qn), -1.0, 1.0)
        d[flat] = np.inf
        idx[i] = j = d.argmin()
        dist[i] = d[j]
    return idx, dist


def pearson_nn(query, corpus):
    """(index, distance) of one (dim,) query's nearest corpus row: the
    one-query call of `pearson_nns`, which probes a block of queries."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError("query must be (dim,), corpus (n, dim) nonempty")
    idx, dist = pearson_nns(q[None, :], corpus)
    return int(idx[0]), float(dist[0])
