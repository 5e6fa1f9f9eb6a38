"""Metric tests with hand-loop oracles for the kernel statistic and the
correlation nearest-neighbor probe, a one-expression oracle for the in-place
kernel code, and its memory bound."""

import math
import tracemalloc

import numpy as np
import pytest

from lccgen.datasets import make_ring, make_swiss_roll
from lccgen.metrics import (_pairwise_sq_dists, median_pairwise_distance, mmd2, pearson_nn,
                            pearson_nns)
from lccgen.rng import Rng


def mmd2_loop(a, b, bw):
    # scalar-loop re-evaluation of the estimator, kept free of matrix ops
    m, n = len(a), len(b)
    if m < 2 or n < 2:
        return 0.0

    def k(u, v):
        return math.exp(-sum((ui - vi) ** 2 for ui, vi in zip(u, v)) / (2.0 * bw * bw))

    sxx = sum(k(a[i], a[j]) for i in range(m) for j in range(m) if i != j) / (m * (m - 1))
    syy = sum(k(b[i], b[j]) for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    if m == n:
        sxy = sum(k(a[i], b[j]) for i in range(m) for j in range(n) if i != j) / (m * (m - 1))
    else:
        sxy = sum(k(a[i], b[j]) for i in range(m) for j in range(n)) / (m * n)
    return sxx + syy - 2.0 * sxy


def test_mmd2_identical_sets_vanish():
    xs = np.asarray(Rng(1).normals(10 * 2)).reshape(10, 2)
    assert abs(mmd2(xs, xs.copy(), 1.3)) <= 1e-12


def test_mmd2_degenerate_singletons_are_zero_by_convention():
    assert mmd2(np.zeros((1, 2)), np.zeros((1, 2)), 1.0) == 0.0
    # singletons admit no distinct pairs, so the unbiased value is 0 even
    # for different points
    assert mmd2(np.array([[0.0]]), np.array([[1.0]]), 1.0) == 0.0


def test_mmd2_matches_hand_loop_equal_sizes():
    rng = Rng(2)
    xs = np.asarray(rng.normals(4 * 3)).reshape(4, 3)
    ys = np.asarray(rng.normals(4 * 3)).reshape(4, 3)
    want = mmd2_loop(xs.tolist(), ys.tolist(), 0.9)
    assert mmd2(xs, ys, 0.9) == pytest.approx(want, abs=1e-12)


def test_mmd2_matches_hand_loop_unequal_sizes():
    rng = Rng(3)
    xs = np.asarray(rng.normals(3 * 2)).reshape(3, 2)
    ys = np.asarray(rng.normals(5 * 2)).reshape(5, 2)
    want = mmd2_loop(xs.tolist(), ys.tolist(), 1.1)
    assert mmd2(xs, ys, 1.1) == pytest.approx(want, abs=1e-12)


def test_mmd2_symmetric_and_permutation_invariant():
    rng = Rng(4)
    xs = np.asarray(rng.normals(6 * 2)).reshape(6, 2)
    ys = np.asarray(rng.normals(6 * 2)).reshape(6, 2)
    v = mmd2(xs, ys, 1.0)
    assert mmd2(ys, xs, 1.0) == pytest.approx(v, abs=1e-14)
    # equal sizes pair sample i with sample i, so invariance is under joint
    # permutation; unequal sizes use all cross pairs and allow either set
    # to be shuffled alone
    perm = np.argsort(Rng(5).uniforms(6), kind="stable")
    assert mmd2(xs[perm], ys[perm], 1.0) == pytest.approx(v, abs=1e-12)
    perm5 = np.argsort(Rng(6).uniforms(5), kind="stable")
    v2 = mmd2(xs[:5], ys, 1.0)
    assert mmd2(xs[:5][perm5], ys, 1.0) == pytest.approx(v2, abs=1e-12)
    assert mmd2(xs[:5], ys[perm], 1.0) == pytest.approx(v2, abs=1e-12)


def test_mmd2_separated_sets_score_positive():
    rng = Rng(6)
    xs = np.asarray(rng.normals(20 * 2)).reshape(20, 2)
    ys = np.asarray(rng.normals(20 * 2)).reshape(20, 2) + 5.0
    assert mmd2(xs, ys, 1.0) > 0.5


def test_mmd2_input_validation():
    xs = np.zeros((3, 2))
    with pytest.raises(ValueError):
        mmd2(xs, np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        mmd2(xs, xs, 0.0)
    with pytest.raises(ValueError):
        mmd2(np.zeros((0, 2)), xs, 1.0)


def test_pearson_nn_finds_exact_match_at_distance_zero():
    rng = Rng(7)
    corpus = np.asarray(rng.normals(6 * 4)).reshape(6, 4)
    idx, dist = pearson_nn(corpus[3], corpus)
    assert idx == 3
    assert dist == 0.0


def test_pearson_nn_anticorrelated_is_distance_two():
    q = np.array([1.0, -2.0, 0.5])
    idx, dist = pearson_nn(q, -q[None, :])
    assert idx == 0
    assert dist == pytest.approx(2.0, abs=1e-12)


def test_pearson_nn_matches_brute_force_scan():
    rng = Rng(3)
    corpus = np.asarray(rng.normals(5 * 6)).reshape(5, 6)
    query = np.asarray(rng.normals(6))

    def hand_dist(u, v):
        mu, mv = sum(u) / len(u), sum(v) / len(v)
        du = [x - mu for x in u]
        dv = [x - mv for x in v]
        num = sum(a * b for a, b in zip(du, dv))
        den = math.sqrt(sum(a * a for a in du)) * math.sqrt(sum(b * b for b in dv))
        return 1.0 - num / den

    dists = [hand_dist(query.tolist(), row.tolist()) for row in corpus]
    want_idx = min(range(5), key=lambda i: dists[i])
    idx, dist = pearson_nn(query, corpus)
    assert idx == want_idx
    assert dist == pytest.approx(dists[want_idx], abs=1e-12)


def test_pearson_nn_distances_stay_in_range():
    rng = Rng(8)
    corpus = np.asarray(rng.normals(20 * 5)).reshape(20, 5)
    for _ in range(20):
        q = np.asarray(rng.normals(5))
        _, dist = pearson_nn(q, corpus)
        assert 0.0 <= dist <= 2.0


def test_pearson_nn_scale_tie_resolves_to_lowest_index():
    v = np.array([0.0, 1.0, 3.0])
    corpus = np.stack([v, 2.0 * v, np.array([5.0, -1.0, 0.0])])
    idx, _ = pearson_nn(np.array([0.5, 1.5, 2.5]), corpus)
    assert idx == 0


def test_pearson_nn_zero_variance_raises():
    # through the one-query call and the bulk call
    corpus = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    good = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^every corpus row has zero variance$"):
        pearson_nn(good, corpus[:1])
    with pytest.raises(ValueError, match="^every corpus row has zero variance$"):
        pearson_nns(np.stack([good, good]), np.stack([corpus[0], -corpus[0]]))
    # a constant query is refused before a constant corpus
    with pytest.raises(ValueError, match="^query 0 has zero variance$"):
        pearson_nn(np.ones(3), corpus[:1])
    with pytest.raises(ValueError, match="^query 1 has zero variance$"):
        pearson_nns(np.stack([good, np.full(3, 2.0)]), corpus)
    # no query, nothing to refuse
    idx, dist = pearson_nns(np.zeros((0, 3)), corpus[:1])
    assert idx.shape == dist.shape == (0,)


def pearson_nn_per_query(query, corpus):
    # the probe as it was before the bulk call: every query centres and
    # norms the whole corpus itself
    q = np.asarray(query, dtype=np.float64)
    c = np.asarray(corpus, dtype=np.float64)
    qc = q - q.mean()
    qn = float(np.sqrt(np.sum(qc * qc)))
    cc = c - c.mean(axis=1, keepdims=True)
    cn = np.sqrt(np.sum(cc * cc, axis=1))
    exact = np.flatnonzero(np.all(c == q, axis=1))
    if exact.size:
        return int(exact[0]), 0.0
    corr = np.clip((cc @ qc) / (cn * qn), -1.0, 1.0)
    dist = 1.0 - corr
    idx = int(np.argmin(dist))
    return idx, float(dist[idx])


def _bits(pairs):
    return [(int(i), np.float64(d).tobytes()) for i, d in pairs]


def _probe_cases():
    g = np.random.default_rng(11)
    ring = make_ring(500, 1.0, 0.01, 3)
    roll = make_swiss_roll(400, 0.05, 4)
    gauss = g.standard_normal((300, 64))
    v = np.array([0.0, 1.0, 3.0])
    return {
        # in 2-D every correlation is +-1, so one ulp decides whether a
        # distance is positive: over five rows a few queries' best is an
        # ulp short of 1, over 500 none is
        "ring": (make_ring(100, 1.0, 0.01, 5), make_ring(5, 1.0, 0.01, 3)),
        "ring-500": (make_ring(100, 1.0, 0.01, 5), ring),
        "swiss-roll": (make_swiss_roll(100, 0.05, 6), roll),
        "gauss-64": (g.standard_normal((40, 64)), gauss),
        "exact-row": (np.stack([ring[17], ring[17] + 0.5, ring[400]]), ring),
        # copies of a row scaled by powers of two tie at exactly the same
        # distance: the lowest index wins
        "scaled-ties": (np.stack([3.0 * v + 1.0, -0.5 * v, v + 7.0]),
                        np.stack([np.array([5.0, -1.0, 0.0]), 2.0 * v, 4.0 * v, -2.0 * v,
                                  -4.0 * v])),
    }


@pytest.mark.parametrize("case", list(_probe_cases()))
def test_bulk_probe_matches_the_per_query_probe_bit_for_bit(case):
    queries, corpus = _probe_cases()[case]
    want = _bits(pearson_nn_per_query(q, corpus) for q in queries)
    idx, dist = pearson_nns(queries, corpus)
    assert _bits(zip(idx, dist)) == want
    assert _bits(pearson_nn(q, corpus) for q in queries) == want
    if case == "ring":  # the ring's distances are zero or a few ulps
        assert 0 < np.count_nonzero(dist > 0.0) < len(dist)
        assert dist.max() < 1e-12
    if case == "scaled-ties":
        assert idx.tolist() == [1, 3, 1]


@pytest.mark.parametrize("case", list(_probe_cases()))
def test_constant_corpus_rows_are_never_nearest(case):
    # constant rows put among the corpus leave every answer on the others
    # unchanged, bit for bit; the corpus is read, never copied or written
    queries, corpus = _probe_cases()[case]
    want = _bits(pearson_nn_per_query(q, corpus) for q in queries)
    flat = np.stack([np.zeros(corpus.shape[1]), np.full(corpus.shape[1], -1.0)])
    padded = np.concatenate([flat[:1], corpus[:2], flat[1:], corpus[2:]])
    padded.flags.writeable = False
    idx, dist = pearson_nns(queries, padded)
    unpad = np.concatenate([[-1, 0, 1, -1], np.arange(2, len(corpus))])[idx]
    assert unpad.min() >= 0
    assert _bits(zip(unpad, dist)) == want


def test_median_pairwise_distance_hand_case():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    # pair distances 3, 4, 5 -> median 4
    assert median_pairwise_distance(pts) == 4.0
    with pytest.raises(ValueError):
        median_pairwise_distance(pts[:1])
    with pytest.raises(ValueError):
        median_pairwise_distance(np.zeros((3, 2)))


# the kernel code as one expression per matrix, each on a fresh array: the
# in-place code must give the same bits


def oracle_sq_dists(a, b):
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d2 = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def oracle_median_pairwise(a):
    d2 = oracle_sq_dists(a, a)
    iu = np.triu_indices(a.shape[0], k=1)
    return float(np.median(np.sqrt(d2[iu])))


def oracle_mmd2(a, b, bandwidth):
    scale = -0.5 / (bandwidth * bandwidth)

    def kernel(p, q):
        return np.exp(scale * oracle_sq_dists(p, q))

    def off_diagonal_mean(p, q):
        k = kernel(p, q)
        return (k.sum() - np.trace(k)) / (p.shape[0] * (p.shape[0] - 1))

    sxy = off_diagonal_mean(a, b) if len(a) == len(b) else kernel(a, b).mean()
    return float(off_diagonal_mean(a, a) + off_diagonal_mean(b, b) - 2.0 * sxy)


# 63, 64 and 65 straddle the 64-row block; 2, 3 and 63 points give odd pair
# counts, 64, 65 and 1000 even ones
@pytest.mark.parametrize("dim", [1, 2, 784])
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 1000])
def test_kernel_code_matches_one_expression_oracle_bit_for_bit(n, dim):
    rng = Rng(1000 * n + dim)
    a = np.asarray(rng.normals(n * dim)).reshape(n, dim)
    b = np.asarray(rng.normals(n * dim)).reshape(n, dim) + 0.5
    c = np.asarray(rng.normals((n + 1) * dim)).reshape(n + 1, dim)
    assert np.array_equal(_pairwise_sq_dists(a, a), oracle_sq_dists(a, a))
    assert np.array_equal(_pairwise_sq_dists(a, c), oracle_sq_dists(a, c))
    out = np.full((n + 1, n), np.nan)
    assert _pairwise_sq_dists(c, a, out=out) is out
    assert np.array_equal(out, oracle_sq_dists(c, a))
    bandwidth = oracle_median_pairwise(a)
    assert median_pairwise_distance(a) == bandwidth
    assert mmd2(a, b, bandwidth) == oracle_mmd2(a, b, bandwidth)
    assert mmd2(a, c, bandwidth) == oracle_mmd2(a, c, bandwidth)
    assert mmd2(c, a, bandwidth) == oracle_mmd2(c, a, bandwidth)


def test_median_pairwise_distance_nan_and_all_equal():
    pts = np.asarray(Rng(9).normals(7 * 2)).reshape(7, 2)
    pts[4, 1] = np.nan
    assert math.isnan(oracle_median_pairwise(pts))
    assert math.isnan(median_pairwise_distance(pts))
    with pytest.raises(ValueError, match="zero"):
        median_pairwise_distance(np.full((5, 3), 2.5))


def _median_inputs():
    rng = Rng(11)
    for n in (2, 3, 4, 5, 6, 7):  # pair counts 1, 3, 15 and 21 are odd; 6 and 10 even
        yield np.asarray(rng.normals(n * 3)).reshape(n, 3)
    # ties: a grid's pairs repeat a few distances many times
    yield np.array([[i, j] for i in range(4) for j in range(5)], dtype=np.float64)
    # 276 pairs on a 9 x 9 grid, where the partition leaves some value other
    # than the least one above the lower middle rank right after it
    yield np.floor(np.asarray(Rng(27).uniforms(2 * 24)) * 9).reshape(24, 2)
    yield np.array([[0.0], [1.0], [1.0], [2.0], [2.0]])
    pts = np.asarray(rng.normals(6 * 2)).reshape(6, 2)
    yield np.asfortranarray(pts)  # a layout BLAS multiplies transposed
    for row in (0, 5):
        nan = pts.copy()
        nan[row, 1] = np.nan
        yield nan
    yield np.array([[0.0, np.nan], [1.0, 2.0]])


def test_median_pairwise_distance_in_place_matches_oracle_bit_for_bit():
    # the median is selected in the full matrix with its diagonal at +inf;
    # it must give np.median's bits over the strict upper triangle
    for a in _median_inputs():
        got, want = median_pairwise_distance(a), oracle_median_pairwise(a)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), a
    # and with no copy of the pairs: one (n, n) matrix and its row norms
    a = np.asarray(Rng(12).normals(1000 * 2)).reshape(1000, 2)
    assert _peak_in_nn_arrays(lambda: median_pairwise_distance(a), 1000) <= 1.1


def _peak_in_nn_arrays(fn, n):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (n * n * 8)


def test_kernel_matrices_share_one_buffer():
    # numpy reports its data buffers to tracemalloc; the oracle, which holds
    # two (n, n) arrays at once, shows that it does
    n = 1000
    rng = Rng(10)
    a = np.asarray(rng.normals(n * 2)).reshape(n, 2)
    b = np.asarray(rng.normals(n * 2)).reshape(n, 2)
    assert _peak_in_nn_arrays(lambda: oracle_mmd2(a, b, 1.0), n) >= 1.9
    assert _peak_in_nn_arrays(lambda: mmd2(a, b, 1.0), n) <= 1.25
    assert _peak_in_nn_arrays(lambda: median_pairwise_distance(a), n) <= 1.75
