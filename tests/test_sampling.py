"""Sampler tests: kNN ordering, coding draws, and interpolation paths."""

import numpy as np
import pytest

from lccgen.lcc.core import AnchorSet
from lccgen.lcc.sampling import (
    _MAX_REDRAWS,
    _WINDOW,
    SamplerConfig,
    SamplingError,
    interpolate,
    knn,
    neighbor_table,
    sample_coding,
    sample_coding_pair,
    sample_codings,
    walk_codings,
)
from lccgen.rng import Rng

# columns are the four unit-square corners, index = binary (x, y)
SQUARE = AnchorSet(np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]))


def test_knn_self_query_is_first():
    rng = Rng(2)
    V = np.asarray(rng.normals(3 * 8)).reshape(3, 8)
    anchors = AnchorSet(V)
    idx = knn(V[:, 3], anchors, 4)
    assert idx[0] == 3


def test_knn_tie_broken_by_lowest_index():
    anchors = AnchorSet(np.array([[-1.0, 1.0], [0.0, 0.0]]))
    idx = knn(np.array([0.0, 0.0]), anchors, 1)
    assert list(idx) == [0]


def test_knn_matches_sort_oracle():
    rng = Rng(11)
    V = np.asarray(rng.normals(2 * 16)).reshape(2, 16)
    anchors = AnchorSet(V)
    query = np.asarray(rng.normals(2))
    got = knn(query, anchors, 4)
    dist = np.sqrt(np.sum((V - query[:, None]) ** 2, axis=0))
    want = np.argsort(dist, kind="stable")[:4]
    assert list(got) == list(want)
    assert np.all(np.diff(dist[got]) >= 0)


def test_knn_rejects_bad_k_and_dim():
    with pytest.raises(ValueError):
        knn(np.zeros(2), SQUARE, 5)
    with pytest.raises(ValueError):
        knn(np.zeros(2), SQUARE, 0)
    with pytest.raises(ValueError):
        knn(np.zeros(3), SQUARE, 2)


def test_neighbor_table_centers_lead_their_rows():
    rng = Rng(4)
    V = np.asarray(rng.normals(2 * 10)).reshape(2, 10)
    anchors = AnchorSet(V)
    table = neighbor_table(anchors, 3)
    assert table.shape == (10, 3)
    assert list(table[:, 0]) == list(range(10))
    for j in range(10):
        assert list(table[j]) == list(knn(V[:, j], anchors, 3))


def _nearest_reference(V, j):
    """Anchor j's neighbors in full, written out apart from the sampler:
    squared differences added one coordinate at a time, then a stable
    argsort.  For m >= 2 the sums are knn's former np.sum over the
    coordinate axis, float for float."""
    d2 = np.zeros(V.shape[1])
    for v in V:
        diff = v - v[j]
        d2 += diff * diff
    if V.shape[1] >= 2:
        diff = V - V[:, j:j + 1]
        assert d2.tobytes() == np.sum(diff * diff, axis=0).tobytes()
    return np.argsort(d2, kind="stable")


@pytest.mark.parametrize("d_b", [1, 2, 3, 8, 9, 32])
@pytest.mark.parametrize("m", [1, 4, 16, 257])
def test_neighbor_table_is_the_per_query_rule(d_b, m):
    V = np.asarray(Rng(1000 * d_b + m).normals(d_b * m)).reshape(d_b, m)
    anchors = AnchorSet(V)
    table = neighbor_table(anchors, m)
    for j in range(m):
        assert table[j].tobytes() == _nearest_reference(V, j).tobytes()
    assert neighbor_table(anchors, min(m, 3)).tobytes() == table[:, :min(m, 3)].tobytes()


@pytest.mark.parametrize("anchors", [
    AnchorSet(np.array([[0.0, 1.0, 0.0, 1.0, 0.0], [2.0, 0.5, 2.0, 0.5, 2.0]])),
    SQUARE,
], ids=["duplicates", "square"])
def test_neighbor_table_breaks_ties_by_lower_index(anchors):
    table = neighbor_table(anchors, anchors.m)
    for j in range(anchors.m):
        assert table[j].tobytes() == _nearest_reference(anchors.anchors, j).tobytes()
        assert list(knn(anchors.anchors[:, j], anchors, anchors.m)) == list(table[j])
    if anchors is SQUARE:  # each corner, its two edge neighbours by index, the far corner
        assert table.tolist() == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 0, 3, 1], [3, 1, 2, 0]]
    else:  # a duplicate sorts after its lower-index twin, even as the center
        assert table[2].tolist()[:3] == [0, 2, 4] and table[3].tolist()[:2] == [1, 3]


def test_sample_d1_is_one_hot():
    cfg = SamplerConfig(d=1)
    for seed in range(20):
        c = sample_coding(SQUARE, cfg, Rng(seed))
        nz = np.nonzero(c.weights)[0]
        assert len(nz) == 1
        assert c.weights[nz[0]] == 1.0


def test_sample_invariants_hold_across_draws():
    rng = Rng(19)
    V = np.asarray(rng.normals(2 * 16)).reshape(2, 16)
    anchors = AnchorSet(V)
    cfg = SamplerConfig(d=4)
    table = neighbor_table(anchors, 4)
    rows = [set(int(i) for i in row) for row in table]
    draw_rng = Rng(20)
    for _ in range(500):
        c = sample_coding(anchors, cfg, draw_rng)
        w = c.weights
        assert abs(w.sum() - 1.0) <= 1e-12
        support = set(int(i) for i in np.nonzero(w)[0])
        assert len(support) <= 4
        assert any(support <= row for row in rows)


def test_sample_unit_square_support_is_center_plus_nearest():
    # seed 3 is the smallest seed whose first draw picks corner 0
    cfg = SamplerConfig(d=2)
    assert Rng(3).randint(4) == 0
    c = sample_coding(SQUARE, cfg, Rng(3))
    assert set(np.nonzero(c.weights)[0]) == {0, 1}

    for seed in range(50):
        center = Rng(seed).randint(4)
        c = sample_coding(SQUARE, cfg, Rng(seed))
        support = set(int(i) for i in np.nonzero(c.weights)[0])
        assert support == set(int(i) for i in knn(SQUARE.anchors[:, center], SQUARE, 2))


def test_sample_is_bit_deterministic():
    cfg = SamplerConfig(d=3)
    rng = Rng(77)
    V = np.asarray(rng.normals(2 * 8)).reshape(2, 8)
    anchors = AnchorSet(V)
    a = sample_coding(anchors, cfg, Rng(5))
    b = sample_coding(anchors, cfg, Rng(5))
    assert np.array_equal(a.weights, b.weights)


def test_sample_d_larger_than_m_errors():
    with pytest.raises(ValueError):
        sample_coding(SQUARE, SamplerConfig(d=5), Rng(0))


def test_sample_gives_up_after_bounded_redraws():
    # an impossible guard value forces every redraw to fail
    cfg = SamplerConfig(d=2, min_abs_sum=1e9)
    with pytest.raises(SamplingError):
        sample_coding(SQUARE, cfg, Rng(0))


def test_pair_shares_one_neighborhood():
    rng = Rng(31)
    V = np.asarray(rng.normals(2 * 12)).reshape(2, 12)
    anchors = AnchorSet(V)
    cfg = SamplerConfig(d=3)
    table = neighbor_table(anchors, 3)
    rows = [set(int(i) for i in row) for row in table]
    draw_rng = Rng(8)
    for _ in range(50):
        pair = sample_coding_pair(anchors, cfg, draw_rng)
        assert pair.shape == (2, 12)
        sup = set(np.flatnonzero(pair.any(axis=0)))
        assert any(sup <= row for row in rows)


def test_interpolate_endpoints_exact():
    pair = np.array([[0.25, 0.75, 0.0], [0.0, -0.5, 1.5]])
    path = interpolate(pair, 5)
    assert len(path) == 5
    assert np.array_equal(path[0], pair[0])
    assert np.array_equal(path[-1], pair[1])


def test_interpolate_midpoint():
    path = interpolate(np.eye(2), 3)
    assert np.allclose(path[1], [0.5, 0.5], atol=1e-15)
    assert path[1].sum() == 1.0


def test_interpolate_sum_and_support_closure():
    rng = Rng(13)
    V = np.asarray(rng.normals(2 * 10)).reshape(2, 10)
    anchors = AnchorSet(V)
    cfg = SamplerConfig(d=4)
    pair = sample_coding_pair(anchors, cfg, Rng(21))
    union = set(np.flatnonzero(pair.any(axis=0)))
    for w in interpolate(pair, 9):
        assert abs(w.sum() - 1.0) <= 1e-12
        assert set(np.nonzero(w)[0]) <= union


def test_interpolate_is_the_per_step_formula():
    # one broadcast over the steps, bit for bit the scalar formula at each t
    a, b = sample_coding_pair(SQUARE, SamplerConfig(d=3), Rng(4))
    for steps in (2, 3, 10, 37):
        path = interpolate(np.stack([a, b]), steps)
        assert path.shape == (steps, 4)
        for k in range(steps):
            t = k / (steps - 1)
            assert path[k].tobytes() == ((1.0 - t) * a + t * b).tobytes()


def test_interpolate_rejects_bad_args():
    pair = np.eye(2)
    with pytest.raises(ValueError, match="steps must be >= 2"):
        interpolate(pair, 1)
    # anything but two codings of one length is refused
    for bad in (pair[0], np.eye(3), np.ones((2, 2, 1)), [np.array([1.0, 0.0])]):
        with pytest.raises(ValueError, match=r"pair must be a \(2, m\) array"):
            interpolate(bad, 3)
    with pytest.raises(ValueError, match="must sum to 1"):
        interpolate(np.array([[1.0, 0.0], [0.5, 0.0]]), 3)


def _draw_on(neighbors, m, cfg, rng, tries=None):
    """Reference written out apart from the sampler: one (m,) draw on a fixed
    neighborhood, normals until |sum| clears the guard, then z / sum with
    the rounding pinned into the largest slot.  Appends the attempt count to
    `tries` when given."""
    for attempt in range(1, _MAX_REDRAWS + 2):
        z = rng.normals(len(neighbors))
        s = float(z.sum())
        if abs(s) >= cfg.min_abs_sum:
            break
    else:
        raise SamplingError("reference gave up")
    if tries is not None:
        tries.append(attempt)
    w = np.zeros(m)
    w[neighbors] = z / s
    top = neighbors[int(np.argmax(np.abs(w[neighbors])))]
    w[top] -= w.sum() - 1.0
    return w


def _per_draw(table, n, cfg, rng, tries=None):
    """n sequential reference draws, each a center, then `_draw_on` on its
    table row."""
    m = len(table)
    return np.stack([_draw_on(table[rng.randint(m)], m, cfg, rng, tries) for _ in range(n)])


def _pair_reference(table, cfg, rng, tries=None):
    """A center, then two `_draw_on` draws on its table row."""
    neighbors = table[rng.randint(len(table))]
    return [_draw_on(neighbors, len(table), cfg, rng, tries) for _ in range(2)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("min_abs_sum", [1e-2, 0.5, 1.0])
def test_single_draws_match_the_per_draw_reference(d, min_abs_sum):
    V = np.asarray(Rng(60 + d).normals(2 * 12)).reshape(2, 12)
    anchors = AnchorSet(V)
    table = neighbor_table(anchors, d)
    cfg = SamplerConfig(d=d, min_abs_sum=min_abs_sum)
    ref_rng, rng = Rng(50 + d, 5), Rng(50 + d, 5)
    tries = []
    for _ in range(40):
        want = _per_draw(table, 1, cfg, ref_rng, tries)[0]
        assert sample_coding(anchors, cfg, rng).weights.tobytes() == want.tobytes()
        assert rng.counter == ref_rng.counter
        want = _pair_reference(table, cfg, ref_rng, tries)
        got = sample_coding_pair(anchors, cfg, rng)
        assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
        assert rng.counter == ref_rng.counter
    if min_abs_sum >= 0.5:  # the guard forced redraws in both kinds of draw
        assert max(tries[0::3]) > 1 and max(tries[1::3] + tries[2::3]) > 1


@pytest.mark.parametrize("gives_up", [0, 1])
def test_pair_gives_up_like_the_reference(gives_up):
    # |z| >= 2.5 holds for about one normal in eighty, so a draw often runs
    # out of redraws; the seed's pair gives up at the given draw
    table = neighbor_table(SQUARE, 1)
    cfg = SamplerConfig(d=1, min_abs_sum=2.5)

    def gave_up_at(seed):
        tries = []
        try:
            _pair_reference(table, cfg, Rng(seed), tries)
        except SamplingError:
            return len(tries)
        return None

    seed = next(s for s in range(10_000) if gave_up_at(s) == gives_up)
    with pytest.raises(SamplingError):
        sample_coding_pair(SQUARE, cfg, Rng(seed))
    if gives_up == 0:  # a single draw reads what the pair's first draw reads
        with pytest.raises(SamplingError):
            sample_coding(SQUARE, cfg, Rng(seed))


class _CountingRng(Rng):
    """Rng that records the counters each decode asks for."""

    def __init__(self, seed):
        super().__init__(seed)
        self.decodes = []

    def u64_at(self, counters):
        self.decodes.append(np.asarray(counters))
        return super().u64_at(counters)


def test_sample_codings_matches_per_draw_loop():
    redrawn = 0
    for m in (4, 16, 33):
        V = np.asarray(Rng(m).normals(3 * m)).reshape(3, m)
        anchors = AnchorSet(V)
        for d in range(1, 10):
            if d > m:
                continue
            table = neighbor_table(anchors, d)
            for min_abs_sum in (1e-2, 0.3, 1.0):
                cfg = SamplerConfig(d=d, min_abs_sum=min_abs_sum)
                ref_rng, rng = Rng(100 + d, 3), Rng(100 + d, 3)
                want = _per_draw(table, 64, cfg, ref_rng)
                got = sample_codings(anchors, 64, cfg, rng)
                assert got.tobytes() == want.tobytes()
                assert rng.counter == ref_rng.counter
                redrawn += rng.counter - 3 > 64 * (1 + 2 * ((d + 1) // 2))
    # the high guards must have forced redraws inside a batch
    assert redrawn >= 10


def test_sample_codings_matches_per_draw_loop_after_refills():
    # d=1 with guard 1.0 rejects |z| < 1, about two draws in three
    anchors = AnchorSet(np.asarray(Rng(5).normals(2 * 16)).reshape(2, 16))
    table = neighbor_table(anchors, 1)
    cfg = SamplerConfig(d=1, min_abs_sum=1.0)
    rng = _CountingRng(9)
    got = sample_codings(anchors, 50, cfg, rng)
    ref_rng = Rng(9)
    want = _per_draw(table, 50, cfg, ref_rng)
    assert got.tobytes() == want.tobytes()
    assert rng.counter == ref_rng.counter
    # the first decode covers the 50 draws with no rejection; rejections use
    # up its slack, so the walker decodes more of the same window, from the
    # same first counter, up to the last counter it consumed
    assert len(rng.decodes[0]) >= 50 * 3
    assert len(rng.decodes) > 1
    for counters in rng.decodes:
        assert list(counters[:1]) == [1] and np.all(np.diff(counters) == 1)
    assert len(rng.decodes[-1]) >= rng.counter


def test_sample_codings_decodes_about_what_it_consumes():
    # each window decodes its draws once plus a little slack, so the decoded
    # u64s stay within a small factor of the consumed ones
    V = np.asarray(Rng(3).normals(2 * 16)).reshape(2, 16)
    cfg = SamplerConfig()
    rng = _CountingRng(11)
    sample_codings(AnchorSet(V), 100_000, cfg, rng)
    assert sum(len(c) for c in rng.decodes) <= 3 * rng.counter


def _seed_where(table, n, cfg, wanted):
    """The first seed whose reference run satisfies wanted(tries, gave_up),
    tries holding the attempt count of each draw the reference completed."""
    for seed in range(10_000):
        tries = []
        try:
            _per_draw(table, n, cfg, Rng(seed), tries)
            gave_up = False
        except SamplingError:
            gave_up = True
        if wanted(tries, gave_up):
            return seed
    raise AssertionError("no seed found")


@pytest.mark.parametrize("rejected", [0, 5])
def test_sample_codings_rewinds_at_the_batch_edges(rejected):
    # a guard of 0.5 on the sum of two normals rejects about one attempt in
    # four; the seed's only draw needing a redraw is the batch's first or last
    table = neighbor_table(SQUARE, 2)
    cfg = SamplerConfig(d=2, min_abs_sum=0.5)
    seed = _seed_where(table, 6, cfg, lambda tries, gave_up: not gave_up and all(
        (t > 1) == (i == rejected) for i, t in enumerate(tries)))
    ref_rng, rng = Rng(seed), Rng(seed)
    want = _per_draw(table, 6, cfg, ref_rng)
    got = sample_codings(SQUARE, 6, cfg, rng)
    assert got.tobytes() == want.tobytes()
    assert rng.counter == ref_rng.counter


def test_sample_codings_gives_up_after_accepted_draws():
    # |z| >= 2.5 holds for about one normal in eighty, so a draw often runs
    # out of redraws; the seed's first draw is accepted at its first attempt
    table = neighbor_table(SQUARE, 1)
    cfg = SamplerConfig(d=1, min_abs_sum=2.5)
    seed = _seed_where(table, 3, cfg, lambda tries, gave_up: gave_up and tries[:1] == [1])
    with pytest.raises(SamplingError):
        sample_codings(SQUARE, 3, cfg, Rng(seed))


@pytest.mark.parametrize("attempts", [_MAX_REDRAWS + 1, _MAX_REDRAWS + 2])
def test_sample_codings_stops_after_the_last_allowed_redraw(attempts):
    # |z| >= 2.5 holds for about one normal in eighty; the seed's first draw
    # first clears the guard at the given attempt, the last one allowed or
    # the one after it
    table = neighbor_table(SQUARE, 1)
    cfg = SamplerConfig(d=1, min_abs_sum=2.5)

    def first_clearing_attempt(seed):
        rng = Rng(seed)
        rng.randint(4)
        return next((k for k in range(1, attempts + 1) if abs(rng.normals(1)[0]) >= 2.5), None)

    seed = next(s for s in range(100_000) if first_clearing_attempt(s) == attempts)
    if attempts == _MAX_REDRAWS + 1:
        want = _per_draw(table, 1, cfg, Rng(seed))
        assert sample_codings(SQUARE, 1, cfg, Rng(seed)).tobytes() == want.tobytes()
    else:
        with pytest.raises(SamplingError):
            sample_codings(SQUARE, 1, cfg, Rng(seed))


def test_sample_codings_gives_up_like_the_per_draw_path():
    table = neighbor_table(SQUARE, 2)
    cfg = SamplerConfig(d=2, min_abs_sum=1e9)
    with pytest.raises(SamplingError):
        _per_draw(table, 3, cfg, Rng(0))
    with pytest.raises(SamplingError):
        sample_codings(SQUARE, 3, cfg, Rng(0))


def _gan_stream_reference(table, batch, iters, cfg, rng):
    """What train_gan reads per iteration, drawn in turn: D's codings, the
    data-index uniforms, then G's codings."""
    out = []
    for _ in range(iters):
        out.append(_per_draw(table, batch, cfg, rng).tobytes())
        out.append(rng.uniforms(batch).tobytes())
        out.append(_per_draw(table, batch, cfg, rng).tobytes())
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("min_abs_sum", [1e-2, 0.5, 1.0])
@pytest.mark.parametrize("batch,iters", [(48, 13), (5, 3), (_WINDOW + 77, 2)])
def test_walk_codings_matches_the_sequential_gan_stream(d, min_abs_sum, batch, iters):
    # windows end mid-iteration and the last one is partial; with d = 1 and
    # a guard of 1.0, about two attempts in three are rejected, which
    # overruns any fixed slack
    assert (2 * batch * iters) % _WINDOW != 0
    anchors = AnchorSet(np.asarray(Rng(d).normals(2 * 16)).reshape(2, 16))
    cfg = SamplerConfig(d=d, min_abs_sum=min_abs_sum)
    ref_rng, rng = Rng(40 + d, 7), Rng(40 + d, 7)
    want = _gan_stream_reference(neighbor_table(anchors, d), batch, iters, cfg, ref_rng)
    got = []
    for codings, uniforms in walk_codings(anchors, cfg, rng, [(batch, batch), (batch, 0)] * iters):
        got.append(codings.tobytes())
        if uniforms.size:
            got.append(uniforms.tobytes())
    assert got == want
    assert rng.counter == ref_rng.counter
