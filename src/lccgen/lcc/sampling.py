"""Coding-space sampling: random sum-to-one weights on local anchor patches.

A draw picks an anchor uniformly at random as the center, collects the
center's d nearest anchors (the center itself included), fills those slots
with Gaussian weights in ascending-distance order, and normalizes the
weights to sum 1.  Interpolation blends two codings linearly, which keeps
the sum-to-one property and never leaves the union of their supports.

Draws, pairs and paths are (n, m) weight arrays; a `Coding` object is only
built for a single draw (`sample_coding`).  Every draw takes its center's row
of one nearest-anchor table, `neighbor_table`, through one stream walker,
`_walk`, which decodes a window of the stream from its counters and steps
only through the rejected attempts; a pair is two walks on one row.  Each
row's sum is pinned to 1 by `core.pin_row_sums`.
"""

from __future__ import annotations

import numpy as np

from .. import LccgenError
from ..config import ConfigError, SamplerConfig
from ..rng import Rng, normal_u64s, u64_to_normals_at_every_offset, u64_to_uniforms
from .core import AnchorSet, Coding, check_codings, pin_row_sums, row_sums, sq_dists

_MAX_REDRAWS = 64
_WINDOW = 1024  # draws walk_codings decodes at a time


class SamplingError(LccgenError):
    """Raised when Gaussian weights keep landing too close to sum zero."""


def _nearest(points, anchors: AnchorSet, k: int) -> np.ndarray:
    """(n, k) indices of the k anchors nearest each row of the (n, d_b)
    points, ascending by distance, ties broken by lower index."""
    if not 1 <= k <= anchors.m:
        raise ValueError(f"k={k} must be in [1, m={anchors.m}]")
    if points.shape[1] != anchors.d_b:
        raise ValueError(f"query has dim {points.shape[1]}, anchors have d_b={anchors.d_b}")
    return np.argsort(sq_dists(points, anchors.anchors), axis=1, kind="stable")[:, :k]


def knn(query, anchors: AnchorSet, k: int) -> np.ndarray:
    """Indices of the k anchors nearest the query point, ascending by
    distance, ties broken by lower index."""
    return _nearest(np.asarray(query, dtype=np.float64).reshape(1, -1), anchors, k)[0]


def neighbor_table(anchors: AnchorSet, d: int) -> np.ndarray:
    """Precomputed (m, d) kNN table, one row per center anchor: row j is
    knn(anchors.anchors[:, j], anchors, d).

    An anchor queried against its own set is at distance 0, so each center
    occupies the first slot of its row (barring exact duplicates, where the
    lower index wins)."""
    if d > anchors.m:
        raise ConfigError(f"[sampler] d={d} exceeds the anchor count m={anchors.m}")
    return _nearest(anchors.anchors.T, anchors, d)


def _walk(table, config: SamplerConfig, rng: Rng, runs, w):
    """Writes the codings of the (codings, uniforms) count rows `runs`, each
    with at least one coding, into the zero (n, anchors) array w, each on
    the table row its center u64 picks, and returns the uniforms, flat.
    Decodes the window's counters once, with slack, and the Gaussian sum of
    the attempt that would start at every offset; a rejected attempt shifts
    every later read by one attempt, so one step per rejected attempt places
    every read.  Decodes more when rejections use up the slack."""
    m, d = table.shape
    per = normal_u64s(d)  # u64s per attempt
    ends = np.cumsum(runs, axis=0)
    n, reads = ends[-1].tolist()
    before = ends[:, 1] - runs[:, 1]  # uniforms read before each run
    # offsets if nothing is rejected
    center0 = np.arange(n) * (1 + per) + np.repeat(before, runs[:, 0])
    need = n * (1 + per) + reads
    start, size, slack = rng.counter, 0, per * (n // 16 + 8)
    rejects = np.zeros(n, dtype=np.int64)
    j = shift = 0  # shift: u64s that the rejected attempts so far took
    while True:
        if need + shift > size:
            size, slack = need + shift + slack, 4 * slack
            bits = rng.u64_at(np.arange(start + 1, start + size + 1, dtype=np.uint64))
            z = u64_to_normals_at_every_offset(bits, d)
            s = row_sums(z)
            low = np.abs(s) < config.min_abs_sum
        hit = low[center0[j:] + shift + 1]
        k = int(np.argmax(hit))
        if not hit[k]:
            break
        j += k
        rejects[j] += 1
        if rejects[j] > _MAX_REDRAWS:
            raise SamplingError(f"|sum(z)| stayed below {config.min_abs_sum} "
                                f"after {_MAX_REDRAWS} redraws")
        shift += per
    rng.counter = start + need + shift
    centers = center0 + per * (np.cumsum(rejects) - rejects)
    accepted = centers + 1 + per * rejects
    u = u64_to_uniforms(bits[centers])
    neighbors = table[np.minimum((u * m).astype(np.int64), m - 1)]
    w[np.arange(n)[:, None], neighbors] = z[accepted] / s[accepted, None]
    check_codings(pin_row_sums(w))
    # each run's uniforms follow the accepted attempt of its last draw
    last = accepted[ends[:, 0] - 1] + per
    return u64_to_uniforms(bits[np.repeat(last - before, runs[:, 1]) + np.arange(reads)])


def walk_codings(anchors: AnchorSet, config: SamplerConfig, rng: Rng, runs):
    """Yields (codings, uniforms) per (c, k) in `runs`, c >= 1: the (c, m)
    weights of c draws over the m anchors, then the next k uniforms.
    Bit-identical to reading in turn (per draw, center = rng.randint(m),
    then rng.normals(d) until |sum| >= min_abs_sum, placed on the center's
    row of neighbor_table(anchors, d); then rng.uniforms(k)), and leaves
    rng at the same position.  Runs are walked at most _WINDOW draws (or
    one run) at a time, so SamplingError may come a window early."""
    table = neighbor_table(anchors, config.d)
    runs = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    step = max(1, _WINDOW // int(runs[:, 0].max(initial=1)))  # runs per window
    for first in range(0, len(runs), step):
        window = runs[first:first + step]
        w = np.zeros((int(window[:, 0].sum()), anchors.m))
        u = _walk(table, config, rng, window, w)
        a = b = 0
        for c, k in np.cumsum(window, axis=0).tolist():  # each run's ends in w and u
            yield w[a:c], u[b:k]
            a, b = c, k


def sample_codings(anchors: AnchorSet, n: int, config: SamplerConfig, rng: Rng) -> np.ndarray:
    """n random codings over the m anchors, as an (n, m) weight array: the
    walker's codings over runs of at most _WINDOW draws, stacked."""
    if n < 0:
        raise ValueError("n must be >= 0")
    w = np.empty((n, anchors.m))  # first, so that an n beyond memory fails at once
    walk = walk_codings(anchors, config, rng,
                        [(min(_WINDOW, n - s), 0) for s in range(0, n, _WINDOW)])
    for s in range(0, n, _WINDOW):
        w[s:s + _WINDOW] = next(walk)[0]
    return w


def sample_coding(anchors: AnchorSet, config: SamplerConfig, rng: Rng) -> Coding:
    """One random coding supported on a local neighborhood of the anchors."""
    return Coding(sample_codings(anchors, 1, config, rng)[0])


def sample_coding_pair(anchors: AnchorSet, config: SamplerConfig, rng: Rng) -> np.ndarray:
    """A (2, m) array of two codings on one neighborhood, for interpolation:
    a center by randint, then one walk per coding on its one-row table, each
    started one u64 back, since a one-row table ignores the center u64."""
    row = neighbor_table(anchors, config.d)[rng.randint(anchors.m)][None, :]
    w = np.zeros((2, anchors.m))
    for i in range(2):
        rng.counter -= 1
        _walk(row, config, rng, np.array([[1, 0]]), w[i:i + 1])
    return w


def interpolate(pair, steps: int) -> np.ndarray:
    """Linear path (1-t)*a + t*b between the rows a, b of the (2, m) `pair`
    at t = k/(steps-1), k = 0, ..., steps-1, as a (steps, m) weight array.

    Endpoints reproduce a and b exactly; every intermediate coding sums to 1
    and is supported inside support(a) | support(b).
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    pair = np.asarray(pair, dtype=np.float64)
    if pair.ndim != 2 or pair.shape[0] != 2:
        raise ValueError(f"pair must be a (2, m) array of codings, got shape {pair.shape}")
    t = (np.arange(steps) / (steps - 1))[:, None]
    return check_codings((1.0 - t) * pair[0] + t * pair[1])
