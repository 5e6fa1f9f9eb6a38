"""Coding-space sampling: random sum-to-one weights on local anchor patches.

A draw picks an anchor uniformly at random as the center, collects the
center's d nearest anchors (the center itself included), fills those slots
with Gaussian weights in ascending-distance order, and normalizes the
weights to sum 1.  Interpolation blends two codings linearly, which keeps
the sum-to-one property and never leaves the union of their supports.

Bulk draws come from `sample_codings` and paths from `interpolate`, both
as (n, m) weight arrays; `Coding` objects are only built for single draws
(`sample_coding`, `sample_coding_pair`).  Every draw goes through one
stream walker, `_walk`, which decodes a window of the stream from its
counters and steps only through the rejected attempts; a single draw is one
walk on its center's row, and a pair is two.  Each row's
sum is pinned to 1 by `core.pin_row_sums`.
"""

from __future__ import annotations

import numpy as np

from .. import LccgenError
from ..config import ConfigError, SamplerConfig
from ..rng import Rng, normal_u64s, u64_to_normals_at_every_offset, u64_to_uniforms
from .core import AnchorSet, Coding, check_codings, pin_row_sums

_MAX_REDRAWS = 64
_WINDOW = 1024  # draws walk_codings decodes at a time


class SamplingError(LccgenError):
    """Raised when Gaussian weights keep landing too close to sum zero."""


def knn(query, anchors: AnchorSet, k: int) -> np.ndarray:
    """Indices of the k anchors nearest the query point, ascending by
    distance, ties broken by lower index."""
    m = anchors.m
    if not 1 <= k <= m:
        raise ValueError(f"k={k} must be in [1, m={m}]")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != anchors.d_b:
        raise ValueError(f"query has dim {q.shape[0]}, anchors have d_b={anchors.d_b}")
    diff = anchors.anchors - q[:, None]
    d2 = np.sum(diff * diff, axis=0)
    order = np.argsort(d2, kind="stable")  # stable sort = lowest-index ties
    return order[:k]


def _check_d(d: int, m: int) -> None:
    if d > m:
        raise ConfigError(f"[sampler] d={d} exceeds the anchor count m={m}")


def neighbor_table(anchors: AnchorSet, d: int) -> np.ndarray:
    """Precomputed (m, d) kNN table, one row per center anchor: row j is
    knn(anchors.anchors[:, j], anchors, d).

    An anchor queried against its own set is at distance 0, so each center
    occupies the first slot of its row (barring exact duplicates, where the
    lower index wins)."""
    _check_d(d, anchors.m)
    return np.stack([knn(anchors.anchors[:, j], anchors, d) for j in range(anchors.m)])


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
            s = z.sum(axis=1)
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
    walker's one-run call, a window at a time."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = neighbor_table(anchors, config.d)
    w = np.zeros((n, anchors.m))
    for s in range(0, n, _WINDOW):
        _walk(table, config, rng, np.array([[min(_WINDOW, n - s), 0]]), w[s:s + _WINDOW])
    return w


def _draws_on_one_center(anchors: AnchorSet, config: SamplerConfig, rng: Rng, n: int):
    """n codings on the neighborhood of one center: the center by randint,
    its row by knn, then n walks on that one-row table, each started one
    u64 back, because a one-row table ignores the center u64 that the walker
    reads.  n = 1 reads the stream as a one-draw walk over neighbor_table."""
    _check_d(config.d, anchors.m)
    row = knn(anchors.anchors[:, rng.randint(anchors.m)], anchors, config.d)[None, :]
    w = np.zeros((n, anchors.m))
    for i in range(n):
        rng.counter -= 1
        _walk(row, config, rng, np.array([[1, 0]]), w[i:i + 1])
    return [Coding(x) for x in w]


def sample_coding(anchors: AnchorSet, config: SamplerConfig, rng: Rng) -> Coding:
    """One random coding supported on a local neighborhood of the anchors."""
    return _draws_on_one_center(anchors, config, rng, 1)[0]


def sample_coding_pair(anchors: AnchorSet, config: SamplerConfig, rng: Rng):
    """Two codings drawn on the same neighborhood, for interpolation."""
    return tuple(_draws_on_one_center(anchors, config, rng, 2))


def interpolate(a: Coding, b: Coding, steps: int) -> np.ndarray:
    """Linear path (1-t)*a + t*b at t = k/(steps-1), k = 0, ..., steps-1, as
    a (steps, m) weight array with one row per step.

    Endpoints reproduce a and b exactly; every intermediate coding sums to 1
    and is supported inside support(a) | support(b).
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if a.weights.shape != b.weights.shape:
        raise ValueError("codings must have the same length")
    t = (np.arange(steps) / (steps - 1))[:, None]
    return check_codings((1.0 - t) * a.weights + t * b.weights)
