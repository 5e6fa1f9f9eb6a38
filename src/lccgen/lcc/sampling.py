"""Coding-space sampling: random sum-to-one weights on local anchor patches.

A draw picks an anchor uniformly at random as the center, collects the
center's d nearest anchors (the center itself included), fills those slots
with Gaussian weights in ascending-distance order, and normalizes the
weights to sum 1.  Interpolation blends two codings linearly, which keeps
the sum-to-one property and never leaves the union of their supports.

Bulk draws come from `sample_codings` and paths from `interpolate`, both
as (n, m) weight arrays; `Coding` objects are only built for single draws
(`sample_coding`, `sample_coding_pair`).  Both kinds of draw consume the
random stream in the same order, so a batch of n draws equals n single
draws bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import LccgenError
from ..rng import Rng, u64_to_normals, u64_to_uniforms
from .core import AnchorSet, Coding, check_codings

_MAX_REDRAWS = 64


class SamplingError(LccgenError):
    """Raised when Gaussian weights keep landing too close to sum zero."""


@dataclass
class SamplerConfig:
    """d anchors per neighborhood; a draw whose Gaussian weights sum to less
    than min_abs_sum in absolute value is redrawn."""

    d: int
    min_abs_sum: float = 1e-2

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.min_abs_sum <= 0:
            raise ValueError("min_abs_sum must be positive")


def knn(query, anchors: AnchorSet, k: int) -> np.ndarray:
    """Indices of the k anchors nearest the query point, ascending by
    distance, ties broken by lower index."""
    m = anchors.m
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, m], got {k}")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != anchors.d_b:
        raise ValueError(f"query has dim {q.shape[0]}, anchors have d_b={anchors.d_b}")
    diff = anchors.anchors - q[:, None]
    d2 = np.sum(diff * diff, axis=0)
    order = np.argsort(d2, kind="stable")  # stable sort = lowest-index ties
    return order[:k]


def neighbor_table(anchors: AnchorSet, d: int) -> np.ndarray:
    """Precomputed (m, d) kNN table, one row per center anchor; row j equals
    knn(anchors.anchors[:, j], anchors, d).

    An anchor queried against its own set is at distance 0, so each center
    occupies the first slot of its row (barring exact duplicates, where the
    lower index wins)."""
    m = anchors.m
    if not 1 <= d <= m:
        raise ValueError(f"d={d} must be in [1, m={m}]")
    d2 = np.zeros((m, m))
    for row in anchors.anchors:  # same per-coordinate order as knn's sum
        diff = row[None, :] - row[:, None]
        d2 += diff * diff
    return np.argsort(d2, axis=1, kind="stable")[:, :d]


def _gave_up(config: SamplerConfig) -> SamplingError:
    return SamplingError(
        f"|sum(z)| stayed below {config.min_abs_sum} after {_MAX_REDRAWS} redraws"
    )


def _draw_on_neighborhood(neighbors, m, config: SamplerConfig, rng: Rng) -> Coding:
    for _ in range(_MAX_REDRAWS + 1):
        z = rng.normals(len(neighbors))
        s = float(z.sum())
        if abs(s) >= config.min_abs_sum:
            w = np.zeros(m)
            w[neighbors] = z / s
            # pin the sum to exactly 1 by absorbing rounding into the largest slot
            top = neighbors[int(np.argmax(np.abs(w[neighbors])))]
            w[top] -= w.sum() - 1.0
            return Coding(w)
    raise _gave_up(config)


def _place(w, neighbors, z, s):
    """Writes z / s onto each row's neighbors and pins the row sum to 1, as
    _draw_on_neighborhood does for one draw."""
    rows = np.arange(w.shape[0])
    zs = z / s[:, None]
    w[rows[:, None], neighbors] = zs
    top = neighbors[rows, np.argmax(np.abs(zs), axis=1)]
    w[rows, top] -= w.sum(axis=1) - 1.0


def sample_codings(table, m: int, n: int, config: SamplerConfig, rng: Rng) -> np.ndarray:
    """n random codings as an (n, m) weight array, one row per draw.

    Bit-identical to n sequential draws (center = rng.randint(m), then
    _draw_on_neighborhood on table[center]) and leaves rng at the same
    position: the stream is cut into per-draw blocks of one center u64 and
    2*ceil(d/2) normal u64s.  A draw whose |sum(z)| falls below
    min_abs_sum redraws from the next 2*ceil(d/2) u64s, and the batch
    resumes after them; only the shortfall this leaves is fetched, so every
    u64 fetched is consumed.
    """
    d = config.d
    if table.shape != (m, d):
        raise ValueError(f"table has shape {table.shape}, expected ({m}, {d})")
    if n < 0:
        raise ValueError("n must be >= 0")
    k = 2 * ((d + 1) // 2)  # u64s per attempt at the normals
    w = np.zeros((n, m))
    buf = rng.next_u64_array(n * (1 + k))
    pos = done = 0

    def ahead(count):  # the next `count` u64s, fetching any shortfall
        nonlocal buf, pos
        if buf.size - pos < count:
            buf = np.concatenate([buf[pos:], rng.next_u64_array(count - (buf.size - pos))])
            pos = 0
        return buf[pos:pos + count]

    while done < n:
        block = ahead((n - done) * (1 + k)).reshape(n - done, 1 + k)
        u = u64_to_uniforms(block[:, 0])
        neighbors = table[np.minimum((u * m).astype(np.int64), m - 1)]
        z = u64_to_normals(block[:, 1:], d)
        s = z.sum(axis=1)
        low = np.flatnonzero(np.abs(s) < config.min_abs_sum)
        good = int(low[0]) if low.size else n - done
        _place(w[done:done + good], neighbors[:good], z[:good], s[:good])
        done += good
        pos += good * (1 + k)
        if done == n:
            break
        # draw `done` was rejected: redraw on its neighborhood, one at a time
        nbr = neighbors[good:good + 1]
        pos += 1 + k
        for _ in range(_MAX_REDRAWS):
            z = u64_to_normals(ahead(k)[None, :], d)
            pos += k
            s = z.sum(axis=1)
            if abs(s[0]) >= config.min_abs_sum:
                _place(w[done:done + 1], nbr, z, s)
                done += 1
                break
        else:
            raise _gave_up(config)
    return check_codings(w)


def sample_coding(anchors: AnchorSet, config: SamplerConfig, rng: Rng) -> Coding:
    """One random coding supported on a local neighborhood of the anchors."""
    if config.d > anchors.m:
        raise ValueError(f"d={config.d} exceeds anchor count m={anchors.m}")
    center = rng.randint(anchors.m)
    neighbors = knn(anchors.anchors[:, center], anchors, config.d)
    return _draw_on_neighborhood(neighbors, anchors.m, config, rng)


def sample_coding_pair(anchors: AnchorSet, config: SamplerConfig, rng: Rng):
    """Two codings drawn on the same neighborhood, for interpolation."""
    if config.d > anchors.m:
        raise ValueError(f"d={config.d} exceeds anchor count m={anchors.m}")
    center = rng.randint(anchors.m)
    neighbors = knn(anchors.anchors[:, center], anchors, config.d)
    a = _draw_on_neighborhood(neighbors, anchors.m, config, rng)
    b = _draw_on_neighborhood(neighbors, anchors.m, config, rng)
    return a, b


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
