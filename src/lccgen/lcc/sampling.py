"""Coding-space sampling: random sum-to-one weights on local anchor patches.

A draw picks an anchor uniformly at random as the center, collects the
center's d nearest anchors (the center itself included), fills those slots
with Gaussian weights in ascending-distance order, and normalizes the
weights to sum 1.  Interpolation blends two codings linearly, which keeps
the sum-to-one property and never leaves the union of their supports.

Bulk draws come from `sample_codings` and paths from `interpolate`, both
as (n, m) weight arrays; `Coding` objects are only built for single draws
(`sample_coding`, `sample_coding_pair`).  A batch rewinds the stream at a
rejected draw and redraws it with the single-draw routine, so n batch
draws equal n single draws bit for bit.  Either way each row's sum is
pinned to 1 by `core.pin_row_sums`.
"""

from __future__ import annotations

import numpy as np

from .. import LccgenError
from ..config import ConfigError, SamplerConfig
from ..rng import Rng, normal_u64s, u64_to_normals, u64_to_uniforms
from .core import AnchorSet, Coding, check_codings, pin_row_sums

_MAX_REDRAWS = 64
_BLOCK = 256  # draws sample_codings decodes at a time


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


def _place(w, neighbors, z, s):
    """Writes z / s onto each row's neighbors and pins each row's sum to 1."""
    w[np.arange(w.shape[0])[:, None], neighbors] = z / s[:, None]
    pin_row_sums(w)


def _draw_on_neighborhood(neighbors, m, config: SamplerConfig, rng: Rng) -> np.ndarray:
    """One (m,) coding on the neighborhood, its normals redrawn while
    |sum(z)| < min_abs_sum, at most _MAX_REDRAWS times."""
    for _ in range(_MAX_REDRAWS + 1):
        z = rng.normals(len(neighbors))[None, :]
        s = z.sum(axis=1)
        if abs(s[0]) >= config.min_abs_sum:
            w = np.zeros((1, m))
            _place(w, neighbors[None, :], z, s)
            return w[0]
    raise SamplingError(f"|sum(z)| stayed below {config.min_abs_sum} after {_MAX_REDRAWS} redraws")


def sample_codings(table, n: int, config: SamplerConfig, rng: Rng) -> np.ndarray:
    """n random codings over the table's m = len(table) anchors, as an (n, m)
    weight array with one row per draw.

    Bit-identical to n sequential draws (center = rng.randint(m), then
    _draw_on_neighborhood on table[center]) and leaves rng at the same
    position.  The stream is decoded in blocks of at most _BLOCK draws, each
    draw one center u64 and normal_u64s(d) normal u64s; a rejected draw
    rewinds rng to just past its center u64, is redrawn by
    _draw_on_neighborhood, and the draws after it start a fresh block.  A
    rejection thus wastes at most one block's decoding, and the work stays
    linear in n.
    """
    d = config.d
    m = len(table)
    if table.shape[1] != d:
        raise ValueError(f"table has shape {table.shape}, expected (m, {d})")
    if n < 0:
        raise ValueError("n must be >= 0")
    per_draw = 1 + normal_u64s(d)  # center u64, then one attempt's normals
    w = np.zeros((n, m))
    done = 0
    while done < n:
        start = rng.counter
        size = min(n - done, _BLOCK)
        block = rng.next_u64_array(size * per_draw).reshape(size, per_draw)
        u = u64_to_uniforms(block[:, 0])
        neighbors = table[np.minimum((u * m).astype(np.int64), m - 1)]
        z = u64_to_normals(block[:, 1:], d)
        s = z.sum(axis=1)
        low = np.flatnonzero(np.abs(s) < config.min_abs_sum)
        good = int(low[0]) if low.size else size
        _place(w[done:done + good], neighbors[:good], z[:good], s[:good])
        done += good
        if good < size:
            rng.counter = start + good * per_draw + 1
            w[done] = _draw_on_neighborhood(neighbors[good], m, config, rng)
            done += 1
    return check_codings(w)


def _neighborhood(anchors: AnchorSet, config: SamplerConfig, rng: Rng) -> np.ndarray:
    """The d nearest anchors of a uniformly drawn center anchor."""
    _check_d(config.d, anchors.m)
    center = rng.randint(anchors.m)
    return knn(anchors.anchors[:, center], anchors, config.d)


def sample_coding(anchors: AnchorSet, config: SamplerConfig, rng: Rng) -> Coding:
    """One random coding supported on a local neighborhood of the anchors."""
    neighbors = _neighborhood(anchors, config, rng)
    return Coding(_draw_on_neighborhood(neighbors, anchors.m, config, rng))


def sample_coding_pair(anchors: AnchorSet, config: SamplerConfig, rng: Rng):
    """Two codings drawn on the same neighborhood, for interpolation."""
    neighbors = _neighborhood(anchors, config, rng)
    a = _draw_on_neighborhood(neighbors, anchors.m, config, rng)
    b = _draw_on_neighborhood(neighbors, anchors.m, config, rng)
    return Coding(a), Coding(b)


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
