"""Anchor sets and sum-to-one codings of latent points over them.

A coding writes a latent point h as a weighted combination of anchor
columns, r(h) = V @ gamma with sum(gamma) = 1, trading reconstruction error
against locality.  The objective optimized here, for anchors V and per-point
weights gamma, is

    sum_i  2 * l_h * ||h_i - V g_i||  +  l_q * sum_j |g_ij| * ||v_j - h_i||^q

with q = 2 or 3.  Weights come from cyclic coordinate descent on the
weighted-L1 form (renormalized to sum 1 after each sweep); anchors come from
a weighted least-squares update with the weights frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..rng import Rng

_EPS_SMOOTH = 1e-12  # smoothing inside sqrt of the reconstruction term
_SUM_GUARD = 1e-8  # renormalization divisor below this is degenerate
_MAX_SWEEPS = 200


class LccError(Exception):
    pass


class DegenerateCodingError(LccError):
    """Coding weights collapsed so their sum cannot be renormalized."""


class InsufficientDataError(LccError):
    """Fewer input points than requested anchors."""


@dataclass
class LccConfig:
    m: int = 128
    d: int = 4
    q: int = 2
    l_h: float = 1.0
    l_q: float = 1.0
    coding_tol: float = 1e-9
    anchor_tol: float = 1e-6
    max_outer_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.q not in (2, 3):
            raise ValueError(f"q must be 2 or 3, got {self.q}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 1 <= self.d <= self.m:
            raise ValueError(f"d must be in [1, m], got d={self.d} m={self.m}")
        if self.l_h < 0 or self.l_q < 0:
            raise ValueError("l_h and l_q must be nonnegative")
        if self.coding_tol <= 0 or self.anchor_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be >= 0")


@dataclass
class AnchorSet:
    """Columns of `anchors` are the anchor points, shape (d_b, m)."""

    anchors: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.anchors, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] < 1:
            raise ValueError(f"anchors must be a (d_b, m) matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("anchors must be finite")
        self.anchors = a

    @property
    def d_b(self) -> int:
        return self.anchors.shape[0]

    @property
    def m(self) -> int:
        return self.anchors.shape[1]


@dataclass
class Coding:
    """Sum-to-one weights over an anchor set; support lists the nonzeros."""

    weights: np.ndarray
    support: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        s = float(np.sum(w))
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"coding weights must sum to 1, got {s!r}")
        self.weights = w
        self.support = np.flatnonzero(w)

    @property
    def nnz(self) -> int:
        return int(self.support.size)


def _as_points(points) -> np.ndarray:
    h = np.asarray(points, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"expected a (n, d_b) array of points, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("points must be finite")
    return h


def reconstruct(coding: Coding, anchors: AnchorSet) -> np.ndarray:
    """r(h) = V @ gamma."""
    w = coding.weights
    if w.shape[0] != anchors.m:
        raise ValueError(f"coding has {w.shape[0]} weights for {anchors.m} anchors")
    return anchors.anchors @ w


def _penalties(H: np.ndarray, V: np.ndarray, l_q: float, q: int):
    # c_ij = l_q * ||v_j - h_i||^q, shape (n, m); dist returned for reuse
    diff = H[:, None, :] - V.T[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return l_q * dist**q, dist


def lcc_objective(points, weights, anchors: AnchorSet, config: LccConfig) -> float:
    """Training objective summed over points; `weights` is (n, m)."""
    H = _as_points(points)
    G = np.asarray(weights, dtype=np.float64)
    V = anchors.anchors
    C, _ = _penalties(H, V, config.l_q, config.q)
    E = H - G @ V.T
    rec = np.sqrt(np.sum(E * E, axis=1))
    return float(np.sum(2.0 * config.l_h * rec) + np.sum(np.abs(G) * C))


def _row_objectives(H, G, V, C, l_h):
    E = H - G @ V.T
    rec = np.sqrt(np.sum(E * E, axis=1))
    return 2.0 * l_h * rec + np.sum(np.abs(G) * C, axis=1)


def _normalize_rows(G: np.ndarray) -> np.ndarray:
    """Scale rows to sum 1; returns a boolean mask of degenerate rows."""
    s = G.sum(axis=1)
    bad = np.abs(s) < _SUM_GUARD
    ok = ~bad
    G[ok] /= s[ok, None]
    # squash residual rounding so the sum-to-one invariant holds exactly
    if np.any(ok):
        idx = np.flatnonzero(ok)
        top = np.argmax(np.abs(G[idx]), axis=1)
        G[idx, top] -= G[idx].sum(axis=1) - 1.0
    return bad


def _solve_batch(H, V, config: LccConfig, gamma0=None):
    """Coordinate-descent coding solve for every row of H at once.

    Returns (G, row_objs, collapsed); each returned row is the best
    renormalized iterate seen for that point, so row_objs never exceeds the
    objective of the warm start (when given).  Rows whose weight sum fell
    below the normalization guard during a sweep are frozen at their best
    iterate and flagged in the `collapsed` mask.
    """
    n = H.shape[0]
    m = V.shape[1]
    l_h, l_q, q = config.l_h, config.l_q, config.q
    C, dist = _penalties(H, V, l_q, q)
    collapsed = np.zeros(n, dtype=bool)

    if m == 1:
        G = np.ones((n, 1))
        return G, _row_objectives(H, G, V, C, l_h), collapsed

    if gamma0 is None:
        G = np.full((n, m), 1.0 / m)
    else:
        G = np.array(gamma0, dtype=np.float64, copy=True)

    # exact anchor hits: the one-hot coding is the global optimum there
    hit_rows = np.flatnonzero(np.any(dist == 0.0, axis=1))
    for i in hit_rows:
        j = int(np.argmin(dist[i]))
        G[i] = 0.0
        G[i, j] = 1.0
    active = np.ones(n, dtype=bool)
    active[hit_rows] = False

    best_G = G.copy()
    best_obj = _row_objectives(H, G, V, C, l_h)
    if not np.any(active):
        return best_G, best_obj, collapsed

    vv = np.sum(V * V, axis=0)  # (m,)
    E = H - G @ V.T
    stall = 0
    for _ in range(_MAX_SWEEPS):
        prev = G.copy()
        beta = l_h / np.sqrt(np.sum(E * E, axis=1) + _EPS_SMOOTH)
        inactive = ~active
        frozen = bool(inactive.any())
        for j in range(m):
            if vv[j] == 0.0:
                continue
            vj = V[:, j]
            gj = G[:, j]
            s = E @ vj + gj * vv[j]
            z = beta * s
            t = np.sign(z) * np.maximum(np.abs(z) - 0.5 * C[:, j], 0.0) / (beta * vv[j])
            if frozen:
                t[inactive] = gj[inactive]
            step = t - gj
            E -= step[:, None] * vj[None, :]
            G[:, j] = t
        bad = _normalize_rows(G)
        bad &= active
        if np.any(bad):
            G[bad] = best_G[bad]
            active[bad] = False
            collapsed |= bad
        E = H - G @ V.T
        obj = _row_objectives(H, G, V, C, l_h)
        better = obj < best_obj
        gain = np.max((best_obj - obj) / np.maximum(1.0, best_obj), initial=0.0)
        best_obj = np.where(better, obj, best_obj)
        best_G[better] = G[better]
        if np.max(np.abs(G[active] - prev[active]), initial=0.0) < config.coding_tol:
            break
        # iterates can drift through flat directions with the objective pinned;
        # stop once no row has improved measurably for several sweeps
        stall = stall + 1 if gain < 1e-13 else 0
        if stall >= 5:
            break
    return best_G, best_obj, collapsed


def _polish_coding(h, V, C, l_h, gamma, max_passes=4):
    """Exact cyclic coordinate minimization on the sum-to-one manifold.

    Each step moves weight between coordinate j and a pivot p (so the sum
    constraint holds by construction) and minimizes the convex 1-D section
    of the objective by ternary search.  Started from any feasible coding
    this never increases the objective; with two anchors a single pass
    solves the constrained problem to search tolerance.
    """
    m = V.shape[1]
    if m < 2:
        return gamma
    g = gamma.copy()
    E = h - V @ g

    two_lh = 2.0 * l_h

    def section_min(ee, eu, uu, cj, cp, s0, t0):
        # minimize f(t) = 2*l_h*sqrt(ee - 2(t-t0)eu + (t-t0)^2 uu + eps)
        #                 + cj|t| + cp|s0 - t| over t (convex)
        # defaults bind as locals: f runs ~60 times per section
        def f(t, sqrt=math.sqrt, eps=_EPS_SMOOTH, abs=abs):
            d = t - t0
            r2 = ee - 2.0 * d * eu + d * d * uu
            return two_lh * sqrt((r2 if r2 > 0.0 else 0.0) + eps) + cj * abs(t) + cp * abs(s0 - t)

        if cj == 0.0 and cp == 0.0:
            return t0 + eu / uu, f(t0 + eu / uu)
        w = 1.0 + abs(s0) + abs(t0)
        lo, hi = t0 - w, t0 + w
        f_lo, f_hi, f_mid = f(lo), f(hi), f(t0)
        for _ in range(64):  # expand until the minimum is bracketed
            if f_lo >= f_mid and f_hi >= f_mid:
                break
            w *= 2.0
            lo, hi = t0 - w, t0 + w
            f_lo, f_hi = f(lo), f(hi)
        # golden-section search; convex f, one new evaluation per step
        inv_phi = 0.6180339887498949
        m1 = hi - inv_phi * (hi - lo)
        m2 = lo + inv_phi * (hi - lo)
        f1, f2 = f(m1), f(m2)
        for _ in range(120):
            if hi - lo <= 1e-10 * (1.0 + abs(lo) + abs(hi)):
                break
            if f1 <= f2:
                hi, m2, f2 = m2, m1, f1
                m1 = hi - inv_phi * (hi - lo)
                f1 = f(m1)
            else:
                lo, m1, f1 = m1, m2, f2
                m2 = lo + inv_phi * (hi - lo)
                f2 = f(m2)
        t = 0.5 * (lo + hi)
        # snap to the kinks when they are at least as good (exact sparsity)
        best_t, best_f = t, f(t)
        for cand in (0.0, s0):
            fc = f(cand)
            if fc <= best_f:
                best_t, best_f = cand, fc
        return best_t, best_f

    for _ in range(max_passes):
        p = int(np.argmax(np.abs(g)))
        moved = 0.0
        for j in range(m):
            if j == p:
                continue
            u = V[:, j] - V[:, p]
            uu = float(u @ u)
            if uu == 0.0:
                continue  # identical anchors: moving mass changes nothing
            ee = float(E @ E)
            eu = float(E @ u)
            s0 = g[j] + g[p]
            t, _fval = section_min(ee, eu, uu, C[j], C[p], s0, g[j])
            delta = t - g[j]
            if delta != 0.0:
                E -= delta * u
                g[j] = t
                g[p] = s0 - t
                moved = max(moved, abs(delta))
        # squash accumulated rounding so the sum invariant stays exact
        g[int(np.argmax(np.abs(g)))] -= g.sum() - 1.0
        E = h - V @ g
        if moved < 1e-13:
            break
    return g


def solve_coding(h, anchors: AnchorSet, config: LccConfig, gamma0=None) -> Coding:
    """Minimize the coding objective for one point.

    Runs the sweep-and-renormalize descent and then polishes its best
    feasible iterate with exact constrained coordinate steps, so the result
    never exceeds the objective of any iterate visited.  A warm start whose
    weight sum is below the normalization guard cannot be normalized and
    raises DegenerateCodingError.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != anchors.d_b:
        raise ValueError(f"point has shape {h.shape}, anchors expect ({anchors.d_b},)")
    if not np.all(np.isfinite(h)):
        raise ValueError("point must be finite")
    if anchors.m != config.m:
        raise ValueError(f"anchor set has m={anchors.m} but config.m={config.m}")
    if gamma0 is None:
        g0 = None
    else:
        g0 = np.asarray(gamma0, dtype=np.float64).reshape(1, -1)
        if g0.shape[1] != anchors.m:
            raise ValueError(f"warm start has {g0.shape[1]} weights for m={anchors.m}")
        total = float(g0.sum())
        if abs(total) < _SUM_GUARD:
            raise DegenerateCodingError(
                f"warm-start weight sum {total!r} is below the normalization guard"
            )
        g0 = g0 / total
    G, obj, _collapsed = _solve_batch(h[None, :], anchors.anchors, config, gamma0=g0)
    g = G[0]
    if obj[0] > 0.0:
        C, _ = _penalties(h[None, :], anchors.anchors, config.l_q, config.q)
        g = _polish_coding(h, anchors.anchors, C[0], config.l_h, g)
    return Coding(g)


def init_anchors(points, m: int, rng: Rng) -> np.ndarray:
    """k-means++ seeding; with fewer points than anchors, surplus anchors
    are data points plus Gaussian jitter of scale 1e-3 * data std."""
    H = _as_points(points)
    n = H.shape[0]
    if n >= m:
        centers = np.empty((m, H.shape[1]))
        first = rng.randint(n)
        centers[0] = H[first]
        d2 = np.sum((H - centers[0]) ** 2, axis=1)
        for k in range(1, m):
            total = float(d2.sum())
            if total <= 0.0:
                pick = rng.randint(n)
            else:
                r = rng.uniform() * total
                pick = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
            centers[k] = H[pick]
            d2 = np.minimum(d2, np.sum((H - centers[k]) ** 2, axis=1))
        return centers.T
    scale = 1e-3 * float(H.std())
    reps = [H]
    short = m - n
    jitter = rng.normals(short * H.shape[1]).reshape(short, H.shape[1])
    extra = H[np.arange(short) % n] + scale * jitter
    return np.concatenate(reps + [extra], axis=0).T


def learn_anchors(points, config: LccConfig, trace=None):
    """Alternate coding solves and anchor updates until the objective settles.

    Returns (AnchorSet, [Coding]).  If `trace` is a list, the objective after
    each outer iteration is appended to it.
    """
    H = _as_points(points)
    n = H.shape[0]
    if n < config.m:
        raise InsufficientDataError(
            f"{n} points cannot initialize {config.m} anchors; "
            "see init_anchors for the jittered fallback"
        )
    rng = Rng(config.seed)
    V = init_anchors(H, config.m, rng)
    G = None
    obj_prev = None
    for _ in range(config.max_outer_iters):
        G, _objs, _ = _solve_batch(H, V, config, gamma0=G)
        V = _update_anchors(H, G, V, config)
        obj = lcc_objective(H, G, AnchorSet(V), config)
        if trace is not None:
            trace.append(obj)
        if obj_prev is not None and abs(obj - obj_prev) < config.anchor_tol * max(1.0, obj_prev):
            obj_prev = obj
            break
        obj_prev = obj
    if config.max_outer_iters > 0:
        G, _, _ = _solve_batch(H, V, config, gamma0=G)
    else:
        G, _, _ = _solve_batch(H, V, config)
    anchors = AnchorSet(V)
    return anchors, [Coding(G[i]) for i in range(n)]


def _update_anchors(H, G, V, config: LccConfig):
    """Weighted least-squares anchor update with a backtracking guard.

    The reconstruction term is handled by freezing its inverse-residual
    weight at the current anchors; for q=3 one factor of ||v - h|| is frozen
    as well, leaving a quadratic whose normal equations couple anchors
    through the codings.  Backtracking keeps the true objective nonincreasing.
    """
    l_h, l_q, q = config.l_h, config.l_q, config.q
    E = H - G @ V.T
    beta = l_h / np.sqrt(np.sum(E * E, axis=1) + _EPS_SMOOTH)  # (n,)
    W = l_q * np.abs(G)
    if q == 3:
        diff = H[:, None, :] - V.T[None, :, :]
        W = W * np.sqrt(np.sum(diff * diff, axis=2))

    A = (G * beta[:, None]).T @ G + np.diag(W.sum(axis=0))
    B = (G * beta[:, None]).T @ H + W.T @ H
    A[np.diag_indices_from(A)] += 1e-10 * max(float(np.mean(np.diag(A))), 1e-30)
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        X = np.linalg.lstsq(A, B, rcond=None)[0]
    V_cand = X.T

    cfg_anchor = AnchorSet(V)
    f_cur = lcc_objective(H, G, cfg_anchor, config)
    step = 1.0
    for _ in range(30):
        V_try = V + step * (V_cand - V)
        if lcc_objective(H, G, AnchorSet(V_try), config) <= f_cur:
            return V_try
        step *= 0.5
    return V


def localization_measure(points, codings, anchors: AnchorSet, config: LccConfig) -> float:
    """Mean over points of 2*l_h*||h - r(h)|| + l_q * sum_j |g_j|*||v_j - r(h)||^q.

    Distances in the second term are measured to the reconstruction r(h),
    not to the point itself as during training.
    """
    H = _as_points(points)
    if isinstance(codings, (list, tuple)):
        G = np.stack([c.weights for c in codings])
    else:
        G = np.asarray(codings, dtype=np.float64)
    V = anchors.anchors
    R = G @ V.T  # (n, d_b) reconstructions
    res = H - R
    first = 2.0 * config.l_h * np.sqrt(np.sum(res * res, axis=1))
    diff = V.T[None, :, :] - R[:, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    second = config.l_q * np.sum(np.abs(G) * dist**config.q, axis=1)
    return float(np.mean(first + second))
