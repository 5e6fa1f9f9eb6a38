"""Anchor sets and sum-to-one codings of latent points over them.

A coding writes a latent point h as a weighted combination of anchor
columns, r(h) = V @ gamma with sum(gamma) = 1, trading reconstruction error
against locality.  The objective optimized here, for anchors V and per-point
weights gamma, is

    sum_i  2 * l_h * ||h_i - V g_i||  +  l_q * sum_j |g_ij| * ||v_j - h_i||^q

with q = 2 or 3.  `learn_anchors` alternates two steps: the weights of all
points come from cyclic coordinate descent on the weighted-L1 form
(renormalized to sum 1 after each sweep), and the anchors from a weighted
least-squares update with the weights frozen.  `solve_coding` codes a single
point exactly instead: damped Newton steps on a smoothed objective within
the plane sum(g) = 1, with the smoothing driven down to 1e-10.

Codings in bulk are (n, m) weight arrays, one row per point; a `Coding`
holds one point's weights.  `check_codings` defines a valid coding for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import LccgenError
from ..rng import Rng

_EPS_SMOOTH = 1e-12  # smoothing inside sqrt of the reconstruction term
_SUM_GUARD = 1e-8  # renormalization divisor below this is degenerate
_MAX_SWEEPS = 200
_MU_START = 1e-1  # smoothing levels of the single-point Newton solve
_MU_FLOOR = 1e-10
_MAX_NEWTON = 50  # Newton steps per smoothing level
_SNAP = 1e-8  # weights below this are also tried at exactly zero
_STEPS = 0.5 ** np.arange(53)  # line-search step lengths 1, 1/2, ..., 2^-52


class LccError(LccgenError):
    pass


class DegenerateCodingError(LccError):
    """Coding weights collapsed so their sum cannot be renormalized."""


class InsufficientDataError(LccError):
    """Fewer input points than requested anchors."""


@dataclass
class LccConfig:
    m: int = 128
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


def check_codings(G: np.ndarray) -> np.ndarray:
    """Returns the (n, m) weight array G after checking that every weight is
    finite and every row sums to 1 within 1e-9; raises ValueError if not."""
    if not np.all(np.isfinite(G)):
        raise ValueError("weights must be finite")
    sums = G.sum(axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if off.size:
        raise ValueError(f"coding weights must sum to 1, got {float(sums[off[0]])!r}")
    return G


@dataclass
class Coding:
    """Sum-to-one weights over an anchor set; support lists the nonzeros."""

    weights: np.ndarray
    support: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        check_codings(w[None, :])
        self.weights = w
        self.support = np.flatnonzero(w)


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


def _solve_scaled(scaled, r, b):
    """Solves (scaled / outer(r, r)) x = b, stacked over any leading axis;
    least squares where the matrix is singular."""
    rhs = (r * b)[..., None]
    try:
        y = np.linalg.solve(scaled, rhs)
    except np.linalg.LinAlgError:  # no curvature at all along some direction
        y = np.linalg.pinv(scaled) @ rhs
    return r * y[..., 0]


def _best_step(V, c, two_lh, mu2, g, e, dirs):
    """The point with the lowest F_mu among g + t*d, for each row d of dirs
    and t = 1, 1/2, ..., 2^-52; returns (g, e, s, a, F_mu) there."""
    D = np.repeat(dirs, len(_STEPS), axis=0)
    T = np.tile(_STEPS, len(dirs))[:, None]
    G = g + T * D
    E = e - T * (D @ V.T)
    S = np.sqrt(np.sum(E * E, axis=1) + mu2)
    A = np.sqrt(G * G + mu2)
    F = two_lh * S + A @ c
    k = int(np.argmin(F))
    return G[k], E[k], S[k], A[k], F[k]


def _newton_coding(h, V, c, l_h, g):
    """Damped Newton on the smoothed objective over the plane sum(g) = 1.

    Minimizes F_mu(g) = 2*l_h*sqrt(||h - V g||^2 + mu^2)
    + sum_j c_j*sqrt(g_j^2 + mu^2) for mu = 1e-1, 1e-3, ..., 1e-9, 1e-10;
    F_mu - f is at most (2*l_h + sum(c))*mu.  Each level starts from the
    last one's result, moved along the tangent of the minimizer path g(mu)
    when that lowers the new F_mu.  A step solves the KKT system (Hessian
    bordered by the constraint row) in an orthonormal basis Z of the plane
    1'd = 0 whose trailing columns span the null space of [V; 1']; there
    only the penalty has curvature, which the bordered form rounds away
    against the residual term's 1/mu-sized curvature when l_q is small.  A
    second step uses the penalty's majorizer curvature c/a (a = sqrt(g^2 +
    mu^2)) in place of c*mu^2/a^3, as the Newton step can overshoot a
    weight by orders of magnitude.  The iterate moves to the best point on
    F_mu of either step scaled by 1, 1/2, ..., 2^-52: at least Armijo
    backtracking's decrease.  A level ends when the squared Newton
    decrement drops below 1e-2*mu*F_mu (1e-14*F_mu on the last level), or
    after _MAX_NEWTON steps.
    """
    d_b, m = V.shape
    two_lh = 2.0 * l_h
    Z = np.linalg.qr(np.hstack([np.ones((m, 1)), V.T]), mode="complete")[0][:, 1:]
    W = V @ Z
    W[:, min(d_b, m - 1):] = 0.0  # V Z on the null space, zero up to rounding
    mu = _MU_START
    tangent = None
    while True:
        mu2 = mu * mu
        e = h - V @ g
        s = math.sqrt(e @ e + mu2)
        a = np.sqrt(g * g + mu2)
        f = two_lh * s + c @ a
        if tangent is not None:
            step = _best_step(V, c, two_lh, mu2, g, e, tangent[None, :])
            if step[4] < f:
                g, e, s, a, f = step
        for _ in range(_MAX_NEWTON):
            tol = 1e-2 * mu * f if mu > _MU_FLOOR else 1e-14 * f
            # residual-term Hessian (2 l_h / s) W'(I - e e'/s^2)W, with the
            # middle factor split into the projector off e plus (mu/s)^2
            # along e so it stays positive semidefinite at tiny mu
            norm_e = math.sqrt(max(s * s - mu2, 0.0))
            unit = e / norm_e if norm_e > 0.0 else np.zeros_like(e)
            pe = W.T @ unit
            B = W - np.outer(unit, pe)
            hess = (two_lh / s) * (B.T @ B + (mu2 / (s * s)) * np.outer(pe, pe))
            # the penalty's curvature for the Newton step, and its majorizer
            curv = np.stack([c * mu2 / (a * a * a), c / a])
            hess = hess + (Z.T * curv[:, None, :]) @ Z
            grad = Z.T @ (c * g / a) - (two_lh * norm_e / s) * pe  # pe * norm_e = W'e
            # symmetric diagonal scaling: curvatures span many decades at small mu
            h_diag = np.diagonal(hess, axis1=1, axis2=2)
            r = 1.0 / np.sqrt(np.where(h_diag > 0.0, h_diag, 1.0))
            scaled = hess * r[:, :, None] * r[:, None, :]
            x = _solve_scaled(scaled, r, -grad)
            slope = grad @ x[0]  # minus the squared Newton decrement
            if not slope < -tol:
                break
            step = _best_step(V, c, two_lh, mu2, g, e, x @ Z.T)
            if not step[4] < f:
                break
            g, e, s, a, f = step
        if mu <= _MU_FLOOR:
            return g
        mu_next = max(mu * 1e-2, _MU_FLOOR)
        # tangent of g(mu), from Newton's Hessian: H dx/dmu = -d grad/dmu
        dgrad = Z.T @ (-c * g * mu / (a * a * a)) + (two_lh * mu / (s * s * s)) * (W.T @ e)
        tangent = (mu_next - mu) * (Z @ _solve_scaled(scaled[0], r[0], -dgrad))
        mu = mu_next


def _squash(g):
    """Moves the rounding in sum(g) onto the largest weight, so it sums to 1."""
    g[int(np.argmax(np.abs(g)))] -= g.sum() - 1.0
    return g


def solve_coding(h, anchors: AnchorSet, config: LccConfig, gamma0=None) -> Coding:
    """Minimize the coding objective for one point.

    Solves 2*l_h*||h - V g|| + sum_j c_j*|g_j| subject to sum(g) = 1 by
    damped Newton steps on a smoothed objective, with the smoothing driven
    from 1e-1 down to 1e-10 (see `_newton_coding`), starting from the
    normalized warm start or from uniform weights.  Smoothing leaves the
    weights that should be zero at about mu; the Newton result with the
    weights below 1e-8 set to zero is also scored, and the lower of the two
    is kept.  The result never exceeds the objective of the normalized warm
    start, which is returned when it scores lower.  A point on an anchor
    gets that anchor's one-hot coding, the global optimum.  A warm start
    whose weight sum is below the normalization guard cannot be normalized
    and raises DegenerateCodingError.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != anchors.d_b:
        raise ValueError(f"point has shape {h.shape}, anchors expect ({anchors.d_b},)")
    if not np.all(np.isfinite(h)):
        raise ValueError("point must be finite")
    if anchors.m != config.m:
        raise ValueError(f"anchor set has m={anchors.m} but config.m={config.m}")
    m = anchors.m
    if gamma0 is None:
        g0 = None
    else:
        g0 = np.asarray(gamma0, dtype=np.float64).reshape(-1)
        if g0.shape[0] != m:
            raise ValueError(f"warm start has {g0.shape[0]} weights for m={m}")
        total = float(g0.sum())
        if abs(total) < _SUM_GUARD:
            raise DegenerateCodingError(
                f"warm-start weight sum {total!r} is below the normalization guard"
            )
        g0 = g0 / total
    if m == 1:
        return Coding(np.ones(1))
    V = anchors.anchors
    C, dist = _penalties(h[None, :], V, config.l_q, config.q)
    if np.any(dist == 0.0):
        # exact anchor hit: the one-hot coding is the global optimum there
        g = np.zeros(m)
        g[int(np.argmin(dist[0]))] = 1.0
        return Coding(g)
    g = _squash(_newton_coding(h, V, C[0], config.l_h,
                               np.full(m, 1.0 / m) if g0 is None else g0.copy()))
    candidates = [g, _squash(np.where(np.abs(g) > _SNAP, g, 0.0))]
    if g0 is not None:
        candidates.append(g0)
    objs = _row_objectives(h[None, :], np.stack(candidates), V, C, config.l_h)
    return Coding(candidates[int(np.argmin(objs))])


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

    Returns (AnchorSet, (n, m) array): the anchors and the final codings of
    the n points, one row each.  If `trace` is a list, the objective after
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
    return AnchorSet(V), check_codings(G)


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

    `codings` is the (n, m) weight array of the n points, one row each.
    Distances in the second term are measured to the reconstruction r(h),
    not to the point itself as during training.
    """
    H = _as_points(points)
    G = np.asarray(codings, dtype=np.float64)
    V = anchors.anchors
    R = G @ V.T  # (n, d_b) reconstructions
    res = H - R
    first = 2.0 * config.l_h * np.sqrt(np.sum(res * res, axis=1))
    diff = V.T[None, :, :] - R[:, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    second = config.l_q * np.sum(np.abs(G) * dist**config.q, axis=1)
    return float(np.mean(first + second))
