"""Anchor sets and sum-to-one codings of latent points over them.

A coding writes a latent point h as a weighted combination of anchor
columns, r(h) = V @ gamma with sum(gamma) = 1, trading reconstruction error
against locality.  The objective optimized here, for anchors V and per-point
weights gamma, is

    sum_i  2 * l_h * ||h_i - V g_i||  +  l_q * sum_j |g_ij| * ||v_j - h_i||^q

with q = 2 or 3.  `solve_codings` is the one coding solver: for fixed
anchors it solves every point's weights at once and certifies each row by
weak duality (see its docstring for the stop reasons).  Most rows are
vertices of the zero-residual LP min sum_j c_j |g_j| s.t. V g = h,
sum(g) = 1, found by a lockstep simplex.  The rest, mostly points outside
the anchors' hull, go to an active set over faces, the sets of anchors
that carry a row's nonzero weights, each solved in closed form; it steps
its rows in lockstep too.  `solve_coding` is its one-row call.
`learn_anchors` alternates it with a weighted least-squares anchor update.

Codings in bulk are (n, m) weight arrays, one row per point; a `Coding`
holds one point's weights.  `check_codings` defines a valid coding for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import LccgenError
from ..config import LccConfig
from ..rng import Rng

_EPS_SMOOTH = 1e-12  # smoothing inside sqrt of the reconstruction term
_MAX_PIVOTS = 50  # simplex pivots per row before the active-set fallback
_ROWS = 512  # rows per block of solve_codings, bounding its (rows, m) temporaries
_MAX_STEPS = 200  # active-set steps per row


class InsufficientDataError(LccgenError):
    """Fewer input points than requested anchors."""


@dataclass
class AnchorSet:
    """Columns of `anchors` are the anchor points, shape (d_b, m)."""

    anchors: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.anchors, dtype=np.float64)
        if a.ndim != 2 or 0 in a.shape:
            raise ValueError(f"anchors must be a nonempty (d_b, m) matrix, got shape {a.shape}")
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
    if not np.logical_and.reduce(np.isfinite(G), axis=None):
        raise ValueError("weights must be finite")
    sums = np.add.reduce(G, axis=1)
    off = (np.abs(sums - 1.0) > 1e-9).nonzero()[0]
    if off.size:
        raise ValueError(f"coding weights must sum to 1, got {float(sums[off[0]])!r}")
    return G


@dataclass
class Coding:
    """Sum-to-one weights over an anchor set."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        check_codings(w[None, :])
        self.weights = w


def _as_points(points) -> np.ndarray:
    h = np.asarray(points, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"expected a (n, d_b) array of points, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("points must be finite")
    return h


def sq_dists(H: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from the rows of H to the columns of V.
    Squares add one coordinate at a time, left to right: the order np.sum
    takes over an (n, m, d_b) difference array when m >= 2."""
    d2 = np.zeros((len(H), V.shape[1]))
    for h, v in zip(H.T, V):
        diff = np.subtract.outer(h, v)
        diff *= diff
        d2 += diff
    return d2


def _penalties(H: np.ndarray, V: np.ndarray, l_q: float, q: int):
    # c_ij = l_q * ||v_j - h_i||^q, shape (n, m); dist returned for reuse.
    dist = sq_dists(H, V)
    np.sqrt(dist, out=dist)
    return l_q * dist**q, dist


def lcc_objective(points, weights, anchors: AnchorSet, config: LccConfig) -> float:
    """Training objective summed over points; `weights` is (n, m).  Each
    point's locality term sums over its coding's support, the anchors of
    its nonzero weights."""
    H = _as_points(points)
    G = np.asarray(weights, dtype=np.float64)
    return _support_objective(H, G, anchors.anchors, config, _support(H, G))


def _support(H, G):
    """The nonzero weights of the (n, m) codings G: their positions in G's
    rows laid end to end, their anchors, |g| and their points' coordinates,
    (d_b, k)."""
    at = (G != 0.0).ravel().nonzero()[0]
    rows, cols = np.divmod(at, G.shape[1])
    return at, cols, np.abs(G.take(at)), H.T.take(rows, axis=1)


def _support_objective(H, G, V, config: LccConfig, support) -> float:
    """`lcc_objective` at anchors V, for the `_support` of G.

    Each locality term takes the float operations of `_penalties` and
    `np.abs(G) * C`: h - v per coordinate, squared and added left to right
    from 0, then sqrt, **q, l_q * and |g| *.  Scattered into zeros of G's
    shape, they add up as the full (n, m) product does wherever a zero
    weight's penalty is finite; where it overflows to inf, 0 * inf = NaN
    would have made the sum NaN."""
    at, cols, absg, HS = support
    d2 = np.zeros(at.size)
    for hs, v in zip(HS, V):
        diff = hs - v.take(cols)
        diff *= diff
        d2 += diff
    np.sqrt(d2, out=d2)
    local = np.zeros(G.shape)
    local.ravel()[at] = absg * (config.l_q * d2**config.q)
    E = H - G @ V.T
    rec = np.sqrt(np.add.reduce(E * E, axis=1))
    return float(np.add.reduce(2.0 * config.l_h * rec) + np.add.reduce(local, axis=None))


def _row_objectives(H, G, V, C, l_h):
    E = H - G @ V.T
    rec = np.sqrt(np.add.reduce(E * E, axis=1))
    return 2.0 * l_h * rec + np.add.reduce(np.abs(G) * C, axis=1)


def pin_row_sums(G):
    """Moves the rounding in each row's sum onto its largest weight, in
    place, so every row sums to 1; returns G.  Every sum-to-one coding the
    package builds is pinned here."""
    top = np.abs(G).argmax(axis=1)
    G[np.arange(len(G)), top] -= np.add.reduce(G, axis=1) - 1.0
    return G


def _lp_vertices(H, V, C, dist, G0):
    """Lockstep simplex on min sum_j c_j |g_j| s.t. V g = h, sum(g) = 1.

    Each row's basis starts at its warm start's largest weights, topped up
    with its nearest anchors, or at its d_b + 1 nearest anchors.  A pivot
    is one stacked solve with the (d_b+1, d_b+1) basis matrices [V_B; 1'];
    the entering anchor is the one whose dual constraint
    |v_j'y + lam| <= c_j is most violated, the leaving one the first basic
    weight to reach zero.  Returns (G, Y, done): the vertex weights, the
    dual y of each row's last basis, and the rows that reached an optimal
    vertex within _MAX_PIVOTS.  Rows with a singular basis or no optimum by
    then are left undone.  The arrays of the rows still pivoting are
    compacted only when a row leaves, and the pass in which the last row
    leaves is the last.
    """
    n = len(H)
    d_b, m = V.shape
    A = np.vstack([V, np.ones((1, m))])  # columns (v_j, 1)
    AT = A.T.copy()
    norms = np.sqrt(np.add.reduce(A * A, axis=0))
    key = dist if G0 is None else np.where(G0 != 0.0, -np.abs(G0), dist)
    basis = np.argsort(key, axis=1, kind="stable")[:, :d_b + 1]
    G = np.zeros((n, m))
    Y = np.zeros((n, d_b))
    done = np.zeros(n, dtype=bool)
    live = np.arange(n)  # the rows still pivoting; b, c and sign hold theirs
    rows = live  # positions in those arrays
    b = np.hstack([H, np.ones((n, 1))])[:, :, None]
    c = C
    sign = np.ones(basis.shape)  # side of zero each basic weight is on
    for _ in range(_MAX_PIVOTS):
        bas = basis[live]
        M = AT[bas].swapaxes(1, 2)
        # |det| against the product of column norms (Hadamard's bound)
        ok = np.abs(np.linalg.det(M)) > 1e-12 * np.multiply.reduce(norms[bas], axis=1)
        if not np.logical_and.reduce(ok):
            live, bas, M, b, c, sign = (v[ok] for v in (live, bas, M, b, c, sign))
            if not live.size:
                break
            rows = np.arange(live.size)
        inv = np.linalg.inv(M)
        g = (inv @ b)[:, :, 0]
        sg = np.where(np.abs(g) > 1e-13, np.sign(g), sign)
        pi = (inv.swapaxes(1, 2) @ (sg * c[rows[:, None], bas])[:, :, None])[:, :, 0]
        P = pi[:, :d_b] @ V + pi[:, d_b:]
        viol = np.abs(P) - c
        viol[rows[:, None], bas] = -np.inf
        enter = viol.argmax(axis=1)
        opt = viol[rows, enter] <= 1e-12 * c[rows, enter]
        some = np.logical_or.reduce(opt)
        if some:
            fin = live[opt]
            G[fin[:, None], bas[opt]] = g[opt]
            Y[fin] = pi[opt, :d_b]
            done[fin] = True
            if np.logical_and.reduce(opt):
                break
        s = np.sign(P[rows, enter])  # the entering weight moves by s*t
        d = s[:, None] * (inv @ AT[enter][:, :, None])[:, :, 0]  # basic weights move by -d*t
        toward = sg * d  # > 0: that weight shrinks toward zero
        moving = toward > 1e-12 * np.maximum.reduce(np.abs(d), axis=1, keepdims=True)
        ratio = np.divide(np.maximum(sg * g, 0.0), toward, out=np.full(toward.shape, np.inf),
                          where=moving)
        leave = ratio.argmin(axis=1)
        if some:
            live, b, c, sg, enter, leave, s = (v[~opt] for v in (live, b, c, sg, enter, leave, s))
            rows = np.arange(live.size)
        basis[live, leave] = enter
        sign = sg
        sign[rows, leave] = s
    return G, Y, done


def _dots(a, b):
    """Row-wise dot products of two (n, k) arrays."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _face_moves(H, VS, s, c, w, two_lh):
    """Each row's move on its face S of k anchors (see `_active_set_codings`).

    VS, (d_b, rows, k), holds the anchors of S and s, c and w, (rows, k),
    their signs, penalties and weights.  With g = (1 - 1't, t),
    A = V_S[1:] - v_S0, e0 = h - v_S0 and sc = s*c, stationarity fixes the
    part of e/||e|| in A's range to p = pinv(A)'(sc[1:] - sc_0) / (2*l_h);
    the part off it is e0's, so the face optimum has ||e|| = ||e_off|| /
    sqrt(1 - ||p||^2) and t = pinv(A) (e0 - ||e|| p).  If ||p|| >= 1 the
    objective falls along t = -pinv(A) p.  Returns (d, inside, p): the
    weights' direction, whether a step of 1 along it reaches the face
    optimum (else it is a ray or a pivot), and p.
    """
    rows, k = w.shape
    p = np.zeros(H.shape)
    if k == 1:  # the one weight moves to 1
        return 1.0 - w, np.ones(rows, dtype=bool), p
    A = (VS[:, :, 1:] - VS[:, :, :1]).transpose(1, 0, 2)  # (rows, d_b, k - 1)
    U, sv, Wt = np.linalg.svd(A)
    # full rank, else [V_S; 1'] has a null space along which the entering weight pivots
    inside = sv[:, -1] > 1e-12 * sv[:, 0] if k <= H.shape[1] + 1 else np.zeros(rows, dtype=bool)
    d = np.empty(w.shape)
    f = slice(None)
    if not np.logical_and.reduce(inside):
        null = Wt[~inside, -1]
        d[~inside] = (np.concatenate([-np.add.reduce(null, axis=1, keepdims=True), null], axis=1)
                      * (s[~inside, -1] / null[:, -1])[:, None])
        if not np.logical_or.reduce(inside):
            return d, inside, p
        f = inside.nonzero()[0]
    sc = s[f] * c[f]
    e0 = H[f] - VS[:, f, 0].T
    Ap = Wt[f].swapaxes(1, 2) @ ((1.0 / sv[f])[:, :, None] * U[f, :, :k - 1].swapaxes(1, 2))
    p[f] = pf = (Ap.swapaxes(1, 2) @ (sc[:, 1:] - sc[:, :1])[:, :, None])[:, :, 0] / two_lh
    room = 1.0 - _dots(pf, pf)
    inside[f] = face = room > 0.0  # else the objective falls along a ray
    off = e0 - (A[f] @ (Ap @ e0[:, :, None]))[:, :, 0]
    norm = np.sqrt(_dots(off, off) / np.where(face, room, 1.0))
    t = (Ap @ np.where(face[:, None], e0 - norm[:, None] * pf, pf)[:, :, None])[:, :, 0]
    np.negative(t, out=t, where=~face[:, None])
    tsum = np.add.reduce(t, axis=1)
    d[f] = (np.concatenate([np.where(face, 1.0 - tsum, -tsum)[:, None], t], axis=1)
            - np.where(face[:, None], w[f], 0.0))
    return d, inside, p


def _active_set_codings(H, V, C, G0, l_h):
    """Exact codings by an active set over faces, all rows stepped together.

    A face is a set S of anchors with a sign s_j for each weight, on which
    the objective is 2*l_h*||h - V_S g|| + sum_S s_j*c_j*g_j.  Each row
    starts on the support of its row of G0 and repeats (the lasso active
    set of Osborne, Presnell & Turlach, IMA J. Numer. Anal. 2000):

    - move toward the face optimum, or along a ray on which the face
      objective falls (`_face_moves`); a weight that reaches zero on the
      way stops the move and leaves S;
    - at the face optimum, take y = 2*l_h*e/||e||, or 2*l_h*p where the
      residual is rounding, and lam from S's first anchor; stop if every
      |v_j'y + lam| <= c_j, else add the most violated anchor with the sign
      of v_j'y + lam;
    - if [V_S; 1'] then has a null space, pivot as the simplex does.

    A step takes every open row, one stacked SVD per face size, and gives
    each row the float operations it would get alone.  Returns (G, Y): the
    codings and each row's last dual point, after at most _MAX_STEPS steps.
    """
    n, m = G0.shape
    two_lh = 2.0 * l_h
    small = 1e-12 * np.maximum(1.0, np.sqrt(_dots(H, H)))  # a residual that is rounding
    # each row's face, in its order of entry: anchors, signs and weights,
    # padded to the d_b + 2 anchors a face can reach
    size = np.add.reduce(G0 != 0.0, axis=1)
    S = np.argsort(G0 == 0.0, axis=1, kind="stable")[:, :min(len(V) + 2, m)]
    g = G0[np.arange(n)[:, None], S]
    s = np.sign(g)
    Y = np.zeros(H.shape)
    live = np.arange(n)
    for _ in range(_MAX_STEPS):
        if not live.size:
            break
        stop = np.zeros(n, dtype=bool)
        sizes = size[live]
        ks = np.bincount(sizes).nonzero()[0].tolist()
        for k in ks:
            r = live if len(ks) == 1 else live[sizes == k]
            F, sg, w = S[r, :k], s[r, :k], g[r, :k]
            VS, c = V[:, F], C[r[:, None], F]
            d, inside, p = _face_moves(H[r], VS, sg, c, w, two_lh)
            toward = -sg * d  # > 0: that weight shrinks toward zero
            moving = toward > 1e-12 * np.maximum.reduce(np.abs(d), axis=1, keepdims=True)
            ratio = np.divide(sg * w, toward, out=np.full(d.shape, np.inf), where=moving)
            at = np.minimum.reduce(ratio, axis=1)
            out = at < np.where(inside, 1.0, np.inf)
            if np.logical_or.reduce(out):  # the first weight to reach zero leaves
                lv, keep = r[out], np.arange(k) != ratio[out].argmin(axis=1)[:, None]
                for dst, src in ((S, F[out]), (s, sg[out]), (g, w[out] + at[out, None] * d[out])):
                    dst[lv, :k - 1] = src[keep].reshape(-1, k - 1)
                size[lv] = k - 1
                inside &= ~out
            if not np.logical_or.reduce(inside):
                continue
            # the rows at the face optimum
            a = slice(None) if np.logical_and.reduce(inside) else inside.nonzero()[0]
            ra, Fa, wa = r[a], F[a], w[a] + d[a]
            g[ra, :k] = wa
            e = H[ra] - (VS[:, a].swapaxes(0, 1) @ wa[:, :, None])[:, :, 0]
            norm = np.sqrt(_dots(e, e))
            y = two_lh * np.divide(e, norm[:, None], out=p[a], where=(norm > small[ra])[:, None])
            Y[ra] = y
            # v_j'y + lam = (v_j - v_S0)'y + s_0 c_0; a violation within the
            # rounding of its terms, at most ||y|| ||v_j - v_S0||, does not count
            D = V - VS[:, a, :1].swapaxes(0, 1)
            P = (y[:, None, :] @ D)[:, 0] + sg[a, :1] * c[a, :1]
            viol = (np.abs(P) - (1.0 + 1e-12) * C[ra]
                    - 1e-13 * np.sqrt(_dots(y, y)[:, None] * np.add.reduce(D * D, axis=1)))
            viol[np.arange(len(ra))[:, None], Fa] = -np.inf
            best = np.maximum.reduce(viol, axis=1) <= 0.0
            stop[ra[best]] = True
            if not np.logical_and.reduce(best):  # the most violated anchor enters at weight 0
                grow = (~best).nonzero()[0]
                j = viol[grow].argmax(axis=1)
                S[ra[grow], k], s[ra[grow], k], g[ra[grow], k] = j, np.sign(P[grow, j]), 0.0
                size[ra[grow]] = k + 1
        live = live[~stop[live]]
    G = np.zeros((n, m))
    row, slot = np.nonzero(np.arange(S.shape[1]) < size[:, None])
    G[row, S[row, slot]] = g[row, slot]
    return G, Y


def _dual_bounds(H, V, C, Y, l_h, tol):
    """Weak-duality lower bounds on each row's coding objective.

    For any y with ||y|| <= 2*l_h and lam with |v_j'y + lam| <= c_j, every
    coding g has objective >= y'h + lam.  Each row takes the largest lam
    for its y, min_j (c_j - v_j'y), and scales (y, lam) by the largest
    t <= 1 that makes the pair feasible; (0, 0) always is.

    The rounding in v_k'y + lam, a sum of O(1) terms, can swamp the tiny
    c_k of an anchor next to h and scale a valid pair down to almost
    nothing.  So a row whose scaling costs its bound more than tol / 1000
    is bounded again in coordinates centred on its anchor k of least c,
    where that constraint reads |lam| <= c_k and lam is clipped to it, and
    keeps the larger bound.
    """
    norm = np.sqrt(np.add.reduce(Y * Y, axis=1))
    ball = np.divide(2.0 * l_h, norm, out=np.ones(norm.shape), where=norm > 0.0)

    def bound(P, c, yh, ball, floor):
        lam = np.maximum(np.minimum.reduce(c - P, axis=1), floor)
        P += lam[:, None]
        np.abs(P, out=P)
        fit = np.minimum.reduce(np.divide(c, P, out=np.ones(P.shape), where=P > 0.0), axis=1)
        b = yh + lam
        return (1.0 - fit) * np.abs(b), np.minimum(np.minimum(ball, fit), 1.0) * b

    loss, lower = bound(Y @ V, C, np.add.reduce(Y * H, axis=1), ball, -np.inf)
    low = (loss > 1e-3 * tol).nonzero()[0]
    if low.size:
        y, c = Y[low], C[low]
        k = c.argmin(axis=1)
        vk = V.T[k]
        P = ((V.T[None, :, :] - vk[:, None, :]) @ y[:, :, None])[:, :, 0]  # 0 at k
        yh = (y * (H[low] - vk)).sum(axis=1)
        lower[low] = np.maximum(lower[low], bound(P, c, yh, ball[low], -c.min(axis=1))[1])
    return lower


def _certified_gaps(H, G, V, C, l_h, tol):
    """Each row's objective minus the better of two weak-duality bounds.

    One takes y = 2*l_h*e/||e|| from the row's residual e.  The other
    corrects it with the stationarity conditions of the row's support S:
    v_j'y + lam = sign(g_j)*c_j for j in S, which differenced against S's
    first anchor read D y = beta.  It is the point of {D y = beta} nearest
    the first y, pushed within that set onto the sphere ||y|| = 2*l_h when
    the set meets its inside: exactly the optimal dual when |S| = d_b, and
    the vertex's dual when the residual is zero.
    """
    E = H - G @ V.T
    norm = np.sqrt((E * E).sum(axis=1))[:, None]
    Y = np.divide(2.0 * l_h * E, norm, out=np.zeros_like(E), where=norm > 0.0)
    rows = np.arange(len(G))
    rest = G != 0.0
    first = rest.argmax(axis=1)
    rest[rows, first] = False
    D = np.where(rest[:, :, None], V.T[None, :, :] - V.T[first][:, None, :], 0.0)
    sc = np.sign(G) * C
    beta = np.where(rest, sc - sc[rows, first][:, None], 0.0)
    Dp = np.linalg.pinv(D)
    a = (Dp @ beta[:, :, None])[:, :, 0]  # the point of the set nearest 0
    off = Y - (Dp @ (D @ Y[:, :, None]))[:, :, 0]  # Y's offset from a within the set
    room = 4.0 * l_h * l_h - (a * a).sum(axis=1)
    reach = np.sqrt((off * off).sum(axis=1))
    push = (room > 0.0) & (reach > 0.0)
    off[push] *= (np.sqrt(room[push]) / reach[push])[:, None]
    lower = np.maximum(_dual_bounds(H, V, C, Y, l_h, tol),
                       _dual_bounds(H, V, C, a + off, l_h, tol))
    return _row_objectives(H, G, V, C, l_h) - lower


def solve_codings(H, V, config: LccConfig, G0=None):
    """Minimize the coding objective for every row of H over anchors V.

    Each row solves 2*l_h*||h - V g|| + sum_j c_j*|g_j| subject to
    sum(g) = 1, with c_j = l_q*||v_j - h||^q.  Returns (G, reasons): the
    (n, m) codings and one stop reason per row:

    - "hit": h is an anchor, and its one-hot coding (objective 0) is optimal.
    - "vertex": an optimal vertex of the zero-residual LP
      min sum_j c_j|g_j| s.t. V g = h, sum(g) = 1, found by the lockstep
      simplex of `_lp_vertices`, whose dual point also certifies the full
      objective to a weak-duality gap of at most config.coding_tol.
    - "gap": any other coding certified to a gap of at most
      config.coding_tol by a dual point: the last one of the active set,
      or one built from the coding's residual and support
      (`_certified_gaps`).
    - "cap": a coding that no dual point certified.

    A row the simplex does not certify (its LP dual leaves the ball
    ||y|| <= 2*l_h, as for points outside the anchors' hull, or it has a
    singular basis, hits the pivot cap or has m < d_b + 1) keeps its warm
    start when that certifies, and otherwise takes the exact coding of the
    active set (`_active_set_codings`), started at its LP vertex when the
    simplex reached one and else at its best single anchor.  A row of G0
    (each summing to 1) replaces its result wherever it scores lower, so
    no row ends above its warm start.
    """
    if len(H) <= _ROWS:
        return _solve_rows(H, V, config, G0)
    G = np.zeros((len(H), V.shape[1]))
    reasons = np.full(len(H), "cap", dtype="<U6")
    for lo in range(0, len(H), _ROWS):
        i = slice(lo, lo + _ROWS)
        G[i], reasons[i] = _solve_rows(H[i], V, config, None if G0 is None else G0[i])
    return G, reasons


def _solve_rows(H, V, config: LccConfig, G0):
    """`solve_codings` on one block of rows."""
    n = len(H)
    d_b, m = V.shape
    l_h, tol = config.l_h, config.coding_tol
    C, dist = _penalties(H, V, config.l_q, config.q)
    G = np.zeros((n, m))
    reasons = np.full(n, "cap", dtype="<U6")
    hit = np.logical_or.reduce(dist == 0.0, axis=1)
    rest = (~hit).nonzero()[0]

    def part(a):  # the open rows of a block array, the array itself while every row is open
        return a if rest.size == n else a[rest]

    if rest.size < n:
        G[hit, dist[hit].argmin(axis=1)] = 1.0
        reasons[hit] = "hit"
    if m > d_b and rest.size:
        h, c = part(H), part(C)
        Gv, Y, done = _lp_vertices(h, V, c, part(dist), None if G0 is None else part(G0))
        Gv = pin_row_sums(Gv)
        gaps = _row_objectives(h, Gv, V, c, l_h) - _dual_bounds(h, V, c, Y, l_h, tol)
        won = done & (gaps <= tol)
        reasons[rest[won]] = "vertex"
        G[rest[done]] = Gv[done]  # an uncertified vertex starts the active set
        rest = rest[~won]
    if G0 is not None and rest.size:  # a warm start that already certifies is kept
        won = _certified_gaps(part(H), part(G0), V, part(C), l_h, tol) <= tol
        G[rest[won]] = G0[rest[won]]
        reasons[rest[won]] = "gap"
        rest = rest[~won]
    if rest.size:
        h, c, start = part(H), part(C), G[rest]
        one = (~np.logical_or.reduce(start != 0.0, axis=1)).nonzero()[0]
        if one.size:  # no vertex: the best single anchor
            start[one, (2.0 * l_h * dist[rest[one]] + c[one]).argmin(axis=1)] = 1.0
        g, y = _active_set_codings(h, V, c, start, l_h)
        G[rest] = g = pin_row_sums(g)
        gaps = _row_objectives(h, g, V, c, l_h) - _dual_bounds(h, V, c, y, l_h, tol)
        open_ = (gaps > tol).nonzero()[0]
        if open_.size:
            gaps[open_] = _certified_gaps(h[open_], g[open_], V, c[open_], l_h, tol)
        reasons[rest[gaps <= tol]] = "gap"
    if G0 is not None:
        lower = _row_objectives(H, G0, V, C, l_h) < _row_objectives(H, G, V, C, l_h)
        # a warm start on another support is no longer that vertex
        moved = lower & np.logical_or.reduce((G0 != 0.0) != (G != 0.0), axis=1)
        G[lower] = G0[lower]
        reasons[moved & (reasons == "vertex")] = "gap"
    return G, reasons


def solve_coding(h, anchors: AnchorSet, config: LccConfig) -> Coding:
    """Minimize the coding objective for one point: `solve_codings` on one row.

    Solves 2*l_h*||h - V g|| + sum_j c_j*|g_j| subject to sum(g) = 1.  A
    point on an anchor gets that anchor's one-hot coding, the global optimum.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != anchors.d_b:
        raise ValueError(f"point has shape {h.shape}, anchors expect ({anchors.d_b},)")
    if not np.logical_and.reduce(np.isfinite(h)):
        raise ValueError("point must be finite")
    G, _ = solve_codings(h[None, :], anchors.anchors, config)
    return Coding(G[0])


def init_anchors(points, m: int, rng: Rng) -> np.ndarray:
    """k-means++ seeding: m of the points, as a (d_b, m) array."""
    H = _as_points(points)
    n = H.shape[0]
    if n < m:
        raise InsufficientDataError(f"{n} points cannot initialize {m} anchors")
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


def learn_anchors(points, config: LccConfig, seed: int):
    """Alternate coding solves and anchor updates until the objective settles.

    The anchors start at k-means++ seeds drawn from `Rng(seed)`.  Each outer
    iteration codes every point with `solve_codings`, warm started from the
    last iteration's codings, then updates the anchors with the codings
    frozen (`_update_anchors`).  Returns (AnchorSet, (n, m) array, reasons,
    objectives): the anchors, the codings of the n points for those
    anchors, one row each, each row's stop reason from `solve_codings`, and
    the list of objectives after each outer iteration.
    """
    H = _as_points(points)
    V = init_anchors(H, config.m, Rng(seed))
    G, obj_prev, objectives = None, None, []
    for _ in range(config.max_outer_iters):
        G, _ = solve_codings(H, V, config, G)
        V, obj = _update_anchors(H, G, V, config)
        objectives.append(obj)
        if obj_prev is not None and abs(obj - obj_prev) < config.anchor_tol * max(1.0, obj_prev):
            break
        obj_prev = obj
    G, reasons = solve_codings(H, V, config, G)
    return AnchorSet(V), check_codings(G), reasons, objectives


def _update_anchors(H, G, V, config: LccConfig):
    """Weighted least-squares anchor update with a backtracking guard.

    The reconstruction term is handled by freezing its inverse-residual
    weight at the current anchors; for q=3 one factor of ||v - h|| is frozen
    as well, leaving a quadratic whose normal equations couple anchors
    through the codings.  Backtracking keeps the true objective nonincreasing:
    the current anchors and each halving of the step are scored on the
    codings' support, found once, and a candidate scoring NaN or above the
    current objective is refused (a non-finite anchor scores NaN or inf).
    Returns (V, objective): the anchors and the objective at them.
    """
    l_h, l_q, q = config.l_h, config.l_q, config.q
    E = H - G @ V.T
    beta = l_h / np.sqrt(np.sum(E * E, axis=1) + _EPS_SMOOTH)  # (n,)
    W = l_q * np.abs(G)
    if q == 3:
        W = W * _penalties(H, V, l_q, q)[1]

    A = (G * beta[:, None]).T @ G + np.diag(W.sum(axis=0))
    B = (G * beta[:, None]).T @ H + W.T @ H
    A[np.diag_indices_from(A)] += 1e-10 * max(float(np.mean(np.diag(A))), 1e-30)
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        X = np.linalg.lstsq(A, B, rcond=None)[0]
    V_cand = X.T

    support = _support(H, G)
    f_cur = _support_objective(H, G, V, config, support)
    step = 1.0
    for _ in range(30):
        V_try = V + step * (V_cand - V)
        f_try = _support_objective(H, G, V_try, config, support)
        if f_try <= f_cur:
            return V_try, f_try
        step *= 0.5
    return V, f_cur
