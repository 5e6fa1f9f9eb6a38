"""Anchor learning and coding-solver tests.

The solver has a brute-force grid-search oracle on 2-anchor problems: with
two anchors the sum constraint leaves one free coordinate, so the objective
can be minimized by scanning gamma_1 over a fine grid.  Hand-evaluated
objective values below were derived independently of the implementation.
"""

import hashlib
import time

import numpy as np
import pytest

from lccgen.lcc.core import (
    AnchorSet,
    Coding,
    InsufficientDataError,
    LccConfig,
    check_codings,
    init_anchors,
    lcc_objective,
    learn_anchors,
    solve_coding,
    solve_codings,
)
from lccgen import cli
from lccgen.config import load_config
from lccgen.datasets import make_ring
from lccgen.lcc import core
from lccgen.neural.autoencoder import train_autoencoder
from lccgen.rng import Rng, stage_seed


def two_anchor_objective(g1, l_h, l_q, q):
    # objective on anchors (-1,0),(1,0) with h=(0,0), parameterized by gamma_1;
    # gamma_2 = 1 - gamma_1, r = (2*g1 - 1, 0) ... wait: g1*(-1) + (1-g1)*(1) = 1 - 2*g1
    rec = np.abs(1.0 - 2.0 * g1)
    return 2.0 * l_h * rec + l_q * (np.abs(g1) + np.abs(1.0 - g1))


SQUARE_ANCHORS = AnchorSet(np.array([[-1.0, 1.0], [0.0, 0.0]]))


def test_solve_coding_matches_grid_search_oracle():
    cfg = LccConfig(m=2, q=2, l_h=1.0, l_q=1.0)
    grid = np.arange(-1.0, 2.0 + 1e-12, 1e-4)
    objs = two_anchor_objective(grid, 1.0, 1.0, 2)
    oracle_obj = float(objs.min())
    assert abs(oracle_obj - 1.0) < 1e-12  # analytic minimum, attained on [0,1] midline

    coding = solve_coding(np.zeros(2), SQUARE_ANCHORS, cfg)
    got_obj = lcc_objective(np.zeros((1, 2)), coding.weights[None, :], SQUARE_ANCHORS, cfg)
    assert got_obj <= oracle_obj + 1e-3
    assert abs(coding.weights[0] - 0.5) <= 1e-3
    assert abs(coding.weights[1] - 0.5) <= 1e-3


def test_solve_coding_grid_oracle_random_two_anchor_problems():
    # same scan oracle on asymmetric 2-anchor 2-D instances; h is kept near
    # the anchor segment, the regime the solver serves (far-off h with a big
    # locality penalty is the documented degenerate-error regime instead)
    rng = Rng(404)
    grid = np.arange(-1.0, 2.0 + 1e-12, 1e-4)
    for q, l_q in ((2, 1.0), (3, 1e-4)):
        for _ in range(10):
            v = rng.normals(4).reshape(2, 2)
            h = 0.5 * (v[:, 0] + v[:, 1]) + 0.2 * rng.normals(2)
            cfg = LccConfig(m=2, q=q, l_h=1.0, l_q=l_q)
            anchors = AnchorSet(v.copy())
            # independent vectorized objective over the whole grid
            rec = h[None, :] - np.outer(grid, v[:, 0]) - np.outer(1.0 - grid, v[:, 1])
            pen = np.abs(grid) * np.linalg.norm(v[:, 0] - h) ** q
            pen = pen + np.abs(1.0 - grid) * np.linalg.norm(v[:, 1] - h) ** q
            objs = 2.0 * np.linalg.norm(rec, axis=1) + l_q * pen
            oracle = float(objs.min())
            coding = solve_coding(h, anchors, cfg)
            got = lcc_objective(h[None, :], coding.weights[None, :], anchors, cfg)
            assert got <= oracle + 1e-3


def test_solve_coding_single_anchor_is_forced():
    cfg = LccConfig(m=1)
    anchors = AnchorSet(np.array([[2.0], [3.0]]))
    coding = solve_coding(np.array([9.0, -1.0]), anchors, cfg)
    assert coding.weights.tolist() == [1.0]


def test_solve_coding_exact_anchor_hit_is_one_hot():
    rng = Rng(6)
    V = rng.normals(12).reshape(3, 4)
    anchors = AnchorSet(V)
    cfg = LccConfig(m=4)
    coding = solve_coding(V[:, 2].copy(), anchors, cfg)
    assert coding.weights.tolist() == [0.0, 0.0, 1.0, 0.0]
    # reconstruction is bitwise the anchor
    assert np.array_equal(anchors.anchors @ coding.weights, V[:, 2])
    obj = lcc_objective(V[:, 2][None, :], coding.weights[None, :], anchors, cfg)
    assert obj == 0.0


def test_solve_coding_sum_constraint_random_sweep():
    rng = Rng(2718)
    for q, l_q in ((2, 1.0), (3, 1e-4)):
        for _ in range(100):
            m = 2 + rng.randint(10)
            d_b = 2 + rng.randint(4)
            V = rng.normals(m * d_b).reshape(d_b, m)
            h = V[:, rng.randint(m)] + 0.3 * rng.normals(d_b)  # near the anchors
            cfg = LccConfig(m=m, q=q, l_q=l_q)
            coding = solve_coding(h, AnchorSet(V), cfg)
            assert abs(coding.weights.sum() - 1.0) <= 1e-9


def test_solve_coding_reads_m_off_the_anchors():
    # config.m sizes learn-lcc; the solver codes over the anchors it is given
    rng = Rng(88)
    anchors = AnchorSet(rng.normals(2 * 5).reshape(2, 5))
    for _ in range(20):
        h = 1.5 * rng.normals(2)
        want = solve_coding(h, anchors, LccConfig(m=5)).weights
        assert solve_coding(h, anchors, LccConfig(m=6)).weights.tobytes() == want.tobytes()


def test_solve_coding_never_worse_than_warm_start():
    rng = Rng(515)
    for _ in range(50):
        m = 3 + rng.randint(6)
        V = rng.normals(2 * m).reshape(2, m)
        h = V[:, rng.randint(m)] + 0.3 * rng.normals(2)
        g0 = np.full(m, 1.0 / m) + 0.1 * rng.normals(m)
        g0[0] += 1.0 - g0.sum()  # keep the warm start feasible
        cfg = LccConfig(m=m, q=2, l_q=1.0)
        anchors = AnchorSet(V)
        G, _ = solve_codings(h[None], V, cfg, g0[None])
        start = lcc_objective(h[None, :], g0[None, :], anchors, cfg)
        end = lcc_objective(h[None, :], G, anchors, cfg)
        assert end <= start + 1e-12


def _ring_anchors():
    theta = 2.0 * np.pi * np.arange(16) / 16
    return AnchorSet(np.stack([np.cos(theta), np.sin(theta)]))


def _dual_lower_bound(h, V, c, l_h):
    """Weak-duality lower bound on min 2*l_h*||h - V g|| + sum_j c_j |g_j|
    over sum(g) = 1, for 2-D points.

    For any y with ||y|| <= 2*l_h and lam with |v_j'y + lam| <= c_j, every
    feasible g has objective >= y'h - y'V g + sum_j c_j |g_j|
    >= y'h + lam + sum_j (c_j |g_j| - (v_j'y + lam) g_j) >= y'h + lam.  For
    fixed y the best lam is min_j (c_j - v_j'y), feasible when it is at
    least max_j (-c_j - v_j'y).  This dual is concave and piecewise linear
    in y, so its maximum over the disk lies where two of its lines cross
    (the lines where two pieces of lam meet, and the feasibility edges), where
    one crosses the circle, or at a piece's own maximum on the circle.  Every
    such point is checked for feasibility before its value counts, so the
    result is a bound however the candidates were found.  (A zoomed grid
    stalls on the dual's ridges, up to 1e-4 below the maximum.)  A
    duplicate anchor repeats its constraint, so each anchor is kept once,
    and no line is the zero line of two equal anchors.
    """
    keep = np.sort(np.unique(V, axis=1, return_index=True)[1])
    V, c = V[:, keep], c[keep]
    radius = 2.0 * l_h
    m = V.shape[1]
    i, j = np.triu_indices(m, 1)
    p, q = np.nonzero(~np.eye(m, dtype=bool))
    A = np.concatenate([(V[:, j] - V[:, i]).T, (V[:, p] - V[:, q]).T])  # lines a'y = b
    b = np.concatenate([c[j] - c[i], c[p] + c[q]])
    near = b * b <= radius * radius * np.sum(A * A, axis=1)  # lines that cross the disk
    A, b = A[near], b[near]
    u, w = np.triu_indices(len(b), 1)
    det = A[u, 0] * A[w, 1] - A[u, 1] * A[w, 0]
    keep = np.abs(det) > 1e-12
    u, w, det = u[keep], w[keep], det[keep]
    crossings = np.stack([(b[u] * A[w, 1] - b[w] * A[u, 1]) / det,
                          (A[u, 0] * b[w] - A[w, 0] * b[u]) / det], axis=1)
    aa = np.sum(A * A, axis=1)
    foot = A * (b / aa)[:, None]
    along = np.stack([-A[:, 1], A[:, 0]], axis=1)
    along *= np.sqrt((radius * radius - b * b / aa) / aa)[:, None]
    toward = (h[:, None] - V).T
    tops = radius * toward / np.linalg.norm(toward, axis=1)[:, None]
    Y = np.concatenate([crossings, foot + along, foot - along, tops])
    best = -np.inf
    # each shrink pulls rounding back inside
    for shrink in (1.0, 1.0 - 1e-12, 1.0 - 1e-11, 1.0 - 1e-10, 1.0 - 1e-9):
        Ys = shrink * Y
        VY = Ys @ V
        lam = np.min(c - VY, axis=1)
        ok = (np.sum(Ys * Ys, axis=1) <= radius * radius) & (lam >= np.max(-c - VY, axis=1))
        if np.any(ok):
            best = max(best, float(np.max(Ys[ok] @ h + lam[ok])))
    return best


def test_solve_coding_meets_the_dual_bound_on_the_ring():
    # an oracle independent of the solver: the coding objective may exceed
    # the weak-duality lower bound by at most the solver's tolerance
    anchors = _ring_anchors()
    V = anchors.anchors
    cfg = LccConfig(m=16)  # q=2, l_h = l_q = 1
    pts = make_ring(60, radius=1.0, noise_sigma=0.01, seed=11)
    gaps = []
    for h in pts:
        coding = solve_coding(h, anchors, cfg)
        got = lcc_objective(h[None, :], coding.weights[None, :], anchors, cfg)
        c = cfg.l_q * np.sum((V - h[:, None]) ** 2, axis=0)
        gaps.append(got - _dual_lower_bound(h, V, c, cfg.l_h))
    assert min(gaps) >= -1e-9  # the bound is a bound
    assert max(gaps) <= 1e-5, f"objective exceeds the dual bound by up to {max(gaps):.3g}"


def test_solve_coding_zeroes_the_smoothed_weights_of_far_points():
    # off the ring the optimum is sparse (mostly one-hot) with a nonzero
    # residual; a weight left at ~1e-10 on the other anchors would cost up
    # to 2e-7 of objective here, so only exact zeros meet 1e-9
    anchors = _ring_anchors()
    V = anchors.anchors
    rng = Rng(8)
    pts = [2.5 * np.asarray(rng.normals(2)) for _ in range(30)]
    for q in (2, 3):
        cfg = LccConfig(m=16, q=q)
        for h in pts:
            coding = solve_coding(h, anchors, cfg)
            got = lcc_objective(h[None, :], coding.weights[None, :], anchors, cfg)
            c = cfg.l_q * np.sqrt(np.sum((V - h[:, None]) ** 2, axis=0)) ** q
            assert got - _dual_lower_bound(h, V, c, cfg.l_h) <= 1e-9


def test_solve_coding_small_penalties_stay_near_the_dual_bound():
    # penalties far below the residual term make the objective nearly flat
    # along the null space of [V; 1'], where a step sized by curvature can
    # overshoot by orders of magnitude
    for scale, l_q, q in ((1.0, 1e-10, 2), (1e-3, 1.0, 3)):
        rng = Rng(5)
        for _ in range(30):
            m = 4 + int(rng.uniform() * 13)
            V = scale * np.asarray(rng.normals(2 * m)).reshape(2, m)
            h = scale * np.asarray(rng.normals(2))
            anchors = AnchorSet(V)
            cfg = LccConfig(m=m, q=q, l_q=l_q)
            coding = solve_coding(h, anchors, cfg)
            got = lcc_objective(h[None, :], coding.weights[None, :], anchors, cfg)
            c = l_q * np.sqrt(np.sum((V - h[:, None]) ** 2, axis=0)) ** q
            bound = _dual_lower_bound(h, V, c, cfg.l_h)
            assert got - bound <= 1e-2 * bound


def test_solve_coding_keeps_a_warm_start_that_is_already_optimal():
    # a solve ends within rounding of the optimum, and a warm start nearer
    # than its certificate's 1e-9 must come back no worse (to 1e-12)
    cfg2 = LccConfig(m=2, q=2, l_h=1.0, l_q=1.0)
    for x in np.linspace(-0.9, 0.9, 7):
        # h on the segment between the anchors: exact reconstruction with
        # g = ((1 - x)/2, (1 + x)/2) is optimal, with objective 1 - x^2
        h = np.array([x, 0.0])
        g0 = np.array([(1.0 - x) / 2.0 + 1e-11, (1.0 + x) / 2.0 - 1e-11])
        start = lcc_objective(h[None, :], g0[None, :], SQUARE_ANCHORS, cfg2)
        assert abs(start - (1.0 - x * x)) <= 1e-10
        G, _ = solve_codings(h[None], SQUARE_ANCHORS.anchors, cfg2, g0[None])
        end = lcc_objective(h[None, :], G, SQUARE_ANCHORS, cfg2)
        assert end <= start + 1e-12
    anchors = _ring_anchors()
    cfg = LccConfig(m=16)
    for h in make_ring(20, radius=1.0, noise_sigma=0.01, seed=5):
        g0 = solve_coding(h, anchors, cfg).weights
        start = lcc_objective(h[None, :], g0[None, :], anchors, cfg)
        G, _ = solve_codings(h[None], anchors.anchors, cfg, g0[None])
        end = lcc_objective(h[None, :], G, anchors, cfg)
        assert end <= start + 1e-12


def test_solve_coding_recovers_from_mid_iteration_collapse():
    # a one-hot warm start on the symmetric instance soft-thresholds both
    # coordinates to zero in the first sweep; the solver must still return
    # the constrained optimum instead of failing
    cfg = LccConfig(m=2, q=2, l_h=1.0, l_q=1.0)
    G, _ = solve_codings(np.zeros((1, 2)), SQUARE_ANCHORS.anchors, cfg, np.array([[1.0, 0.0]]))
    assert np.allclose(G[0], [0.5, 0.5], atol=1e-6)


# --- the batched solver: certificates against the dual enumerator ---


def _ring_points():
    """Noisy ring points around the 16-anchor polygon, whose edges sit at
    0.98 from the center: on the unit ring, about half inside it, and just
    outside it at radii 1.05 and 1.2."""
    return np.concatenate([make_ring(40, radius=r, noise_sigma=0.01, seed=11)
                           for r in (1.0, 1.05, 1.2)])


def _row_objective(h, g, anchors, cfg):
    return lcc_objective(h[None, :], g[None, :], anchors, cfg)


def test_solve_codings_certified_rows_meet_the_dual_bound():
    # LP vertices inside the polygon, residual codings outside it: every row
    # that claims a certificate is within coding_tol of the exact dual
    anchors = _ring_anchors()
    V = anchors.anchors
    H = _ring_points()
    for q in (2, 3):
        cfg = LccConfig(m=16, q=q)
        G, reasons = solve_codings(H, V, cfg)
        assert {"vertex", "gap"} <= set(reasons), f"both paths should run, got {set(reasons)}"
        for h, g, why in zip(H, G, reasons):
            if why not in ("vertex", "gap"):
                continue
            c = cfg.l_q * np.sqrt(np.sum((V - h[:, None]) ** 2, axis=0)) ** q
            gap = _row_objective(h, g, anchors, cfg) - _dual_lower_bound(h, V, c, cfg.l_h)
            assert -1e-9 <= gap <= cfg.coding_tol, f"{why} row is {gap:.3g} above the bound"


def test_solve_codings_rows_agree_with_one_row_solves():
    anchors = _ring_anchors()
    V = anchors.anchors
    H = _ring_points()
    cfg = LccConfig(m=16)
    G, reasons = solve_codings(H, V, cfg)
    # warm starts from other rows' codings: valid, but far from optimal
    G0 = np.roll(G, 7, axis=0)
    Gw, warm_reasons = solve_codings(H, V, cfg, G0)
    assert set(reasons) | set(warm_reasons) <= {"vertex", "gap"}
    for h, g, gw, g0 in zip(H, G, Gw, G0):
        cold = _row_objective(h, solve_coding(h, anchors, cfg).weights, anchors, cfg)
        warm = _row_objective(h, solve_codings(h[None], V, cfg, g0[None])[0][0], anchors, cfg)
        assert abs(_row_objective(h, g, anchors, cfg) - cold) <= cfg.coding_tol
        assert abs(_row_objective(h, gw, anchors, cfg) - warm) <= cfg.coding_tol


def test_points_outside_the_hull_take_closed_form_codings():
    # off the polygon the optimum carries a residual on one or two anchors,
    # the closed-form optimum of an active-set face: every such row is
    # certified ("gap", never "cap") and meets the exact dual bound
    anchors = _ring_anchors()
    V = anchors.anchors
    radii = (1.02, 1.5, 3.0)
    H = np.concatenate([make_ring(40, radius=r, noise_sigma=0.01, seed=11) for r in radii])
    for q in (2, 3):
        cfg = LccConfig(m=16, q=q)
        G, reasons = solve_codings(H, V, cfg)
        assert set(reasons) <= {"vertex", "gap"}
        assert set(reasons[40:]) == {"gap"}, "rows at radii 1.5 and 3 lie outside the hull"
        for h, g in zip(H[reasons == "gap"], G[reasons == "gap"]):
            c = cfg.l_q * np.sqrt(np.sum((V - h[:, None]) ** 2, axis=0)) ** q
            gap = _row_objective(h, g, anchors, cfg) - _dual_lower_bound(h, V, c, cfg.l_h)
            assert -1e-9 <= gap <= cfg.coding_tol, f"gap row is {gap:.3g} above the bound"


def test_rows_next_to_an_anchor_keep_their_vertex_certificates():
    # h within 1e-7 or 1e-6 of anchor 0 gives it a c_0 below the rounding in
    # v_0'y + lam, which must not scale the vertex's valid dual point away
    anchors = _ring_anchors()
    V = anchors.anchors
    a = 2.0 * np.pi * np.arange(12) / 12
    for q in (2, 3):
        cfg = LccConfig(m=16, q=q)
        for r in (1e-7, 1e-6):
            H = V[:, 0] + r * np.stack([np.cos(a), np.sin(a)], axis=1)
            G, reasons = solve_codings(H, V, cfg)
            assert set(reasons) == {"vertex"}, (q, r, reasons)
            for h, g in zip(H, G):
                c = cfg.l_q * np.sqrt(np.sum((V - h[:, None]) ** 2, axis=0)) ** q
                gap = _row_objective(h, g, anchors, cfg) - _dual_lower_bound(h, V, c, cfg.l_h)
                assert -1e-9 <= gap <= cfg.coding_tol


def test_large_objectives_keep_their_certificates_when_scaled_by_rounding():
    # one anchor forces g = (1); its exact dual y = 2*l_h*e/||e|| is scaled
    # by about 1 - 1e-9 through the rounding in v'y + lam, which on an
    # objective of 60 or more costs the bound more than coding_tol
    V = np.array([[1.0], [2.0]])
    a = 0.3 + 2.0 * np.pi * np.arange(5) / 5
    cfg = LccConfig(m=1, q=3, l_q=9.2e-8, l_h=8.07)
    for r in (1.0, 3.7, 10.0):
        H = V[:, 0] + r * np.stack([np.cos(a), np.sin(a)], axis=1)
        G, reasons = solve_codings(H, V, cfg)
        assert np.all(G == 1.0)
        assert "cap" not in reasons, (r, reasons)


@pytest.mark.parametrize("d_b, m", [(3, 16), (5, 64)])
def test_residual_rows_above_two_dimensions_meet_their_dual_bound(d_b, m, monkeypatch):
    # Gaussian points on k-means++ anchors: many optima carry a residual on
    # 2 to d_b anchors, which only the active set reaches.  Each such row is
    # checked against the bound of y = 2*l_h*e/||e||, exactly the optimal
    # dual at a residual optimum, with its best lam and scaled to feasibility
    active = _counting(monkeypatch, "_active_set_codings")
    H = np.asarray(Rng(d_b).normals(300 * d_b)).reshape(300, d_b)
    V = init_anchors(H, m, Rng(d_b))
    for q in (2, 3):
        active.clear()
        cfg = LccConfig(m=m, q=q)
        G, reasons = solve_codings(H, V, cfg)
        assert "cap" not in reasons
        assert active and active[0] > 50
        E = H - G @ V.T
        norm = np.sqrt(np.sum(E * E, axis=1))
        res = norm > 1e-9
        Y = 2.0 * cfg.l_h * E[res] / norm[res, None]
        c = cfg.l_q * np.sqrt(np.sum((H[res][:, None, :] - V.T[None]) ** 2, axis=2)) ** q
        P = Y @ V
        lam = np.min(c - P, axis=1)
        t = np.minimum(1.0, np.min(c / np.abs(P + lam[:, None]), axis=1))
        bound = t * (np.sum(Y * H[res], axis=1) + lam)
        obj = 2.0 * cfg.l_h * norm[res] + np.sum(np.abs(G[res]) * c, axis=1)
        assert res.sum() > 100
        assert np.all(obj - bound <= cfg.coding_tol), f"up to {np.max(obj - bound):.3g} above"


# (V, H) sets on which no LP vertex certifies, so the rows take the active set
DEGENERATE = {
    # collinear anchors: every basis [V_B; 1'] is singular
    "collinear": (np.array([[-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0]]),
                  np.array([[0.2, 0.0], [0.3, 0.1], [-2.0, 0.05]])),
    # two anchors at one point, the nearest pair for every row
    "duplicate": (np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
                  np.array([[0.1, 0.1], [0.05, 0.02], [0.4, 0.3]])),
    # m = 2 < d_b + 1 = 4: no vertex has d_b + 1 anchors
    "m<d_b+1": (np.array([[1.0, -1.0], [0.5, 0.0], [0.0, 2.0]]),
                np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.2, 0.1, 0.4]])),
}


@pytest.mark.parametrize("V, H", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_solve_codings_degenerate_inputs_take_the_active_set(V, H):
    cfg = LccConfig(m=V.shape[1])
    G, reasons = solve_codings(H, V, cfg)
    check_codings(G)
    assert set(reasons) <= {"gap", "cap"}
    assert "cap" not in reasons
    anchors = AnchorSet(V)
    for h, g in zip(H, G):  # no worse than the uniform start
        uniform = np.full(V.shape[1], 1.0 / V.shape[1])
        assert _row_objective(h, g, anchors, cfg) <= _row_objective(h, uniform, anchors, cfg)


def _per_row_active_set(H, V, C, G0, l_h):
    """The active set one row at a time, as it was before its rows were
    stepped together, started on each row's support of G0."""
    two_lh = 2.0 * l_h
    G = np.zeros((len(H), V.shape[1]))
    Y = np.zeros(H.shape)
    for i, (h, c) in enumerate(zip(H, C)):
        S = [int(j) for j in np.flatnonzero(G0[i])]
        g = G0[i, S]
        s = np.sign(g)
        y = Y[i]
        for _ in range(core._MAX_STEPS):
            A = V[:, S[1:]] - V[:, S[:1]]
            U, sv, Wt = np.linalg.svd(A)
            step = np.inf
            if len(S) - 1 > (sv > 1e-12 * sv[:1]).sum():  # the entering weight pivots
                d = np.concatenate([[-Wt[-1].sum()], Wt[-1]]) * (s[-1] / Wt[-1, -1])
            else:
                e0 = h - V[:, S[0]]
                Ap = Wt.T @ ((1.0 / sv)[:, None] * U[:, :len(sv)].T)  # pinv(A)
                sc = s * c[S]
                p = Ap.T @ (sc[1:] - sc[0]) / two_lh
                room = 1.0 - p @ p
                if room > 0.0:
                    off = e0 - A @ (Ap @ e0)
                    t = Ap @ (e0 - np.sqrt(off @ off / room) * p)
                    d = np.concatenate([[1.0 - t.sum()], t]) - g
                    step = 1.0
                else:
                    t = -(Ap @ p)
                    d = np.concatenate([[-t.sum()], t])
            toward = -s * d
            ratio = np.divide(s * g, toward, out=np.full(len(S), np.inf),
                              where=toward > 1e-12 * np.abs(d).max())
            q = ratio.argmin()
            if ratio[q] < step:
                g = np.delete(g + ratio[q] * d, q)
                s = np.delete(s, q)
                del S[q]
                continue
            if step == np.inf:
                break
            g = g + d
            e = h - V[:, S] @ g
            norm = np.sqrt(e @ e)
            y = two_lh * (e / norm if norm > 1e-12 * max(1.0, np.sqrt(h @ h)) else p)
            D = V - V[:, S[:1]]
            P = y @ D + sc[0]
            viol = np.abs(P) - (1.0 + 1e-12) * c - 1e-13 * np.sqrt((y @ y) * (D * D).sum(axis=0))
            viol[S] = -np.inf
            j = int(viol.argmax())
            if viol[j] <= 0.0:
                break
            S.append(j)
            s = np.append(s, np.sign(P[j]))
            g = np.append(g, 0.0)
        G[i, S] = g
        Y[i] = y
    return G, Y


def _active_set_starts(H, V, cfg):
    """(C, starts): the penalties and the two starts solve_codings gives the
    active set, each row's LP vertex where the simplex reaches one and
    otherwise its best single anchor, and that anchor alone for every row."""
    C, dist = core._penalties(H, V, cfg.l_q, cfg.q)
    single = np.zeros(C.shape)
    single[np.arange(len(H)), (2.0 * cfg.l_h * dist + C).argmin(axis=1)] = 1.0
    vertex = single.copy()
    if V.shape[1] > V.shape[0]:
        Gv, _, done = core._lp_vertices(H, V, C, dist, None)
        vertex[done] = core.pin_row_sums(Gv)[done]
    return C, (single, vertex)


def _gaussian_sets():
    for d_b, m in ((3, 16), (5, 64)):
        H = np.asarray(Rng(d_b).normals(150 * d_b)).reshape(150, d_b)
        yield init_anchors(H, m, Rng(d_b)), H


# collinear anchors beside one off the line: in one step, rows on faces of
# the same size meet both full-rank and rank-deficient faces
MIXED_RANK = (np.array([[-1.0, -0.5, 0.0, 0.5, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]),
              np.array([[0.2, 0.0], [0.3, 0.1], [-2.0, 0.05], [0.1, 0.5], [2.0, 2.0],
                        [-0.7, -0.3]]))


@pytest.mark.parametrize("V, H, exact", [(V, H, False) for V, H in _gaussian_sets()]
                         + [(V, H, True) for V, H in [*DEGENERATE.values(), MIXED_RANK]],
                         ids=["gauss3", "gauss5", *DEGENERATE.keys(), "mixed-rank"])
def test_stepped_active_set_matches_the_per_row_one(V, H, exact):
    # rows stepped together take the steps they would take alone: the
    # same support and objective from the same start, bit for bit where
    # the degenerate sets pin it
    for q in (2, 3):
        cfg = LccConfig(m=V.shape[1], q=q)
        C, starts = _active_set_starts(H, V, cfg)
        for G0 in starts:
            G, Y = core._active_set_codings(H, V, C, G0, cfg.l_h)
            Go, Yo = _per_row_active_set(H, V, C, G0, cfg.l_h)
            assert np.array_equal(G != 0.0, Go != 0.0)
            obj = core._row_objectives(H, G, V, C, cfg.l_h)
            want = core._row_objectives(H, Go, V, C, cfg.l_h)
            assert np.all(np.abs(obj - want) <= 1e-14 * np.maximum(1.0, want))
            if exact:
                assert G.tobytes() == Go.tobytes() and Y.tobytes() == Yo.tobytes()


# sha256 of the solve_coding weights over the ring set of _pinned_encodes(),
# one call per point, taken when its rows outside the hull moved from a
# closed-form face step to the active set, which had replaced a smoothed
# Newton fallback
ONE_ROW_RING_SHA256 = {
    2: "9773793c9994baa15d5472782255833eaeccd2b4979a7c5702d08f40c3c50aa1",
    3: "c7b64090e82a8f19c6877bdd84b8b867fa6dc53ecf99b8a29a6098b8e37d82a4",
}
# and over its degenerate sets, taken when the active set replaced that fallback
ONE_ROW_DEGENERATE_SHA256 = {
    2: "69cb3fc468a62c9ab079b57294231479b046e0b61cfbdc23e5a49a2d8e6cbbd3",
    3: "ee7b177fc2f98fed49bd8e12bf1ed217f1d03b9fc0322133d864828d3326a7fe",
}


def _pinned_encodes():
    """(V, H) sets that reach every path: anchor hits and LP vertices on and
    inside the ring, the active set from an LP vertex outside it (radius
    1.02 to 3) and from a single anchor on the degenerate sets."""
    V = _ring_anchors().anchors
    H = np.concatenate([V[:, [0, 5, 11]].T] + [make_ring(12, radius=r, noise_sigma=0.01, seed=3)
                                              for r in (0.9, 1.0, 1.02, 1.5, 3.0)])
    return [(V, H), *DEGENERATE.values()]


def _counting(monkeypatch, name):
    """Wraps core.<name> to record the rows of each call; returns the record."""
    calls = []
    fn = getattr(core, name)

    def counted(*args):
        calls.append(len(args[0]))
        return fn(*args)

    monkeypatch.setattr(core, name, counted)
    return calls


@pytest.mark.parametrize("q", [2, 3])
def test_one_row_encodes_match_pinned_bytes(q, monkeypatch):
    active = _counting(monkeypatch, "_active_set_codings")
    ring, *degenerate = _pinned_encodes()
    digests = []
    reasons = set()
    for sets in ([ring], degenerate):
        digest = hashlib.sha256()
        for V, H in sets:
            cfg = LccConfig(m=V.shape[1], q=q)
            for h in H:
                digest.update(solve_coding(h, AnchorSet(V), cfg).weights.tobytes())
            reasons |= set(solve_codings(H, V, cfg)[1])
        digests.append(digest.hexdigest())
    assert {"hit", "vertex", "gap"} <= reasons
    assert active, "the residual path should run"
    assert digests == [ONE_ROW_RING_SHA256[q], ONE_ROW_DEGENERATE_SHA256[q]]


def test_lp_passes_stop_with_the_last_row(monkeypatch):
    # count the stacked factorizations instead of timing them: a block
    # optimal at its first basis takes one pass, and no pass runs on zero rows
    stacks = []
    for name in ("inv", "det"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, fn=fn, name=name: stacks.append((name, len(a))) or fn(a))
    V = _ring_anchors().anchors
    # the centroid of three neighbouring anchors lies in their triangle,
    # the first basis of the simplex
    centroids = ((V[:, :-2] + V[:, 1:-1] + V[:, 2:]) / 3.0).T
    for q in (2, 3):
        stacks.clear()
        _, reasons = solve_codings(centroids, V, LccConfig(m=16, q=q))
        assert set(reasons) == {"vertex"}
        assert stacks == [("det", len(centroids)), ("inv", len(centroids))]
    stacks.clear()
    cfg = LccConfig(m=16)
    for h in np.concatenate([centroids, _ring_points()]):
        solve_coding(h, AnchorSet(V), cfg)
    assert stacks.count(("inv", 1)) > len(centroids) + len(_ring_points()), \
        "some rows should pivot"
    assert {n for _, n in stacks} == {1}


def test_one_row_calls_match_the_batched_rows():
    # a row's stop reason does not depend on its block; hit and vertex
    # rows come out bit for bit, and gap rows, whose stacked LAPACK calls
    # differ in shape, to within rounding
    V = _ring_anchors().anchors
    cases = [(V, _ring_points(), q) for q in (2, 3)]
    rng = Rng(2249)
    for _ in range(20):
        d_b = 2 + rng.randint(3)
        m = d_b + 1 + rng.randint(9)
        V = np.asarray(rng.normals(d_b * m)).reshape(d_b, m)
        H = np.asarray(rng.normals(30 * d_b)).reshape(30, d_b)
        H[:3] = V[:, :3].T
        cases.append((V, H, 2 + rng.randint(2)))
    # three collinear anchors: a block's rows near the axis start on a
    # singular basis and leave the simplex while the others keep pivoting
    rng = Rng(9)
    V = np.hstack([[[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 2.0 * rng.normals(2 * 4).reshape(2, 4)])
    near = np.stack([np.linspace(-0.8, 0.8, 8), 0.01 * rng.normals(8)], axis=1)
    H = np.concatenate([near, rng.normals(2 * 15).reshape(15, 2)])
    cases += [(V, H, q) for q in (2, 3)]
    seen = set()
    for V, H, q in cases:
        anchors, cfg = AnchorSet(V), LccConfig(m=V.shape[1], q=q)
        G, reasons = solve_codings(H, V, cfg)
        seen |= set(reasons)
        for h, g, why in zip(H, G, reasons):
            g1, why1 = solve_codings(h[None], V, cfg)
            assert why1[0] == why
            if why in ("hit", "vertex"):
                assert g1[0].tobytes() == g.tobytes()
            else:
                obj = _row_objective(h, g, anchors, cfg)
                assert _row_objective(h, g1[0], anchors, cfg) == pytest.approx(obj, rel=1e-12)
    assert {"hit", "vertex", "gap"} <= seen


def test_learn_anchors_codings_are_certified_on_the_default_ring():
    pts = make_ring(2000, radius=1.0, noise_sigma=0.01, seed=7)
    cfg = LccConfig(m=16, max_outer_iters=4)
    anchors, G, reasons, _ = learn_anchors(pts, cfg, 7)
    V = anchors.anchors
    assert set(reasons) <= {"hit", "vertex", "gap"}
    on_anchor = np.any(np.all(pts[:, :, None] == V[None, :, :], axis=1), axis=1)
    assert np.array_equal(reasons == "hit", on_anchor)
    # they are the codings of the returned anchors: a cold solve is no better
    cold, _ = solve_codings(pts, V, cfg)
    for h, g, g_cold in zip(pts, G, cold):
        assert _row_objective(h, g, anchors, cfg) <= _row_objective(h, g_cold, anchors, cfg) + cfg.coding_tol


def _reference_penalties(H, V, l_q, q):
    # built from the whole (n, m, d_b) difference array
    diff = H[:, None, :] - V.T[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return l_q * dist**q, dist


def _reference_objective(H, G, V, config):
    """The objective over the whole (n, m) penalty array, zero weights included."""
    C, _ = _reference_penalties(H, V, config.l_q, config.q)
    E = H - G @ V.T
    rec = np.sqrt(np.sum(E * E, axis=1))
    return float(np.sum(2.0 * config.l_h * rec) + np.sum(np.abs(G) * C))


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("n", [1, 513, 2000])
@pytest.mark.parametrize("d_b", [1, 2, 3, 5, 9])
def test_penalties_match_the_difference_array_bit_for_bit(d_b, n, m):
    rng = Rng(100 * d_b + n + m)
    # coordinates of different sizes, so the order of the sum shows
    H = np.asarray(rng.normals(n * d_b)).reshape(n, d_b) * np.geomspace(1e-3, 1e3, d_b)
    V = np.asarray(rng.normals(d_b * m)).reshape(d_b, m)
    H[0] = V[:, 0]  # a hit, at distance exactly 0
    G = np.asarray(rng.normals(n * m)).reshape(n, m)
    G[:, 0] += 1.0 - G.sum(axis=1)
    # with one anchor numpy sums the difference array along its contiguous
    # coordinate axis, pairwise once there are more than 8 coordinates;
    # everywhere else it adds them left to right, as _penalties does
    exact = m > 1 or d_b <= 8
    for q in (2, 3):
        config = LccConfig(m=m, q=q, l_h=0.8, l_q=1.3)
        got = core._penalties(H, V, config.l_q, q)
        want = _reference_penalties(H, V, config.l_q, q)
        assert got[1][0, 0] == 0.0
        for a, b in zip(got, want):
            if exact:
                assert np.array_equal(a, b)
            else:
                np.testing.assert_array_max_ulp(a, b, maxulp=8)
        obj = lcc_objective(H, G, AnchorSet(V), config)
        ref = _reference_objective(H, G, V, config)
        assert obj == ref if exact else obj == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("width", range(13))
def test_row_sums_match_numpy_bit_for_bit(width, dtype):
    rng = np.random.default_rng(width)
    n = 300
    # magnitudes around e^-40 to e^40, so the order of the sums shows
    a = rng.standard_normal((n, width)) * np.exp(rng.uniform(-40.0, 40.0, (n, width)))
    a = a.astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 5 * tiny, -3 * tiny],
                        dtype)
    a[:100] = rng.choice(specials, (100, width))
    a[100:110] = -0.0  # numpy sums a row of -0 to +0
    a[110:120] = rng.choice(specials[5:], (10, width))  # subnormals only
    a[120:130, :1] = np.inf
    a[130:140, -1:] = np.nan
    wide = np.zeros((2 * n, 3 * width), dtype)
    wide[::2, ::3] = a
    for x in (a, np.asfortranarray(a), wide[::2, ::3]):
        with np.errstate(invalid="ignore"):  # inf - inf, in both
            got, want = core.row_sums(x), np.add.reduce(x, axis=1)
        assert got.dtype == want.dtype == dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[100:110]).any()


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("d_b", [1, 2, 3, 5, 9])
def test_support_objective_matches_the_full_array_bit_for_bit(d_b, q):
    rng = np.random.default_rng(10 * d_b + q)
    n, m = 300, d_b + 4
    # coordinates of different sizes, so the order of the sums shows
    H = rng.standard_normal((n, d_b)) * np.geomspace(1e-3, 1e3, d_b)
    V = rng.standard_normal((d_b, m))
    H[0] = V[:, 0]  # a hit, at distance exactly 0
    G = np.zeros((n, m))
    for i in range(n):  # 1 to d_b + 1 nonzero weights, summing to 1
        cols = rng.choice(m, size=i % (d_b + 1) + 1, replace=False)
        G[i, cols] = rng.standard_normal(cols.size)
        G[i, cols[0]] += 1.0 - G[i].sum()
    assert (G < 0.0).any() and (G != 0.0).sum(axis=1).max() == d_b + 1
    config = LccConfig(q=q, l_h=0.8, l_q=1.3)
    support = core._support(H, G)
    step = rng.standard_normal(V.shape)
    for V_try in (V, V + 1e-9 * step, V + step, V + 1e3 * step, 1e6 * step):
        want = _reference_objective(H, G, V_try, config)
        assert core._support_objective(H, G, V_try, config, support) == want
        assert lcc_objective(H, G, AnchorSet(V_try), config) == want
    # a non-finite anchor, used or not, scores NaN or inf, which
    # _update_anchors refuses against a finite objective
    G = np.hstack([G, np.zeros((n, 1))])
    support = core._support(H, G)
    assert G[:, 0].any()
    for j in (0, m):
        for bad in (np.inf, np.nan):
            V_try = np.hstack([V, np.zeros((d_b, 1))])
            V_try[-1, j] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                assert not np.isfinite(core._support_objective(H, G, V_try, config, support))


def _full_array_update(H, G, V, config):
    """`_update_anchors` with every candidate scored by
    `_reference_objective`; returns (V, objective, candidates scored)."""
    l_h, l_q, q = config.l_h, config.l_q, config.q
    E = H - G @ V.T
    beta = l_h / np.sqrt(np.sum(E * E, axis=1) + core._EPS_SMOOTH)
    W = l_q * np.abs(G)
    if q == 3:
        W = W * core._penalties(H, V, l_q, q)[1]
    A = (G * beta[:, None]).T @ G + np.diag(W.sum(axis=0))
    B = (G * beta[:, None]).T @ H + W.T @ H
    A[np.diag_indices_from(A)] += 1e-10 * max(float(np.mean(np.diag(A))), 1e-30)
    V_cand = np.linalg.solve(A, B).T
    f_cur = _reference_objective(H, G, V, config)
    step = 1.0
    for k in range(30):
        V_try = V + step * (V_cand - V)
        f_try = _reference_objective(H, G, V_try, config)
        if f_try <= f_cur:
            return V_try, f_try, k + 2
        step *= 0.5
    return V, f_cur, 31


def _update_matches_the_full_array_loop(H, G, V, config):
    want_V, want_f, scored = _full_array_update(H, G, V, config)
    got_V, got_f = core._update_anchors(H, G, V, config)
    assert got_V.tobytes() == want_V.tobytes() and got_f == want_f
    return scored, got_V


@pytest.mark.parametrize("q", [2, 3])
def test_update_anchors_matches_the_full_array_loop_where_a_halving_is_taken(q):
    H = 2.0 * np.random.default_rng(0).standard_normal((40, 2))
    config = LccConfig(m=5, q=q, l_h=10.0, l_q=0.01)
    V = init_anchors(H, 5, Rng(0))
    G, _ = solve_codings(H, V, config)
    scored, got_V = _update_matches_the_full_array_loop(H, G, V, config)
    assert 2 < scored < 31 and not np.array_equal(got_V, V)


def test_update_anchors_matches_the_full_array_loop_on_the_default_ring():
    # learn-lcc's first anchor step on the default pipeline's embedding,
    # where every coding is exact and all 30 halvings are refused
    cfg = load_config()
    X = make_ring(cfg.data.n, cfg.data.radius, cfg.data.noise_sigma, cfg.data.seed)
    encoder, _, _ = train_autoencoder(X, cfg.autoencoder, stage_seed(cfg.data.seed, cli._TAG_AE))
    H = encoder.forward(X)
    V = init_anchors(H, cfg.lcc.m, Rng(stage_seed(cfg.data.seed, cli._TAG_LCC)))
    G, _ = solve_codings(H, V, cfg.lcc)
    scored, got_V = _update_matches_the_full_array_loop(H, G, V, cfg.lcc)
    assert scored == 31 and got_V.tobytes() == V.tobytes()


def test_a_zero_weight_adds_nothing_where_its_penalty_overflows():
    # the one difference from the full array, whose 0 * inf is NaN; in
    # _update_anchors it takes a point and a used anchor some 1e154 apart
    H, V, G = np.array([[0.0]]), np.array([[0.0, 1e200]]), np.array([[1.0, 0.0]])
    config = LccConfig(m=2)
    assert lcc_objective(H, G, AnchorSet(V), config) == 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_reference_objective(H, G, V, config))


def test_coding_support_is_not_an_argument():
    with pytest.raises(TypeError):
        Coding(np.array([1.0, 0.0]), support=np.array([1]))


def test_coding_type_validates_sum():
    with pytest.raises(ValueError):
        Coding(np.array([0.7, 0.2]))
    c = Coding(np.array([0.25, 0.0, 0.75]))
    assert np.flatnonzero(c.weights).tolist() == [0, 2]


def test_anchor_set_validates_finiteness():
    with pytest.raises(ValueError):
        AnchorSet(np.array([[np.nan, 1.0], [0.0, 2.0]]))


@pytest.mark.parametrize("shape", [(0, 4), (2, 0), (0, 0), (4,)])
def test_anchor_set_refuses_empty_shapes(shape):
    with pytest.raises(ValueError, match="nonempty"):
        AnchorSet(np.zeros(shape))


def test_reconstruct_convex_combination():
    c = Coding(np.array([0.5, 0.5]))
    assert np.array_equal(SQUARE_ANCHORS.anchors @ c.weights, np.zeros(2))


def test_config_validation():
    with pytest.raises(ValueError):
        LccConfig(m=4, q=4)  # q not in {2, 3}
    with pytest.raises(ValueError):
        LccConfig(m=4, coding_tol=0.0)


# --- anchor learning ---


def test_learn_anchors_identical_points_collapse():
    pts = np.tile(np.array([0.3, -0.7]), (40, 1))
    cfg = LccConfig(m=3, max_outer_iters=20)
    anchors, G, _, _ = learn_anchors(pts, cfg, 1)
    obj = lcc_objective(pts, G, anchors, cfg)
    assert obj < 1e-6
    assert np.allclose(anchors.anchors, np.array([[0.3], [-0.7]]), atol=1e-4)


def test_learn_anchors_self_representation_fixed_point():
    # N == M distinct points: anchors start at the points, objective 0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cfg = LccConfig(m=4, max_outer_iters=5)
    anchors, G, _, _ = learn_anchors(pts, cfg, 0)
    obj = lcc_objective(pts, G, anchors, cfg)
    assert obj <= 1e-9


def test_learn_anchors_insufficient_data():
    cfg = LccConfig(m=8)
    with pytest.raises(InsufficientDataError):
        learn_anchors(np.zeros((5, 2)), cfg, 0)


def test_learn_anchors_monotone_on_circle():
    pts = make_ring(200, radius=1.0, noise_sigma=0.0, seed=7)
    for q, l_q in ((2, 1.0), (3, 1e-4)):
        cfg = LccConfig(
            m=8, q=q, l_q=l_q, max_outer_iters=30, anchor_tol=1e-12
        )
        trace = learn_anchors(pts, cfg, 7)[3]
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-8), f"objective rose by {diffs.max()} at q={q}"


def test_learn_anchors_zero_iters_returns_initialization():
    pts = make_ring(50, radius=1.0, noise_sigma=0.0, seed=3)
    cfg = LccConfig(m=4, max_outer_iters=0)
    anchors, G, _, trace = learn_anchors(pts, cfg, 9)
    assert trace == []
    expected = init_anchors(pts, 4, Rng(9))
    assert np.array_equal(anchors.anchors, expected)
    assert len(G) == 50


def test_init_anchors_selects_data_points():
    pts = make_ring(30, radius=1.0, noise_sigma=0.0, seed=2)
    V = init_anchors(pts, 6, Rng(0))
    for j in range(6):
        assert np.any(np.all(pts == V[:, j], axis=1))


def test_init_anchors_refuses_fewer_points_than_anchors():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InsufficientDataError, match="^2 points cannot initialize 5 anchors"):
        init_anchors(pts, 5, Rng(1))


def test_learn_anchors_runtime_budget():
    pts = make_ring(200, radius=1.0, noise_sigma=0.0, seed=7)
    cfg = LccConfig(m=8, q=2, max_outer_iters=30, anchor_tol=1e-12)
    t0 = time.time()
    learn_anchors(pts, cfg, 7)
    assert time.time() - t0 < 30.0
