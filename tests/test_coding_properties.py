"""Seeded property tests for the coding solver on random instances.

Each instance draws anchors, points and a config, solves every point cold,
then moves the anchors by 0.05 * N(0, 1) and solves again warm from the
cold codings.  The instances cover d_b 1-6, m 1-39 and n 1-59, with
duplicate anchors, collinear (rank-1) anchor sets, and points on an anchor
or within 1e-9 of one.  Strongly scaled sets are left out: rows there
can end "cap" although their coding is optimal.  (The config refuses
l_q = 0.)

One class still ends "cap": collinear anchors with a point within 1e-9 of
one of them but off their line.  There the cold active set can end above
its single-anchor start, and an optimal row can miss its certificate.  Its
instances are flagged, and `test_no_row_ends_cap_near_collinear_anchors`
is an expected failure until the solver mends them.
"""

from collections import namedtuple

import numpy as np
import pytest

from lccgen.config import LccConfig
from lccgen.lcc import core
from lccgen.lcc.core import solve_codings
from test_lcc_core import _dual_lower_bound

SEED = 2031
INSTANCES = 350

# one solve; G0 is None for the cold solve, flagged is _instance's flag
Solve = namedtuple("Solve", "H V cfg G reasons G0 flagged")


def _instance(rng):
    """(H, V, cfg, flagged): flagged marks collinear anchors at d_b >= 2
    with a point moved off an anchor, the class that can end "cap"."""
    d_b, m, n = int(rng.integers(1, 7)), int(rng.integers(1, 40)), int(rng.integers(1, 60))
    shape = rng.integers(3)
    if shape == 1:  # collinear anchors
        V = rng.standard_normal((d_b, 1)) + np.outer(rng.standard_normal(d_b),
                                                     rng.standard_normal(m))
    else:
        V = rng.standard_normal((d_b, m))
    if shape == 2 and m > 1:  # duplicate anchors
        V[:, rng.integers(m, size=m // 2)] = V[:, rng.integers(m, size=m // 2)]
    H = rng.standard_normal((n, d_b)) * rng.choice([0.5, 1.0, 2.0])
    on = rng.random(n) < 0.2  # on an anchor, or within 1e-9 of one
    H[on] = V[:, rng.integers(m, size=on.sum())].T
    moved = rng.choice([0.0, 1e-9], size=(on.sum(), 1))
    H[on] += moved * rng.uniform(-1, 1, (on.sum(), d_b))
    cfg = LccConfig(q=int(rng.choice([2, 3])), l_q=float(rng.choice([1e-4, 1.0, 100.0])),
                    l_h=float(rng.choice([0.01, 1.0, 10.0])))
    return H, V, cfg, bool(shape == 1 and d_b > 1 and moved.any())


@pytest.fixture(scope="module")
def solved():
    """Per instance, the cold solve, then the warm solve on moved anchors
    from the cold codings."""
    rng = np.random.default_rng(SEED)
    runs = []
    for _ in range(INSTANCES):
        H, V, cfg, flagged = _instance(rng)
        G, reasons = solve_codings(H, V, cfg)
        runs.append(Solve(H, V, cfg, G, reasons, None, flagged))
        V2 = V + 0.05 * rng.standard_normal(V.shape)
        runs.append(Solve(H, V2, cfg, *solve_codings(H, V2, cfg, G0=G), G, flagged))
    return runs


def _caps(runs):
    return sum(int(np.count_nonzero(run.reasons == "cap")) for run in runs)


def test_every_row_sums_to_one(solved):
    for run in solved:
        assert np.isfinite(run.G).all()
        assert np.abs(run.G.sum(axis=1) - 1.0).max() <= 1e-9


def test_no_row_ends_cap(solved):
    assert sum(len(run.reasons) for run in solved) > 10_000
    assert _caps([run for run in solved if not run.flagged]) == 0


@pytest.mark.xfail(strict=True, reason="a point off collinear anchors, within 1e-9 of one")
def test_no_row_ends_cap_near_collinear_anchors(solved):
    flagged = [run for run in solved if run.flagged]
    assert len(flagged) > 10
    assert _caps(flagged) == 0


def test_no_row_ends_above_its_warm_start(solved):
    for H, V, cfg, G, _, G0, _ in solved[1::2]:
        C, _ = core._penalties(H, V, cfg.l_q, cfg.q)
        got = core._row_objectives(H, G, V, C, cfg.l_h)
        assert (got <= core._row_objectives(H, G0, V, C, cfg.l_h)).all()


def test_certified_rows_meet_the_dual_bound_in_the_plane(solved):
    checked = 0
    for H, V, cfg, G, reasons, _, _ in solved:
        if len(V) != 2 or V.shape[1] > 8:
            continue
        C, _ = core._penalties(H, V, cfg.l_q, cfg.q)
        got = core._row_objectives(H, G, V, C, cfg.l_h)
        for i in np.flatnonzero((reasons == "vertex") | (reasons == "gap")):
            assert got[i] - _dual_lower_bound(H[i], V, C[i], cfg.l_h) <= cfg.coding_tol
            checked += 1
    assert checked > 100
