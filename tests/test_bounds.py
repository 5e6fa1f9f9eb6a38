"""Approximation-bound tests: exact small cases and Monte-Carlo sweeps."""

import numpy as np
import pytest

from lccgen.bounds import (
    QuadraticGenerator,
    mixing_gap,
    random_affine,
    random_configuration,
    random_quadratic,
    tangent_mixing_gap,
)
from lccgen.lcc.core import AnchorSet, Coding
from lccgen.rng import Rng


def _unit_quadratic():
    # G(x) = ||x||^2 on R^2, one output
    return QuadraticGenerator(
        q=np.eye(2)[None, :, :], a=np.zeros((1, 2)), b=np.zeros(1)
    )


# ----------------------------------------------------------- first order


def test_affine_generator_mixes_exactly():
    rng = Rng(5)
    gen = random_affine(rng, 3, 2)
    for _ in range(50):
        anchors, coding, h, radius = random_configuration(rng, 3, 6, 3)
        lhs, rhs = mixing_gap(gen, coding, anchors, h, gen.constants(radius))
        assert lhs <= 1e-12
        assert lhs <= rhs + 1e-10


def test_one_hot_at_matching_anchor_vanishes_both_sides():
    rng = Rng(6)
    gen = random_quadratic(rng, 2, 2)
    V = np.asarray(rng.normals(2 * 4)).reshape(2, 4)
    anchors = AnchorSet(V)
    w = np.zeros(4)
    w[2] = 1.0
    h = V[:, 2].copy()
    lhs, rhs = mixing_gap(gen, Coding(w), anchors, h, gen.constants(5.0))
    assert lhs == 0.0
    assert rhs == 0.0


def test_symmetric_quadratic_case_by_direct_arithmetic():
    # G(x) = ||x||^2, anchors (1,0) and (-1,0), even split, h at the origin:
    # r(h) = h = 0, G(r) = 0, mixed value = 0.5*1 + 0.5*1 = 1, so lhs = 1;
    # rhs = 2*L1*0 + L2*(0.5*1 + 0.5*1) = L2 = 1 for the unit form.
    gen = _unit_quadratic()
    anchors = AnchorSet(np.array([[1.0, -1.0], [0.0, 0.0]]))
    coding = Coding(np.array([0.5, 0.5]))
    h = np.zeros(2)
    consts = gen.constants(1.0)
    lhs, rhs = mixing_gap(gen, coding, anchors, h, consts)
    assert lhs == 1.0
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert lhs <= rhs + 1e-10


def test_first_order_bound_holds_on_random_sweep():
    rng = Rng(17)
    failures = 0
    for i in range(1000):
        dim = 2 + i % 3
        gen = random_quadratic(rng, dim, 2) if i % 2 else random_affine(rng, dim, 2)
        anchors, coding, h, radius = random_configuration(rng, dim, 6, 3)
        lhs, rhs = mixing_gap(gen, coding, anchors, h, gen.constants(radius))
        failures += lhs > rhs + 1e-10
    assert failures == 0


# ------------------------------------------------------ tangent corrected


def test_perfect_reconstruction_affine_vanishes_both_sides():
    rng = Rng(21)
    gen = random_affine(rng, 2, 3)
    V = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    w = np.array([0.25, 0.25, 0.5])
    h = V @ w  # exact reconstruction
    lhs, rhs = tangent_mixing_gap(gen, Coding(w), AnchorSet(V), h, gen.constants(2.0))
    assert lhs <= 1e-12
    assert rhs <= 1e-12


def test_one_hot_tangent_case_by_direct_arithmetic():
    rng = Rng(22)
    gen = random_quadratic(rng, 2, 2)
    V = np.asarray(rng.normals(2 * 3)).reshape(2, 3)
    anchors = AnchorSet(V)
    w = np.zeros(3)
    w[1] = 1.0
    h = np.array([0.3, -0.4])
    radius = float(max(np.linalg.norm(V, axis=0).max(), np.linalg.norm(h))) + 1e-9
    consts = gen.constants(radius)
    lhs, rhs = tangent_mixing_gap(gen, Coding(w), anchors, h, consts)
    v = V[:, 1]
    want_lhs = float(np.linalg.norm(0.5 * gen.jacobian(v) @ (h - v)))
    want_rhs = 2.0 * consts.first * float(np.linalg.norm(h - v))
    assert lhs == pytest.approx(want_lhs, abs=1e-14)
    assert rhs == pytest.approx(want_rhs, abs=1e-14)
    assert lhs <= rhs + 1e-10


def test_tangent_bound_holds_on_random_quadratic_sweep():
    rng = Rng(33)
    failures = 0
    for i in range(1000):
        dim = 2 + i % 3
        gen = random_quadratic(rng, dim, 2)
        anchors, coding, h, radius = random_configuration(rng, dim, 6, 3)
        consts = gen.constants(radius)
        assert consts.third == 0.0  # constant Hessian
        lhs, rhs = tangent_mixing_gap(gen, coding, anchors, h, consts)
        failures += lhs > rhs + 1e-10
    assert failures == 0


def test_tangent_rhs_is_tighter_on_close_configurations():
    # with a vanishing third constant the corrected rhs drops the quadratic
    # penalty term, so it can only be smaller whenever that term is active
    rng = Rng(41)
    checked = 0
    for _ in range(300):
        gen = random_quadratic(rng, 2, 2)
        anchors, coding, h, radius = random_configuration(rng, 2, 6, 3)
        V, g = anchors.anchors, coding.weights
        r = V @ g
        sup_dist = np.sqrt(np.sum((V[:, coding.support] - r[:, None]) ** 2, axis=0))
        if np.max(sup_dist) > 1.0:
            continue
        consts = gen.constants(radius)
        _, rhs1 = mixing_gap(gen, coding, anchors, h, consts)
        _, rhs2 = tangent_mixing_gap(gen, coding, anchors, h, consts)
        assert rhs2 <= rhs1 + 1e-12
        checked += 1
    assert checked > 10


# ----------------------------------------------------------- construction


def test_random_configuration_invariants():
    rng = Rng(50)
    for _ in range(100):
        anchors, coding, h, radius = random_configuration(rng, 3, 8, 4)
        assert abs(coding.weights.sum() - 1.0) <= 1e-12
        assert len(coding.support) <= 4
        assert np.linalg.norm(h) <= radius
        assert np.all(np.linalg.norm(anchors.anchors, axis=0) <= 1.0 + 1e-12)


def test_quadratic_generator_requires_symmetry():
    q = np.zeros((1, 2, 2))
    q[0, 0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        QuadraticGenerator(q=q, a=np.zeros((1, 2)), b=np.zeros(1))
