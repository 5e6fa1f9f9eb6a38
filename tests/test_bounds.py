"""Approximation-bound tests: exact small cases and Monte-Carlo sweeps."""

import hashlib

import numpy as np
import pytest

from lccgen.bounds import (
    QuadraticGenerator,
    bound_sweep,
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
        sup_dist = np.sqrt(np.sum((V[:, np.flatnonzero(g)] - r[:, None]) ** 2, axis=0))
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
        assert np.count_nonzero(coding.weights) <= 4
        assert np.linalg.norm(h) <= radius
        assert np.all(np.linalg.norm(anchors.anchors, axis=0) <= 1.0 + 1e-12)


def test_quadratic_generator_stacks_evaluate_like_single_generators():
    rng = Rng(60)
    gens = [random_quadratic(rng, 3, 2) for _ in range(4)]
    stack = QuadraticGenerator(*(np.stack([getattr(g, f) for g in gens]) for f in "qab"))
    x = np.asarray(rng.normals(4 * 3)).reshape(4, 3)
    assert np.array_equal(stack.value(x), np.stack([g.value(p) for g, p in zip(gens, x)]))
    assert np.array_equal(stack.jacobian(x), np.stack([g.jacobian(p) for g, p in zip(gens, x)]))
    consts = stack.constants(np.full(4, 2.0))
    assert np.array_equal(consts.first, [g.constants(2.0).first for g in gens])
    assert np.array_equal(consts.second, [g.constants(2.0).second for g in gens])


def test_zero_forms_in_a_stack_give_the_svd_path_constants():
    # constants skips the SVD of all-zero forms; the spectral norms it would
    # have computed are exactly 0, so every constant keeps its bits
    rng = Rng(61)
    q = np.asarray(rng.normals(6 * 2 * 3 * 3 * 3)).reshape(6, 2, 3, 3, 3)
    q = 0.5 * (q + np.swapaxes(q, -1, -2))
    q[:, 0] = 0.0  # affine kind
    q[2, 1, 1] = 0.0  # one zero form among nonzero ones
    q[4, 1] = 0.0  # a quadratic kind with every form zero
    a = np.asarray(rng.normals(6 * 2 * 3 * 3)).reshape(6, 2, 3, 3)
    radius = 1.0 + np.asarray(rng.uniforms(6))[:, None]
    consts = QuadraticGenerator(q, a, np.zeros((6, 2, 3))).constants(radius)
    rss = np.sqrt(np.sum(np.linalg.norm(q, 2, axis=(-2, -1)) ** 2, axis=-1))
    first = np.linalg.norm(a, 2, axis=(-2, -1)) + 2.0 * radius * rss
    assert consts.second.tobytes() == rss.tobytes()
    assert consts.first.tobytes() == first.tobytes()
    assert np.all(consts.second[:, 0] == 0.0) and consts.third == 0.0


def test_quadratic_generator_requires_symmetry():
    q = np.zeros((1, 2, 2))
    q[0, 0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        QuadraticGenerator(q=q, a=np.zeros((1, 2)), b=np.zeros(1))


# ------------------------------------------------------------ bulk sweep
#
# The reference below is the per-case loop written out with einsum, one
# ball point at a time and np.stack, apart from lccgen.bounds.  The bulk
# sweep must reproduce its floats bit for bit and leave the stream where it
# leaves it.


def _ref_ball_point(rng, dim, radius):
    z = rng.normals(dim)
    norm = float(np.sqrt(np.sum(z * z)))
    return z * (radius * rng.uniform() ** (1.0 / dim) / norm)


def _ref_configuration(rng, dim, m, d):
    V = np.stack([_ref_ball_point(rng, dim, 1.0) for _ in range(m)], axis=1)
    support = np.argsort(rng.uniforms(m), kind="stable")[:d]
    while True:
        z = rng.normals(d)
        s = float(z.sum())
        if abs(s) >= 0.3 and np.sum(np.abs(z / s)) <= 3.0:
            break
    w = np.zeros(m)
    w[support] = z / s
    w[support[int(np.argmax(np.abs(z)))]] -= w.sum() - 1.0
    r = V @ w
    h = r + _ref_ball_point(rng, dim, 0.5)
    radius = max(1.0, float(np.sqrt(np.sum(r * r))), float(np.sqrt(np.sum(h * h)))) + 1e-9
    return V, w, h, radius


def _ref_generator(rng, n, k, quadratic):
    if quadratic:
        raw = rng.normals(k * n * n).reshape(k, n, n)
        q = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    else:
        q = np.zeros((k, n, n))
    return q, rng.normals(k * n).reshape(k, n), rng.normals(k)


def _ref_gaps(q, a, b, V, w, h, radius):
    """[(lhs, rhs) first order, (lhs, rhs) tangent corrected]."""
    def value(x):
        return np.einsum("kij,i,j->k", q, x, x) + a @ x + b

    def jacobian(x):
        return 2.0 * np.einsum("kij,j->ki", q, x) + a

    rss = float(np.sqrt(np.sum(np.linalg.norm(q, 2, axis=(1, 2)) ** 2)))
    first = float(np.linalg.norm(a, 2)) + 2.0 * radius * rss
    r = V @ w
    rec_err = float(np.sqrt(np.sum((h - r) ** 2)))
    dist_r = np.sqrt(np.sum((V - r[:, None]) ** 2, axis=0))
    at_r = value(r)
    out = []
    for higher, power, tangent in ((rss, 2, False), (0.0, 3, True)):
        mixed = np.zeros_like(at_r)
        for j in np.flatnonzero(w):
            v = V[:, j]
            term = value(v) + 0.5 * jacobian(v) @ (h - v) if tangent else value(v)
            mixed = mixed + w[j] * term
        lhs = float(np.sqrt(np.sum((at_r - mixed) ** 2)))
        rhs = 2.0 * first * rec_err + higher * float(np.sum(np.abs(w) * dist_r**power))
        out.append((lhs, rhs))
    return out


def _per_case(rng, cases, shapes):
    lhs = np.empty((cases, 2, 2))
    rhs = np.empty((cases, 2, 2))
    for case in range(cases):
        dim = 2 + rng.randint(3)
        k = 1 + rng.randint(3)
        m = 4 + rng.randint(5)
        d = 2 + rng.randint(min(3, m - 1))
        shapes.add((dim, k, m, d))
        V, w, h, radius = _ref_configuration(rng, dim, m, d)
        gens = [_ref_generator(rng, dim, k, False), _ref_generator(rng, dim, k, True)]
        for kind, (q, a, b) in enumerate(gens):
            for order, gap in enumerate(_ref_gaps(q, a, b, V, w, h, radius)):
                lhs[case, kind, order], rhs[case, kind, order] = gap
    return lhs, rhs


def test_bound_sweep_matches_per_case_loop_bit_for_bit():
    shapes = set()
    runs = [(seed, 300) for seed in (1, 2, 12345, 987654321)]
    for seed, cases in runs + [(3, 0), (3, 1), (4, 2), (5, 3), (777, 1000)]:
        ref_rng, rng = Rng(seed, 5), Rng(seed, 5)
        want = _per_case(ref_rng, cases, shapes)
        got = bound_sweep(rng, cases)
        assert got[0].shape == got[1].shape == (cases, 2, 2)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert rng.counter == ref_rng.counter
    # every shape the sweep can draw, dim = 2 with k = 1 among them
    assert shapes == {(dim, k, m, d) for dim in (2, 3, 4) for k in (1, 2, 3)
                      for m in range(4, 9) for d in (2, 3, 4)}


# sha256 of bound_sweep(Rng(2026), 1000)'s lhs and rhs bytes, recorded before
# the sweep stacked both kinds and both orders; 1,000 cases is the CLI default
_SWEEP_1000_SHA256 = (
    "dfc9093a47bf6388c6b53544db49bca769d085f8763dcce0e3431626714ac0e4",
    "aaeac488855586ad73e87210e39904e152746924b656710d649165d4e1f11e85",
)


def test_bound_sweep_default_size_keeps_its_bytes():
    rng = Rng(2026)
    lhs, rhs = bound_sweep(rng, 1000)
    assert (hashlib.sha256(lhs.tobytes()).hexdigest(),
            hashlib.sha256(rhs.tobytes()).hexdigest()) == _SWEEP_1000_SHA256
    assert rng.counter == 82152


def test_single_case_calls_match_the_per_case_loop():
    rng, ref = Rng(8), Rng(8)
    for i in range(90):
        dim, k, m = 2 + i % 3, 1 + (i // 3) % 3, 4 + i % 5
        d = 2 + i % 3
        anchors, coding, h, radius = random_configuration(rng, dim, m, d)
        V, w, h_ref, radius_ref = _ref_configuration(ref, dim, m, d)
        assert anchors.anchors.tobytes() == V.tobytes()
        assert coding.weights.tobytes() == w.tobytes()
        assert h.tobytes() == h_ref.tobytes() and radius == radius_ref
        for quadratic, make in ((False, random_affine), (True, random_quadratic)):
            gen = make(rng, dim, k)
            q, a, b = _ref_generator(ref, dim, k, quadratic)
            assert gen.q.tobytes() == q.tobytes()
            assert gen.a.tobytes() == a.tobytes() and gen.b.tobytes() == b.tobytes()
            consts = gen.constants(radius)
            got = [fn(gen, coding, anchors, h, consts) for fn in (mixing_gap, tangent_mixing_gap)]
            assert got == _ref_gaps(q, a, b, V, w, h_ref, radius_ref)
        assert rng.counter == ref.counter
