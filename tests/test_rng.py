"""Deterministic-stream checks for the package RNG.

The generator has a documented closed form (counter-based splitmix64 with
Box-Muller Gaussians), so every test here can recompute expected outputs
independently with plain Python integer arithmetic.
"""

import math

import numpy as np
import pytest

from lccgen.rng import (Rng, normal_u64s, stage_seed, u64_to_ball_points, u64_to_normals,
                        u64_to_normals_at_every_offset)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_mix(z):
    # independent straight-line reimplementation of the documented mixing
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def test_u64_stream_matches_reference_recurrence():
    rng = Rng(12345)
    expected = [reference_mix((12345 + i * GAMMA) & MASK) for i in range(1, 101)]
    got = [rng.next_u64() for _ in range(100)]
    assert got == expected


def test_vector_and_scalar_streams_are_bit_identical():
    a = Rng(987654321)
    b = Rng(987654321)
    xs = a.next_u64_array(1000)
    ys = np.array([b.next_u64() for _ in range(1000)], dtype=np.uint64)
    assert np.array_equal(xs, ys)


def test_uniform_vector_matches_scalar():
    a, b = Rng(7), Rng(7)
    assert np.array_equal(a.uniforms(257), np.array([b.uniform() for _ in range(257)]))


def test_normals_vector_matches_scalar_pairing():
    a, b = Rng(11), Rng(11)
    xs = a.normals(6)
    # the first half of the uniforms gives the radii and the second half the
    # angles; each pair yields a cosine leg then a sine leg
    u = b.uniforms(6)
    r = np.sqrt(-2.0 * np.log1p(-u[:3]))
    th = 2.0 * np.pi * u[3:]
    expected = np.stack([r * np.cos(th), r * np.sin(th)], axis=1).reshape(-1)
    assert np.array_equal(xs, expected)


def test_normals_consume_whole_pairs():
    a, b = Rng(3), Rng(3)
    a.normals(5)
    b.normals(6)
    assert a.counter == b.counter  # odd request rounds up to the same pair count


def test_uniform_range_and_determinism():
    u = Rng(2024).uniforms(100_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, Rng(2024).uniforms(100_000))


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniforms(64), Rng(2).uniforms(64))


def test_normal_moments():
    z = Rng(5).normals(200_000)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.std()) - 1.0) < 0.01


def test_randint_bounds_and_floor_rule():
    rng = Rng(99)
    draws = [rng.randint(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    # floor rule: same stream position reproduces floor(u * n)
    check = Rng(99)
    for d in draws[:50]:
        assert d == min(int(check.uniform() * 7), 6)
    with pytest.raises(ValueError):
        rng.randint(0)


def test_ball_point_stays_inside_radius():
    rng = Rng(31)
    for _ in range(500):
        p = u64_to_ball_points(rng.next_u64_array(normal_u64s(3) + 1), 3, 2.5)
        assert float(np.linalg.norm(p)) <= 2.5 + 1e-12


def test_u64_at_reads_counters_without_moving_the_stream():
    rng = Rng(12345, 7)
    got = rng.u64_at([[8, 100], [1, 8]])
    assert got.tolist() == [[reference_mix((12345 + i * GAMMA) & MASK) for i in row]
                            for row in ([8, 100], [1, 8])]
    assert rng.counter == 7
    assert rng.next_u64() == int(got[0, 0])


def test_ball_points_decode_in_bulk_as_drawn_in_turn():
    for dim in (1, 2, 3, 4):
        rng = Rng(40 + dim)
        width = normal_u64s(dim) + 1
        bulk = u64_to_ball_points(rng.u64_at(1 + np.arange(6 * width).reshape(6, width)),
                                  dim, 0.5)
        one_by_one = np.stack([u64_to_ball_points(rng.next_u64_array(width), dim, 0.5)
                               for _ in range(6)])
        assert bulk.tobytes() == one_by_one.tobytes()
        # the documented recipe: normals, then a uniform for the radius
        check = Rng(40 + dim)
        z = check.normals(dim)
        want = z * (0.5 * check.uniform() ** (1.0 / dim) / float(np.sqrt(np.sum(z * z))))
        assert want.tobytes() == bulk[0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("length", [39, 3700])
def test_normals_at_every_offset_are_the_per_offset_normals(n, length):
    bits = Rng(5).u64_at(np.arange(1, length + 1, dtype=np.uint64))
    k = normal_u64s(n)
    got = u64_to_normals_at_every_offset(bits, n)
    assert got.shape == (length - k + 1, n)
    want = np.stack([u64_to_normals(bits[o:o + k], n) for o in range(length - k + 1)])
    assert got.tobytes() == want.tobytes()


def test_ball_point_rejects_a_zero_direction():
    # all-zero bits give u = 0 for every radius draw, so every normal is 0
    with pytest.raises(ValueError, match="zero direction"):
        u64_to_ball_points(np.zeros((2, 3), dtype=np.uint64), 2, 1.0)


def test_stage_seed_matches_documented_formula():
    assert stage_seed(7, 9) == reference_mix((7 + 9 * GAMMA) & MASK)
    tags = [stage_seed(7, t) for t in range(1, 10)]
    assert len(set(tags)) == len(tags)  # stage streams never collide on tags
