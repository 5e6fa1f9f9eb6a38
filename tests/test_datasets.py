"""Dataset generator and IDX loader tests."""

import struct

import numpy as np
import pytest

from lccgen.datasets import (
    load_mnist_idx,
    make_ring,
    make_swiss_roll,
)
from lccgen.serialize import FormatError


def _idx_images(count, rows, cols, pixels, magic=0x00000803):
    return struct.pack(">IIII", magic, count, rows, cols) + bytes(pixels)


def test_ring_noise_free_points_sit_on_the_circle():
    ds = make_ring(500, radius=2.5, noise_sigma=0.0, seed=3)
    norms = np.linalg.norm(ds, axis=1)
    assert np.max(np.abs(norms - 2.5)) <= 1e-12
    assert ds.shape == (500, 2)


def test_ring_single_point_is_deterministic():
    a = make_ring(1, seed=9)
    b = make_ring(1, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (1, 2)


def test_ring_sample_mean_is_near_the_origin():
    ds = make_ring(10000, radius=1.0, noise_sigma=0.01, seed=4)
    assert np.linalg.norm(ds.mean(axis=0)) < 0.05


def test_ring_rejects_empty():
    with pytest.raises(ValueError):
        make_ring(0)


def test_swiss_roll_satisfies_the_parametric_equation():
    ds = make_swiss_roll(300, noise_sigma=0.0, seed=6)
    x, y, z = ds.T
    t = np.sqrt(x * x + z * z)
    assert np.max(np.abs(x - t * np.cos(t))) <= 1e-9
    assert np.max(np.abs(z - t * np.sin(t))) <= 1e-9
    assert np.all((t >= 1.5 * np.pi) & (t < 4.5 * np.pi))
    assert np.all((y >= 0.0) & (y < 21.0))


def test_swiss_roll_regenerates_identically_per_seed():
    a = make_swiss_roll(200, noise_sigma=0.05, seed=8)
    b = make_swiss_roll(200, noise_sigma=0.05, seed=8)
    c = make_swiss_roll(200, noise_sigma=0.05, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # pairwise-distance distribution is the regeneration oracle
    d_ab = np.linalg.norm(a[:50, None, :] - b[None, :50, :], axis=2)
    assert np.array_equal(np.sort(d_ab.ravel()), np.sort(d_ab.T.ravel()))


def test_idx_zero_image_maps_to_minus_one(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_images(1, 28, 28, [0] * 784))
    ds = load_mnist_idx(path)
    assert ds.shape == (1, 784)
    assert np.all(ds == -1.0)


def test_idx_wrong_magic_reports_offset(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_images(1, 2, 2, [0] * 4, magic=0xDEADBEEF))
    with pytest.raises(FormatError, match="byte offset 0"):
        load_mnist_idx(path)


def test_idx_truncated_pixels_reports_offset(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_images(2, 2, 2, [7] * 4))  # second image missing
    with pytest.raises(FormatError, match="truncated"):
        load_mnist_idx(path)


def test_idx_downsample_constant_image(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_images(1, 28, 28, [255] * 784))
    ds = load_mnist_idx(path, downsample_to=7)
    assert ds.shape == (1, 49)
    assert np.all(ds == 1.0)


def test_idx_downsample_must_divide(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_images(1, 28, 28, [0] * 784))
    with pytest.raises(ValueError):
        load_mnist_idx(path, downsample_to=5)


def test_idx_limit_truncates_count(tmp_path):
    path = tmp_path / "imgs.idx"
    pixels = list(range(16)) * 3
    path.write_bytes(_idx_images(3, 4, 4, pixels))
    ds = load_mnist_idx(path, limit=2)
    assert ds.shape == (2, 16)
