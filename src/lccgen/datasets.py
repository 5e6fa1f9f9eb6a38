"""Synthetic manifolds and the IDX image format."""

from __future__ import annotations

import numpy as np

from .rng import Rng
from .serialize import Reader

IMAGES_MAGIC = b"\x00\x00\x08\x03"


def make_ring(n: int, radius: float = 1.0, noise_sigma: float = 0.0, seed: int = 0) -> np.ndarray:
    """(n, 2) points radius * (cos t, sin t) with t uniform and Gaussian jitter."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Rng(seed)
    theta = rng.uniforms(n) * (2.0 * np.pi)
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if noise_sigma > 0.0:
        pts = pts + noise_sigma * rng.normals(2 * n).reshape(n, 2)
    return pts


def make_swiss_roll(n: int, noise_sigma: float = 0.0, seed: int = 0) -> np.ndarray:
    """(n, 3) points (t cos t, y, t sin t) with t in [1.5pi, 4.5pi) and y in [0, 21)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Rng(seed)
    t = 1.5 * np.pi * (1.0 + 2.0 * rng.uniforms(n))
    y = 21.0 * rng.uniforms(n)
    pts = np.stack([t * np.cos(t), y, t * np.sin(t)], axis=1)
    if noise_sigma > 0.0:
        pts = pts + noise_sigma * rng.normals(3 * n).reshape(n, 3)
    return pts


def load_mnist_idx(images_path, limit: int | None = None,
                   downsample_to: int | None = None) -> np.ndarray:
    """IDX image file -> (n, rows*cols) array with pixels mapped to [-1, 1].

    Big-endian u32 header (magic, count, rows, cols), then u8 pixels to the end.
    `limit` keeps the first images; `downsample_to=k` box-filters each image
    to k x k, and k must divide both image dimensions (`[data] downsample`).
    """
    r = Reader(images_path, IMAGES_MAGIC)
    count, rows, cols = r.fields(">III")
    pixels = r.array(np.uint8, count * rows * cols)
    r.end()
    images = pixels.reshape(count, rows, cols).astype(np.float64)
    if limit is not None:
        images = images[:limit]
    if downsample_to:
        k = int(downsample_to)
        if k < 1 or rows % k or cols % k:
            raise ValueError(f"{images_path}: [data] downsample={k} must divide the image "
                             f"size {rows}x{cols}")
        images = images.reshape(len(images), k, rows // k, k, cols // k).mean(axis=(2, 4))
    flat = images.reshape(len(images), -1) / 127.5 - 1.0
    return flat
