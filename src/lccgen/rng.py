"""Deterministic random streams for the whole package.

The generator is splitmix64, a counter-based scheme that is easy to
reproduce in any language with 64-bit unsigned arithmetic:

    state_i  = (seed + i * 0x9E3779B97F4A7C15) mod 2^64      (i = 1, 2, ...)
    output_i = mix(state_i)

    mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
            z ^= z >> 27; z *= 0x94D049BB133111EB
            z ^= z >> 31; return z

Uniform doubles take the top 53 bits: u = (output >> 11) * 2^-53, giving
values in [0, 1).  Gaussian draws use the Box-Muller transform on pairs of
uniforms:

    r  = sqrt(-2 * ln(1 - u1))        (1 - u1 is in (0, 1], so the log is finite)
    z0 = r * cos(2 * pi * u2)
    z1 = r * sin(2 * pi * u2)

A request for n Gaussians always consumes ceil(n / 2) pairs, so streams stay
aligned regardless of parity.  A point of the solid ball of radius R in
dim dimensions takes one request for dim Gaussians z, then one uniform u,
and is z * (R * u^(1/dim) / ||z||).  Each stage seeds its own stream with
`stage_seed`.

Every output depends only on its counter, so `u64_at` can decode many
requests at once from their counters; bulk decoders take one request per
row of a u64 block and give the same floats as drawing them in turn.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


# the constants as numpy scalars, made once rather than on every call
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_UMIX1, _UMIX2, _UGAMMA = np.uint64(_MIX1), np.uint64(_MIX2), np.uint64(_GAMMA)


def _mix_array(z):
    # same mixing function vectorized; uint64 arithmetic wraps mod 2^64
    z = (z ^ (z >> _U30)) * _UMIX1
    z = (z ^ (z >> _U27)) * _UMIX2
    return z ^ (z >> _U31)


def u64_to_uniforms(bits) -> np.ndarray:
    """Uniform doubles in [0, 1) from the top 53 bits of each u64."""
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _polar(ur, ut):
    """Box-Muller's r = sqrt(-2 ln(1 - ur)), cos(2 pi ut) and sin(2 pi ut)."""
    theta = 2.0 * np.pi * ut
    return np.sqrt(-2.0 * np.log1p(-ur)), np.cos(theta), np.sin(theta)


def _interleave(r, cos, sin, n: int) -> np.ndarray:
    out = np.empty(r.shape[:-1] + (2 * r.shape[-1],))
    out[..., 0::2] = r * cos
    out[..., 1::2] = r * sin
    return out[..., :n]


def u64_to_normals(bits, n: int) -> np.ndarray:
    """Box-Muller along the last axis of a (..., 2 * ceil(n/2)) u64 block: the
    first half feeds r, the second half theta.  Returns (..., n)."""
    pairs = bits.shape[-1] // 2
    u = u64_to_uniforms(bits)
    return _interleave(*_polar(u[..., :pairs], u[..., pairs:]), n)


def u64_to_normals_at_every_offset(bits, n: int) -> np.ndarray:
    """Row o is u64_to_normals(bits[o:o + normal_u64s(n)], n), for every
    offset o of a 1-D u64 array, with each u64's log and trig run once.
    Returns (len(bits) - normal_u64s(n) + 1, n)."""
    pairs = normal_u64s(n) // 2
    u = u64_to_uniforms(bits)
    r, cos, sin = _polar(u, u)
    # z[2i], z[2i + 1]: the normals of r at i and theta `pairs` u64s on, the
    # pair at position i - o of the attempt at offset o
    z = _interleave(r[:-pairs], cos[pairs:], sin[pairs:], 2 * (len(u) - pairs))
    rows = len(u) - 2 * pairs + 1
    return z[2 * np.arange(rows)[:, None] + np.arange(n)]


def normal_u64s(n: int) -> int:
    """u64s that one request for n Gaussians consumes."""
    return 2 * ((n + 1) // 2)


def u64_to_ball_points(bits, dim: int, radius: float) -> np.ndarray:
    """Ball points along the last axis of a (..., normal_u64s(dim) + 1) u64
    block: the normals request, then the uniform.  Returns (..., dim).
    Raises ValueError if some direction is exactly zero (probability about
    2^-53 per point)."""
    z = u64_to_normals(bits[..., :-1], dim)
    norm = np.sqrt(np.sum(z * z, axis=-1))
    if not np.all(norm > 0.0):
        raise ValueError("ball point drew a zero direction")
    # u^(1/dim) is Python's float pow, which numpy's power need not match
    e = 1.0 / dim
    root = np.array([u ** e for u in u64_to_uniforms(bits[..., -1]).ravel().tolist()])
    return z * (radius * root.reshape(norm.shape) / norm)[..., None]


class Rng:
    """splitmix64 stream; all package randomness flows through this class."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK
        self.counter = int(counter)

    def next_u64(self) -> int:
        self.counter += 1
        return _mix((self.seed + self.counter * _GAMMA) & _MASK)

    def next_u64_array(self, n: int):
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return self.u64_at(idx)

    def u64_at(self, counters) -> np.ndarray:
        """The u64s this stream gives at the given counters (the first draw
        is counter 1), without moving the stream."""
        idx = np.asarray(counters, dtype=np.uint64)
        return _mix_array(np.uint64(self.seed) + idx * _UGAMMA)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        return u64_to_uniforms(self.next_u64_array(n))

    def normals(self, n: int) -> np.ndarray:
        return u64_to_normals(self.next_u64_array(normal_u64s(n)), n)

    def randint(self, n: int) -> int:
        """Integer in [0, n) via floor(u * n); clamped so u ~ 1 cannot spill over."""
        if n <= 0:
            raise ValueError("randint requires n >= 1")
        return min(int(self.uniform() * n), n - 1)

    def ball_point(self, dim: int, radius: float) -> np.ndarray:
        """Uniform draw from the solid ball of the given radius."""
        return u64_to_ball_points(self.next_u64_array(normal_u64s(dim) + 1), dim, radius)


def stage_seed(base_seed: int, tag: int) -> int:
    """Derive a per-stage seed from a base seed and a fixed integer tag."""
    return _mix((int(base_seed) + tag * _GAMMA) & _MASK)
