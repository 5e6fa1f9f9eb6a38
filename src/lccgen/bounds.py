"""Numerical checks of the coding approximation bounds.

For a smooth map G and a coding (gamma, V) of a point h with reconstruction
r(h) = V @ gamma, two inequalities are verified numerically:

  first order:   ||G(r) - sum_j g_j G(v_j)||
                   <= 2*L1*||h - r|| + L2 * sum_j |g_j| * ||v_j - r||^2

  with tangent correction:
                 ||G(r) - sum_j g_j (G(v_j) + 0.5 * J(v_j) @ (h - v_j))||
                   <= 2*L1*||h - r|| + L3 * sum_j |g_j| * ||v_j - r||^3

L1, L2, L3 bound, over a stated compact domain, the three smoothness ratios

  ||J(x) @ (x'-x)|| / ||x'-x||,
  ||G(x') - G(x) - J(x) @ (x'-x)|| / ||x'-x||^2,
  ||G(x') - G(x) - 0.5*(J(x') + J(x)) @ (x'-x)|| / ||x'-x||^3.

Affine and quadratic test maps admit exact constants (their third-order
residual is identically zero), so the right-hand sides are honest bounds
rather than tuned numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lcc.core import AnchorSet, Coding
from .rng import Rng


@dataclass
class SmoothnessConstants:
    first: float
    second: float
    third: float


@dataclass
class QuadraticGenerator:
    """G_k(x) = x @ q[k] @ x + (A @ x)_k + b_k with each q[k] symmetric."""

    q: np.ndarray  # (k, n, n)
    a: np.ndarray  # (k, n)
    b: np.ndarray  # (k,)

    def __post_init__(self):
        qt = np.transpose(self.q, (0, 2, 1))
        if not np.all(np.abs(self.q - qt) <= 1e-8 + 1e-5 * np.abs(qt)):  # allclose's test
            raise ValueError("each quadratic form must be symmetric")

    def value(self, x):
        return np.einsum("kij,i,j->k", self.q, x, x) + self.a @ x + self.b

    def jacobian(self, x):
        return 2.0 * np.einsum("kij,j->ki", self.q, x) + self.a

    def constants(self, radius: float) -> SmoothnessConstants:
        # ||J(x)||_2 <= ||A||_2 + 2*||x|| * sqrt(sum_k ||q_k||_2^2); the
        # second-order Taylor residual is (x'-x) @ q_k @ (x'-x) exactly, so
        # the same root-sum-square of spectral norms bounds ratio two, and
        # constant Hessians make the third-order residual vanish.
        qnorms = np.linalg.norm(self.q, 2, axis=(1, 2))
        rss = float(np.sqrt(np.sum(qnorms**2)))
        first = float(np.linalg.norm(self.a, 2)) + 2.0 * radius * rss
        return SmoothnessConstants(first, rss, 0.0)


def _gap_common(coding: Coding, anchors: AnchorSet, h):
    h = np.asarray(h, dtype=np.float64)
    V = anchors.anchors
    g = coding.weights
    r = V @ g
    rec_err = float(np.sqrt(np.sum((h - r) ** 2)))
    dist_r = np.sqrt(np.sum((V - r[:, None]) ** 2, axis=0))
    return V, g, r, rec_err, dist_r


def mixing_gap(gen, coding: Coding, anchors: AnchorSet, h, constants: SmoothnessConstants):
    """(lhs, rhs) of the first-order inequality; lhs <= rhs when the
    constants are valid on the hull of the configuration."""
    V, g, r, rec_err, dist_r = _gap_common(coding, anchors, h)
    at_r = gen.value(r)
    mixed = np.zeros_like(at_r)
    for j in coding.support:
        mixed = mixed + g[j] * gen.value(V[:, j])
    lhs = float(np.sqrt(np.sum((at_r - mixed) ** 2)))
    rhs = 2.0 * constants.first * rec_err + constants.second * float(
        np.sum(np.abs(g) * dist_r**2)
    )
    return lhs, rhs


def tangent_mixing_gap(gen, coding: Coding, anchors: AnchorSet, h, constants: SmoothnessConstants):
    """(lhs, rhs) of the tangent-corrected inequality."""
    V, g, r, rec_err, dist_r = _gap_common(coding, anchors, h)
    h = np.asarray(h, dtype=np.float64)
    at_r = gen.value(r)
    mixed = np.zeros_like(at_r)
    for j in coding.support:
        v = V[:, j]
        mixed = mixed + g[j] * (gen.value(v) + 0.5 * gen.jacobian(v) @ (h - v))
    lhs = float(np.sqrt(np.sum((at_r - mixed) ** 2)))
    rhs = 2.0 * constants.first * rec_err + constants.third * float(
        np.sum(np.abs(g) * dist_r**3)
    )
    return lhs, rhs


def random_affine(rng: Rng, n: int, k: int) -> QuadraticGenerator:
    """G(x) = A @ x + b: a quadratic map with zero forms."""
    a = rng.normals(k * n).reshape(k, n)
    b = rng.normals(k)
    return QuadraticGenerator(np.zeros((k, n, n)), a, b)


def random_quadratic(rng: Rng, n: int, k: int) -> QuadraticGenerator:
    raw = rng.normals(k * n * n).reshape(k, n, n)
    q = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    a = rng.normals(k * n).reshape(k, n)
    b = rng.normals(k)
    return QuadraticGenerator(q, a, b)


def random_configuration(rng: Rng, dim: int, m: int, d: int):
    """Random anchors in the unit ball, a d-sparse sum-to-one coding with
    bounded L1 mass, and h = r(h) + a perturbation of radius <= 0.5.

    Returns (anchors, coding, h, radius) with radius covering the hull of
    everything visited, so generator constants computed at that radius are
    valid for the configuration.
    """
    V = np.stack([rng.ball_point(dim, 1.0) for _ in range(m)], axis=1)
    support = np.argsort(rng.uniforms(m), kind="stable")[:d]
    while True:
        z = rng.normals(d)
        s = float(z.sum())
        if abs(s) >= 0.3 and np.sum(np.abs(z / s)) <= 3.0:
            break
    w = np.zeros(m)
    w[support] = z / s
    w[support[int(np.argmax(np.abs(z)))]] -= w.sum() - 1.0
    coding = Coding(w)
    anchors = AnchorSet(V)
    r = V @ w
    h = r + rng.ball_point(dim, 0.5)
    radius = max(
        1.0,
        float(np.sqrt(np.sum(r * r))),
        float(np.sqrt(np.sum(h * h))),
    ) + 1e-9
    return anchors, coding, h, radius
