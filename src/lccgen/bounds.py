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

Bulk sweep.  `bound_sweep` checks many random configurations at once.  It
walks the stream a single time: only the four `randint`s that pick a case's
shape and the rejection loop of its coding read values, and every other
request just moves the counter.  Those requests are then decoded for all
cases together from their counters (`Rng.u64_at`), each piece of work once
per shape that fixes it: configurations per (dim, m); generators and their
constants per (dim, k), the affine and the quadratic draw of a case (next to
each other in the stream) in one stack; and the gaps per (dim, k, m), both
kinds and both orders in one pass over their shared terms.  An all-zero
form's spectral norm is exactly 0, so `constants` runs no SVD for it.
`random_configuration`, `random_affine`, `random_quadratic`, `mixing_gap`
and `tangent_mixing_gap` are one-case calls of the same code.

Evaluation order.  The stacked code gives the same floats, bit for bit, as
evaluating one case, one kind and one order at a time with einsum, so
bounds.csv stays the same:

  - G's quadratic form adds (q[k,i,j] * x_i) * x_j in row-major order, as
    einsum("kij,i,j->k") does; for dim = 2, k = 1 einsum sums each row i
    first and then adds the row sums, and so does `value`;
  - the Jacobian adds q[k,i,j] * x_j over j in order, as einsum("kij,j->ki");
  - V @ w, A @ x and J @ (h - v) stay per-case BLAS matrix-vector products
    on the same memory layouts: each case's anchors are a C-ordered (dim, m)
    block, and A @ v reads the anchor through that block's column stride (a
    contiguous copy can round differently);
  - stacking kinds and orders only adds axes that broadcast, and every sum
    runs over the same axis of an array of the same layout: the sum over a
    case's m anchors stays one contiguous row, since numpy adds 8 or more
    values pairwise rather than in turn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lcc.core import AnchorSet, Coding, pin_row_sums
from .rng import Rng, normal_u64s, u64_to_ball_points, u64_to_normals, u64_to_uniforms


@dataclass
class SmoothnessConstants:
    """Floats for one generator; for a stack, arrays that broadcast against
    its leading axes, with third 0.0."""

    first: float
    second: float
    third: float


@dataclass
class QuadraticGenerator:
    """G_k(x) = x @ q[k] @ x + (A @ x)_k + b_k with each q[k] symmetric.
    Leading axes of q, a and b stack generators that act together."""

    q: np.ndarray  # (..., k, n, n)
    a: np.ndarray  # (..., k, n)
    b: np.ndarray  # (..., k)

    def __post_init__(self):
        qt = np.swapaxes(self.q, -1, -2)
        if not np.all(np.abs(self.q - qt) <= 1e-8 + 1e-5 * np.abs(qt)):  # allclose's test
            raise ValueError("each quadratic form must be symmetric")

    def value(self, x):
        """G(x) for points x (..., n) whose leading axes broadcast against
        the stack's; returns (..., k)."""
        q = self.q
        terms = (q * x[..., None, :, None]) * x[..., None, None, :]
        if q.shape[-3:] == (1, 2, 2):  # einsum's order here: row sums first
            terms = np.add.accumulate(terms, axis=-1)[..., -1]
        else:
            terms = terms.reshape(terms.shape[:-2] + (-1,))
        quad = np.add.accumulate(terms, axis=-1)[..., -1]
        return quad + np.matmul(self.a, x[..., None])[..., 0] + self.b

    def jacobian(self, x):
        """J(x), (..., k, n), for points x as in `value`."""
        return 2.0 * np.add.accumulate(self.q * x[..., None, None, :], axis=-1)[..., -1] + self.a

    def constants(self, radius) -> SmoothnessConstants:
        # ||J(x)||_2 <= ||A||_2 + 2*||x|| * sqrt(sum_k ||q_k||_2^2); the
        # second-order Taylor residual is (x'-x) @ q_k @ (x'-x) exactly, so
        # the same root-sum-square of spectral norms bounds ratio two, and
        # constant Hessians make the third-order residual vanish.  An
        # all-zero form's spectral norm is exactly 0 and needs no SVD.
        nonzero = np.any(self.q != 0.0, axis=(-2, -1))
        qnorms = np.zeros(nonzero.shape)
        qnorms[nonzero] = np.linalg.norm(self.q[nonzero], 2, axis=(-2, -1))
        rss = np.sqrt(np.sum(qnorms**2, axis=-1))
        first = np.linalg.norm(self.a, 2, axis=(-2, -1)) + 2.0 * radius * rss
        return SmoothnessConstants(first, rss, 0.0)


def _gaps(gen, V, W, h, constants):
    """(lhs, rhs) of both inequalities, each (..., 2) with the first order
    then the tangent-corrected one, for anchors V (..., dim, m), codings W
    (..., m) and points h (..., dim) whose leading axes broadcast against
    gen's stack."""
    r = np.matmul(V, W[..., None])[..., 0]
    rec_err = np.sqrt(np.sum((h - r) ** 2, axis=-1))
    dist_r = np.sqrt(np.sum((V - r[..., None]) ** 2, axis=-2))
    X = np.moveaxis(V, -1, 0)  # (m, ..., dim): anchor j is X[j], a column view of V
    at_anchors = gen.value(X)
    # C-ordered operands, as the per-anchor J and h - v are: BLAS may round
    # a strided matrix-vector product differently
    half_j = np.ascontiguousarray(0.5 * gen.jacobian(X))
    step = np.subtract(h, X, order="C")[..., None]
    terms = np.stack([at_anchors, at_anchors + np.matmul(half_j, step)[..., 0]], axis=-2)
    # zero weights add exact zeros, so summing every anchor in order equals
    # summing the support in order
    mixed = np.add.accumulate(np.moveaxis(W, -1, 0)[..., None, None] * terms, axis=0)[-1]
    lhs = np.sqrt(np.sum((gen.value(r)[..., None, :] - mixed) ** 2, axis=-1))
    shared = 2.0 * constants.first * rec_err
    weights = np.abs(W)
    rhs = np.stack([shared + constants.second * np.sum(weights * dist_r**2, axis=-1),
                    shared + constants.third * np.sum(weights * dist_r**3, axis=-1)], axis=-1)
    return lhs, rhs


def mixing_gap(gen, coding: Coding, anchors: AnchorSet, h, constants: SmoothnessConstants):
    """(lhs, rhs) of the first-order inequality; lhs <= rhs when the
    constants are valid on the hull of the configuration."""
    lhs, rhs = _gaps(gen, anchors.anchors, coding.weights, np.asarray(h, dtype=np.float64),
                     constants)
    return float(lhs[0]), float(rhs[0])


def tangent_mixing_gap(gen, coding: Coding, anchors: AnchorSet, h, constants: SmoothnessConstants):
    """(lhs, rhs) of the tangent-corrected inequality."""
    lhs, rhs = _gaps(gen, anchors.anchors, coding.weights, np.asarray(h, dtype=np.float64),
                     constants)
    return float(lhs[1]), float(rhs[1])


def _skip(rng: Rng, count: int) -> int:
    """Moves rng past count u64s; returns the counter it started from."""
    start = rng.counter
    rng.counter += count
    return start


KINDS = ("affine", "quadratic")  # bound_sweep's kind axis


def _generator_sizes(n: int, k: int, kinds):
    """Normals per request of random_quadratic (or random_affine) for each
    kind in turn: q's raw entries, then A, then b."""
    return [size for kind in kinds
            for size in ([k * n * n] if kind == "quadratic" else []) + [k * n, k]]


def _walk_generator(rng: Rng, n: int, k: int, kinds=KINDS) -> int:
    return _skip(rng, sum(normal_u64s(size) for size in _generator_sizes(n, k, kinds)))


def _generators(rng: Rng, starts, n: int, k: int, kinds=KINDS):
    """Stacked (q, a, b), (N, len(kinds), ...), of the generators of the
    given kinds (names from KINDS) drawn one after another after each of
    the N counters in starts."""
    sizes = _generator_sizes(n, k, kinds)
    edges = np.cumsum([0] + [normal_u64s(size) for size in sizes])
    bits = rng.u64_at(np.asarray(starts)[:, None] + np.arange(1, edges[-1] + 1))
    normals = (u64_to_normals(bits[:, lo:hi], size)
               for size, lo, hi in zip(sizes, edges, edges[1:]))
    q = np.zeros((len(bits), len(kinds), k, n, n))
    a = np.empty((len(bits), len(kinds), k, n))
    b = np.empty((len(bits), len(kinds), k))
    for i, kind in enumerate(kinds):
        if kind == "quadratic":
            raw = next(normals).reshape(-1, k, n, n)
            q[:, i] = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        a[:, i] = next(normals).reshape(-1, k, n)
        b[:, i] = next(normals)
    return q, a, b


def random_affine(rng: Rng, n: int, k: int) -> QuadraticGenerator:
    """G(x) = A @ x + b: a quadratic map with zero forms."""
    parts = _generators(rng, [_walk_generator(rng, n, k, ("affine",))], n, k, ("affine",))
    return QuadraticGenerator(*(p[0, 0] for p in parts))


def random_quadratic(rng: Rng, n: int, k: int) -> QuadraticGenerator:
    parts = _generators(rng, [_walk_generator(rng, n, k, ("quadratic",))], n, k, ("quadratic",))
    return QuadraticGenerator(*(p[0, 0] for p in parts))


def _walk_configuration(rng: Rng, dim: int, m: int, d: int):
    """Moves rng past one configuration's draws: m ball points, m support
    uniforms, normals until the coding's guard accepts them, then h's ball
    point.  Only the guard's normals are read.  Returns (start, z, s,
    h_start): the counter before the draws, the accepted normals and their
    sum, and the counter before h's ball point."""
    start = _skip(rng, m * (normal_u64s(dim) + 1) + m)
    while True:
        z = rng.normals(d)
        s = float(z.sum())
        if abs(s) >= 0.3 and np.sum(np.abs(z / s)) <= 3.0:
            break
    return start, z, s, _skip(rng, normal_u64s(dim) + 1)


def _configurations(rng: Rng, dim: int, m: int, walks):
    """Stacked (V, W, h, radius) of the configurations that
    _walk_configuration walked, all of one (dim, m)."""
    starts, zs, sums, h_starts = zip(*walks)
    n = len(walks)
    starts = np.asarray(starts)[:, None]
    ball = normal_u64s(dim) + 1
    bits = rng.u64_at(starts + np.arange(1, m * ball + 1)).reshape(n, m, ball)
    V = np.ascontiguousarray(np.swapaxes(u64_to_ball_points(bits, dim, 1.0), -1, -2))
    support = np.argsort(u64_to_uniforms(rng.u64_at(starts + m * ball + np.arange(1, m + 1))),
                         axis=1, kind="stable")
    Z = np.zeros((n, max(len(z) for z in zs)))
    for i, z in enumerate(zs):
        Z[i, :len(z)] = z
    case, slot = np.nonzero(np.arange(Z.shape[1]) < np.array([len(z) for z in zs])[:, None])
    W = np.zeros((n, m))
    W[case, support[case, slot]] = (Z / np.array(sums)[:, None])[case, slot]
    pin_row_sums(W)
    r = np.matmul(V, W[..., None])[..., 0]
    bits = rng.u64_at(np.asarray(h_starts)[:, None] + np.arange(1, ball + 1))
    h = r + u64_to_ball_points(bits, dim, 0.5)
    radius = np.maximum(np.maximum(1.0, np.sqrt(np.sum(r * r, axis=-1))),
                        np.sqrt(np.sum(h * h, axis=-1))) + 1e-9
    return V, W, h, radius


def random_configuration(rng: Rng, dim: int, m: int, d: int):
    """Random anchors in the unit ball, a d-sparse sum-to-one coding with
    bounded L1 mass, and h = r(h) + a perturbation of radius <= 0.5.

    Returns (anchors, coding, h, radius) with radius covering the hull of
    everything visited, so generator constants computed at that radius are
    valid for the configuration.
    """
    V, W, h, radius = _configurations(rng, dim, m, [_walk_configuration(rng, dim, m, d)])
    return AnchorSet(V[0]), Coding(W[0]), h[0], float(radius[0])


def _take(constants: SmoothnessConstants, rows) -> SmoothnessConstants:
    """The constants of the generators `rows` picks from a stack; a scalar
    holds for every generator."""
    return SmoothnessConstants(*(c[rows] if np.ndim(c) else c for c in vars(constants).values()))


def bound_sweep(rng: Rng, cases: int):
    """(lhs, rhs) of both inequalities on `cases` random configurations, as
    (cases, 2, 2) arrays indexed [case, kind, order - 1], kind i being the
    KINDS[i] generator.  Case by case the stream is read as this loop would
    read it, which is also where rng ends:

        dim, k = 2 + rng.randint(3), 1 + rng.randint(3)
        m = 4 + rng.randint(5)
        d = 2 + rng.randint(min(3, m - 1))
        random_configuration(rng, dim, m, d)
        random_affine(rng, dim, k), random_quadratic(rng, dim, k)
    """
    walks, draws, ms = {}, {}, np.empty(cases, dtype=np.int64)
    for case in range(cases):
        dim = 2 + rng.randint(3)
        k = 1 + rng.randint(3)
        m = ms[case] = 4 + rng.randint(5)
        d = 2 + rng.randint(min(3, m - 1))
        walks.setdefault((dim, m), []).append((case, _walk_configuration(rng, dim, m, d)))
        draws.setdefault((dim, k), []).append((case, _walk_generator(rng, dim, k)))
    # a case's configuration is row slot[case] of points[dim, m], with a
    # kind axis that broadcasts against the generator stacks
    points, slot, radius = {}, np.empty(cases, dtype=np.int64), np.empty(cases)
    for (dim, m), members in walks.items():
        idx, group = map(list, zip(*members))
        V, W, h, radius[idx] = _configurations(rng, dim, m, group)
        points[dim, m] = V[:, None], W[:, None], h[:, None]
        slot[idx] = np.arange(len(idx))
    lhs = np.empty((cases, 2, 2))
    rhs = np.empty((cases, 2, 2))
    for (dim, k), members in draws.items():
        idx, group = zip(*members)
        idx = np.array(idx)
        q, a, b = _generators(rng, group, dim, k)
        constants = QuadraticGenerator(q, a, b).constants(radius[idx, None])
        for m in np.unique(ms[idx]):
            rows = np.flatnonzero(ms[idx] == m)
            case = idx[rows]
            gen = QuadraticGenerator(q[rows], a[rows], b[rows])
            V, W, h = (part[slot[case]] for part in points[dim, m])
            lhs[case], rhs[case] = _gaps(gen, V, W, h, _take(constants, rows))
    return lhs, rhs
