"""A fixed reference kernel that gauges how fast the machine runs right now.

The kernel never changes and does not use lccgen.  It mixes the three kinds
of work lccgen's hot paths do, in roughly equal shares of time:

- a Python loop making one small numpy call chain per item (the per-draw
  sampler and the single-point coding solve);
- column sweeps of vector operations over a 2,000-row array (the batched
  coding solve in learn-lcc);
- forward and backward passes of a small tanh MLP (the GAN and autoencoder).

A shared VM's speed drifts by tens of percent over seconds to minutes.  The
benchmark times this kernel between the operations it measures and scales
each operation's time by REFERENCE_S / (kernel time around it), so that the
drift cancels from the scaled timings.
"""

from __future__ import annotations

import time

import numpy as np

# nominal kernel time: scaled timings read as seconds on a machine that runs
# the kernel in this long (about the median of a 2-vCPU x86 VM)
REFERENCE_S = 0.035

_rs = np.random.default_rng(20081942)
_ANCHORS = _rs.standard_normal((2, 16))
_QUERIES = _rs.standard_normal((800, 2))
_H = _rs.standard_normal((2000, 2))
_G = np.full((2000, 16), 1.0 / 16)
_W1 = 0.1 * _rs.standard_normal((2, 64))
_W2 = 0.1 * _rs.standard_normal((64, 64))
_X = _rs.standard_normal((64, 2))


def _per_item():
    acc = 0.0
    for q in _QUERIES:
        diff = _ANCHORS - q[:, None]
        d2 = np.sum(diff * diff, axis=0)
        order = np.argsort(d2, kind="stable")[:2]
        w = np.zeros(16)
        w[order] = d2[order] / float(d2[order].sum())
        acc += float(w.max())
    return acc


def _sweeps():
    G = _G.copy()
    E = _H - G @ _ANCHORS.T
    for _ in range(12):
        beta = 1.0 / np.sqrt(np.sum(E * E, axis=1) + 1e-12)
        for j in range(16):
            vj = _ANCHORS[:, j]
            s = E @ vj + G[:, j]
            t = np.sign(s) * np.maximum(np.abs(s * beta) - 0.1, 0.0)
            E -= (t - G[:, j])[:, None] * vj[None, :]
            G[:, j] = t
    return float(G.sum())


def _mlp():
    acc = 0.0
    for _ in range(150):
        a1 = np.tanh(_X @ _W1)
        a2 = np.tanh(a1 @ _W2)
        g2 = (1.0 - a2 * a2) * a2
        g1 = (1.0 - a1 * a1) * (g2 @ _W2.T)
        acc += float((a1.T @ g2).sum() + (_X.T @ g1).sum())
    return acc


def time_kernel():
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _per_item()
    _sweeps()
    _mlp()
    return time.perf_counter() - start


def factors(kernel_s):
    """Scale factor of each interval between consecutive kernel times:
    REFERENCE_S over the mean of the two kernel times around it."""
    return [REFERENCE_S / (0.5 * (a + b)) for a, b in zip(kernel_s, kernel_s[1:])]
