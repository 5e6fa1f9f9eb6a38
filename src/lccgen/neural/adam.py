"""Adam with bias correction, operating on one flat parameter array."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1, BETA2, EPS = 0.5, 0.999, 1e-8  # fixed: the trainers set only lr


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(p) -> AdamState:
    return AdamState(np.zeros_like(p), np.zeros_like(p))


def adam_step(p, g, state: AdamState, lr=2e-4):
    """One descent step, updating the parameter array p and the moment
    buffers in place, with two scratch arrays:
    p -= (lr * m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPS)."""
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    step = np.multiply(1.0 - BETA1, g)
    m *= BETA1
    m += step
    np.multiply(1.0 - BETA2, g, out=step)
    step *= g
    v *= BETA2
    v += step
    np.divide(m, 1.0 - BETA1**t, out=step)
    step *= lr
    denom = np.divide(v, 1.0 - BETA2**t)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    p -= step
