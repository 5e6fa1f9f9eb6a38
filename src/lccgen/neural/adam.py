"""Adam with bias correction, operating on one flat parameter array."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(p) -> AdamState:
    return AdamState(np.zeros_like(p), np.zeros_like(p))


def adam_step(p, g, state: AdamState, lr=2e-4, beta1=0.5, beta2=0.999, eps=1e-8):
    """One descent step, updating the parameter array p and the moment
    buffers in place, with two scratch arrays:
    p -= (lr * m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)."""
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    step = np.multiply(1.0 - beta1, g)
    m *= beta1
    m += step
    np.multiply(1.0 - beta2, g, out=step)
    step *= g
    v *= beta2
    v += step
    np.divide(m, 1.0 - beta1**t, out=step)
    step *= lr
    denom = np.divide(v, 1.0 - beta2**t)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    p -= step
