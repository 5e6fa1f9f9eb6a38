"""Adam with bias correction, operating on lists of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def init_adam(params) -> AdamState:
    return AdamState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr=2e-4, beta1=0.5, beta2=0.999, eps=1e-8):
    """One descent step, updating the parameter arrays and the moment
    buffers in place."""
    state.t += 1
    t = state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += ((1.0 - beta2) * g) * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= (lr * m_hat) / (np.sqrt(v_hat) + eps)
