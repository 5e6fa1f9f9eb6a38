"""Small dense networks with hand-written forward and backward passes.

Weights are (in_dim, out_dim); rows of a batch multiply from the left,
y = act(x @ W + b).  A network computes in the dtype of its `flat`:
float64 everywhere except inside `gan.train_gan`, which trains float32
copies and writes them back widened.  `ACTIVATIONS` and the GAN's `PHIS`
are the only lists of their names; config checks keys against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import LccgenError
from ..rng import Rng


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)), one operation at a time in one buffer.  exp(-z)
    overflows to inf for z below about -88 in float32 (-745 in float64),
    where 1 / (1 + inf) = 0 is the right value, so the overflow is silent."""
    with np.errstate(over="ignore"):
        y = np.negative(z, out=out)
        return np.divide(1.0, np.add(np.exp(y, out=y), 1.0, out=y), out=y)


# activation name -> (f, f'): y = f(z, out=None) of the pre-activation z,
# written into `out` when given (out=z computes in place) and leaving z alone
# otherwise; and the derivative f'(z) written as a function of the output y,
# so backward reads it off forward_cached's outputs.  identity's f' is None:
# backward passes the gradient through it unchanged.  The order is a file
# format: a checkpoint stores each layer's activation as its position here
# (serialize), so new names go at the end.
ACTIVATIONS = {
    "identity": (np.positive, None),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out), lambda y: y > 0.0),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "sigmoid": (_sigmoid, lambda y: y * (1.0 - y)),
}

EPS_PHI = 1e-7


def _clip_phi(t):
    return np.clip(t, EPS_PHI, 1.0 - EPS_PHI)


# GAN measuring function name -> (phi, phi'), both functions of a
# discriminator score t; "log" clamps t to [EPS_PHI, 1 - EPS_PHI]
PHIS = {
    "log": (lambda t: np.log(_clip_phi(t)),
            lambda t: np.where((t > EPS_PHI) & (t < 1.0 - EPS_PHI), 1.0 / _clip_phi(t), 0.0)),
    "identity": (lambda t: t, np.ones_like),
}


class TrainingDivergedError(LccgenError):
    """Training drove a loss or a network parameter to a non-finite value."""


@dataclass
class Layer:
    w: np.ndarray
    b: np.ndarray
    act: str


def _layer_views(vec, layers):
    """(w, b) views of a vector laid out like Mlp.flat, one pair per layer."""
    views, off = [], 0
    for layer in layers:
        rows, cols = layer.w.shape
        w = vec[off:off + rows * cols].reshape(rows, cols)
        off += rows * cols
        views.append((w, vec[off:off + cols]))
        off += cols
    return views


def _layer_forward(layer: Layer, x):
    """act(x @ w + b), computed in the one array x @ w allocates."""
    y = x @ layer.w
    y += layer.b
    return ACTIVATIONS[layer.act][0](y, out=y)


class Mlp:
    """Layers holding views of one vector, `flat` (layer by layer, w then b),
    into which the given layers' arrays are copied, cast to `dtype`.  The
    passes compute in flat's dtype and cast their inputs to it."""

    def __init__(self, layers, dtype=np.float64):
        self.flat = np.empty(sum(layer.w.size + layer.b.size for layer in layers), dtype=dtype)
        self.layers = []
        for (w, b), layer in zip(_layer_views(self.flat, layers), layers):
            w[...] = layer.w
            b[...] = layer.b
            self.layers.append(Layer(w, b, layer.act))

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    def forward(self, x):
        x = np.asarray(x, dtype=self.flat.dtype)
        single = x.ndim == 1
        y = x[None, :] if single else x
        if y.shape[1] != self.in_dim:
            raise ValueError(f"input dim {y.shape[1]}, network expects {self.in_dim}")
        for layer in self.layers:
            y = _layer_forward(layer, y)
        return y[0] if single else y


def build_mlp(dims, acts, rng: Rng) -> Mlp:
    """He-normal init for relu layers, Xavier-normal otherwise; zero biases."""
    if len(acts) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for i, act in enumerate(acts):
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
        fan_in, fan_out = dims[i], dims[i + 1]
        if min(fan_in, fan_out) < 1:
            raise ValueError(f"layer {i} is {fan_in} x {fan_out}; every width must be at least 1")
        if act == "relu":
            std = np.sqrt(2.0 / fan_in)
        else:
            std = np.sqrt(2.0 / (fan_in + fan_out))
        w = std * rng.normals(fan_in * fan_out).reshape(fan_in, fan_out)
        layers.append(Layer(w, np.zeros(fan_out), act))
    return Mlp(layers)


def forward_cached(net: Mlp, X):
    """Forward pass keeping each layer's (input, output) pair for backprop."""
    y = np.asarray(X, dtype=net.flat.dtype)
    cache = []
    for layer in net.layers:
        x = y
        y = _layer_forward(layer, x)
        cache.append((x, y))
    return y, cache


def backward(net: Mlp, cache, d_out, params=True):
    """Gradients of a scalar loss given d(loss)/d(output).

    Returns (grads, d_input) with grads one vector laid out like net.flat;
    with params=False, (None, d_input), and the parameter gradients are not
    computed.
    """
    grads = np.empty_like(net.flat) if params else None
    views = _layer_views(grads, net.layers) if params else None
    dy = np.asarray(d_out, dtype=net.flat.dtype)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        x, y = cache[i]
        deriv = ACTIVATIONS[layer.act][1]
        dz = dy if deriv is None else dy * deriv(y)
        if params:
            gw, gb = views[i]
            np.matmul(x.T, dz, out=gw)
            dz.sum(axis=0, out=gb)
        dy = dz @ layer.w.T
    return grads, dy


def check_finite(net: Mlp, where: str):
    if np.all(np.isfinite(net.flat)):
        return
    for i, layer in enumerate(net.layers):
        if not (np.all(np.isfinite(layer.w)) and np.all(np.isfinite(layer.b))):
            raise TrainingDivergedError(f"non-finite parameters in layer {i} after {where}")
