"""Small dense networks with hand-written forward and backward passes.

Weights are (in_dim, out_dim); rows of a batch multiply from the left,
y = act(x @ W + b).  A network computes in the dtype of its `flat`:
float64 everywhere except inside the two trainers,
`autoencoder.train_autoencoder` and `gan.train_gan`, which train float32
copies on data cast by `as_float32_data` and hand back float64 networks
holding the trained weights exactly.  `ACTIVATIONS` and the GAN's `PHIS`
are the only lists of their names; config checks keys against them.

The passes compute only what their callers read, with the float operations
of the plain formulas: identity layers skip their activation, `backward`
skips the parameter or input gradient a caller discards, multiplies by
each derivative in arrays of its own and writes parameter gradients into
a `grad_buffer` its caller keeps for a whole training run, and each `PHIS`
entry maps a score array t to (phi(t), phi'(t)) from one clamp of t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import LccgenError
from ..rng import Rng


def _mean(a):
    """np.mean's value, as sum / size in a's dtype, without its wrapper."""
    return np.add.reduce(a, axis=None) / a.size


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)), one operation at a time in one buffer.  exp(-z)
    overflows to inf for z below about -88 in float32 (-745 in float64),
    where 1 / (1 + inf) = 0 is the right value, so the overflow is silent."""
    with np.errstate(over="ignore"):
        y = np.negative(z, out=out)
        return np.divide(1.0, np.add(np.exp(y, out=y), 1.0, out=y), out=y)


def _relu_grad(y, dy, out=None):
    return np.multiply(dy, y > 0.0, out=out)


def _tanh_grad(y, dy, out=None):
    d = np.multiply(y, y)
    np.subtract(1.0, d, out=d)
    return np.multiply(dy, d, out=d if out is None else out)


def _sigmoid_grad(y, dy, out=None):
    d = np.subtract(1.0, y)
    d *= y
    return np.multiply(dy, d, out=d if out is None else out)


# activation name -> (f, g): y = f(z, out=None) of the pre-activation z,
# written into `out` when given (out=z computes in place) and leaving z alone
# otherwise; and the backward step g(y, dy, out=None) = dy * f'(z), with f'
# written as a function of the output y (relu y > 0, tanh 1 - y*y, sigmoid
# y*(1 - y)), so backward reads it off forward_cached's outputs.  g writes
# into `out` when given (out=dy is allowed) and else into an array of its
# own, never into y or dy.  identity's g is None: its layers skip f on the
# way forward and pass the gradient through unchanged on the way back.
# The order is a file format: a checkpoint stores each layer's activation as
# its position here (serialize), so new names go at the end.
ACTIVATIONS = {
    "identity": (np.positive, None),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out), _relu_grad),
    "tanh": (np.tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
}

EPS_PHI = 1e-7


def _log_phi(t):
    c = np.maximum(t, EPS_PHI)
    np.minimum(c, 1.0 - EPS_PHI, out=c)
    inside = np.greater(c, EPS_PHI)
    inside &= c < 1.0 - EPS_PHI
    return np.log(c), np.divide(1.0, c, out=np.zeros(c.shape, c.dtype), where=inside)


# GAN measuring function name -> t -> (phi(t), phi'(t)) of a discriminator
# score array t, both in t's dtype.  "log" clamps t once, to c in
# [EPS_PHI, 1 - EPS_PHI], and gives log c, and 1/c where t lies strictly
# inside that range (0 elsewhere, NaN included); "identity" gives t itself
# and ones.  phi' is always a fresh array, which the caller may scale in
# place.
PHIS = {
    "log": _log_phi,
    "identity": lambda t: (t, np.ones(t.shape, t.dtype)),
}


class TrainingDivergedError(LccgenError):
    """Training drove a loss or a network parameter to a non-finite value."""


def as_float32_data(data, trainer: str):
    """The nonempty (n, dim) array `data` cast to float32 for the named
    trainer; a ValueError if it has another shape, or if some |x| is beyond
    float32's range, where the cast would give inf."""
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("data must be a nonempty (n, dim) array")
    top, limit = max(float(np.max(X)), -float(np.min(X))), float(np.finfo(np.float32).max)
    if not top <= limit:
        raise ValueError(f"{trainer} training runs in float32, but the data reach "
                         f"|x| = {top:.9g}, beyond its largest value {limit:.9g}")
    return X.astype(np.float32)


@dataclass
class Layer:
    w: np.ndarray
    b: np.ndarray
    act: str


def _layer_forward(layer: Layer, x):
    """act(x @ w + b), computed in the one array x @ w allocates."""
    y = x @ layer.w
    y += layer.b
    return y if layer.act == "identity" else ACTIVATIONS[layer.act][0](y, out=y)


class Mlp:
    """Layers holding views of one vector, `flat` (layer by layer, w then b),
    into which the given layers' arrays are copied, cast to `dtype`.  The
    passes compute in flat's dtype and cast their inputs to it."""

    def __init__(self, layers, dtype=np.float64):
        self.flat = np.empty(sum(layer.w.size + layer.b.size for layer in layers), dtype=dtype)
        self.layers = []
        off = 0
        for layer in layers:
            rows, cols = layer.w.shape
            w = self.flat[off:off + rows * cols].reshape(rows, cols)
            off += rows * cols
            b = self.flat[off:off + cols]
            off += cols
            w[...] = layer.w
            b[...] = layer.b
            self.layers.append(Layer(w, b, layer.act))

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    def forward(self, x):
        """The outputs of an (n, in_dim) batch, one row per input row."""
        y = np.asarray(x, dtype=self.flat.dtype)
        if y.ndim != 2 or y.shape[1] != self.in_dim:
            raise ValueError(f"input has shape {y.shape}, network expects (n, {self.in_dim})")
        for layer in self.layers:
            y = _layer_forward(layer, y)
        return y


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


def backward(net: Mlp, cache, d_out, grads=None, inputs=True):
    """Gradients of a scalar loss given d(loss)/d(output).

    `grads`, an Mlp shaped like net (see `grad_buffer`), receives the
    parameter gradients: each layer's w and b are overwritten, so its flat
    is the gradient vector laid out like net.flat.  Returns (grads.flat,
    d_input); grads=None gives None there and inputs=False None for d_input,
    and that gradient is not computed.  d_out is never written: each
    dy * f'(y) goes into an array made here, in place once there is one.
    """
    dy = np.asarray(d_out, dtype=net.flat.dtype)
    own = False  # whether dy is an array of this call's, free to overwrite
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        x, y = cache[i]
        grad = ACTIVATIONS[layer.act][1]
        dz = dy if grad is None else grad(y, dy, out=dy if own else None)
        if grads is not None:
            g = grads.layers[i]
            np.matmul(x.T, dz, out=g.w)
            np.add.reduce(dz, axis=0, out=g.b)
        if i or inputs:
            dy, own = dz @ layer.w.T, True
    return (None if grads is None else grads.flat), (dy if inputs else None)


def grad_buffer(net: Mlp) -> Mlp:
    """An Mlp shaped like net, in its dtype, for `backward` to fill; its
    contents until then are net's parameters."""
    return Mlp(net.layers, net.flat.dtype)


def check_finite(net: Mlp, where: str):
    """Raises TrainingDivergedError naming the first layer with a non-finite
    parameter.  One sum covers them all: it is finite only if every
    parameter is, and the layers are scanned only when it is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.add.reduce(net.flat)):
            return
    for i, layer in enumerate(net.layers):
        if not (np.all(np.isfinite(layer.w)) and np.all(np.isfinite(layer.b))):
            raise TrainingDivergedError(f"non-finite parameters in layer {i} after {where}")
