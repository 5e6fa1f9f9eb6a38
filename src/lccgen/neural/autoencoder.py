"""Autoencoder training: embeds data into the latent space anchors live in."""

from __future__ import annotations

import numpy as np

from ..config import AutoencoderConfig
from ..rng import Rng
from .adam import adam_step, init_adam
from .net import (Mlp, TrainingDivergedError, _mean, as_float32_data, build_mlp, backward,
                  check_finite, forward_cached, grad_buffer)


def reconstruction_mse(ae: Mlp, data) -> float:
    """Mean over all entries of the squared reconstruction error of `ae`,
    the encoder's layers followed by the decoder's, in ae's dtype."""
    X = np.asarray(data, dtype=ae.flat.dtype)
    diff = ae.forward(X)
    diff -= X
    diff *= diff
    return float(_mean(diff))


def ae_loss_and_grads(ae: Mlp, batch, grads: Mlp):
    """The batch's reconstruction MSE and its gradient, written into the
    `grad_buffer` grads and returned as grads.flat, both in ae's dtype."""
    X = np.asarray(batch, dtype=ae.flat.dtype)
    xhat, cache = forward_cached(ae, X)
    diff = xhat - X
    loss = float(_mean(diff * diff))
    diff *= 2.0
    diff /= diff.size
    return loss, backward(ae, cache, diff, grads, inputs=False)[0]


def train_autoencoder(data, config: AutoencoderConfig, seed: int):
    """Returns (encoder, decoder, per-epoch loss history).

    Hidden layers use `config.activation`, outputs are linear;
    `activation="identity"` gives a purely linear autoencoder.  Training
    steps one four-layer network, the encoder's two layers then the
    decoder's, so a divergence error's layer index counts encoder layers
    0-1, then decoder layers 2-3.

    As `gan.train_gan` does, training runs on a float32 copy of the network
    with float32 Adam moments made for the call, on the data cast once to
    float32; data beyond float32's range are refused.  Each epoch's loss is
    the reconstruction MSE of all the data on that copy.  The two returned
    networks are float64 and hold the trained float32 weights exactly.
    Overflow anywhere in a step shows as a non-finite loss or parameter,
    which raises TrainingDivergedError, so numpy's warnings are silenced.
    """
    X = as_float32_data(data, "autoencoder")
    n, dim = X.shape
    rng = Rng(seed)
    ae = Mlp(build_mlp([dim, config.hidden, config.latent_dim, config.hidden, dim],
                       [config.activation, "identity"] * 2, rng).layers, np.float32)
    state, buffer = init_adam(ae.flat), grad_buffer(ae)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            shuffled = X[np.argsort(rng.uniforms(n), kind="stable")]
            for start in range(0, n, config.batch):
                batch = shuffled[start : start + config.batch]
                loss, grads = ae_loss_and_grads(ae, batch, buffer)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
                adam_step(ae.flat, grads, state, lr=config.lr)
                check_finite(ae, f"epoch {epoch}")
            history.append(reconstruction_mse(ae, X))
            if not np.isfinite(history[-1]):
                raise TrainingDivergedError(f"non-finite reconstruction MSE after epoch {epoch}")
    return Mlp(ae.layers[:2]), Mlp(ae.layers[2:]), history
