"""Autoencoder training: embeds data into the latent space anchors live in."""

from __future__ import annotations

import numpy as np

from ..config import AutoencoderConfig
from ..rng import Rng
from .adam import adam_step, init_adam
from .net import Mlp, TrainingDivergedError, build_mlp, backward, check_finite, forward_cached


def reconstruction_mse(encoder: Mlp, decoder: Mlp, data) -> float:
    """Mean over all entries of the squared reconstruction error."""
    X = np.asarray(data, dtype=np.float64)
    diff = decoder.forward(encoder.forward(X)) - X
    return float(np.mean(diff * diff))


def ae_loss_and_grads(encoder: Mlp, decoder: Mlp, batch):
    X = np.asarray(batch, dtype=np.float64)
    z, enc_cache = forward_cached(encoder, X)
    xhat, dec_cache = forward_cached(decoder, z)
    diff = xhat - X
    loss = float(np.mean(diff * diff))
    d_xhat = 2.0 * diff / diff.size
    dec_grads, dz = backward(decoder, dec_cache, d_xhat)
    enc_grads, _ = backward(encoder, enc_cache, dz)
    return loss, enc_grads, dec_grads


def train_autoencoder(data, config: AutoencoderConfig, seed: int):
    """Returns (encoder, decoder, per-epoch loss history).

    Hidden layers use `config.activation`, outputs are linear;
    `activation="identity"` gives a purely linear autoencoder.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("data must be a nonempty (n, dim) array")
    n, dim = X.shape
    rng = Rng(seed)
    acts = [config.activation, "identity"]
    encoder = build_mlp([dim, config.hidden, config.latent_dim], acts, rng)
    decoder = build_mlp([config.latent_dim, config.hidden, dim], acts, rng)
    state = init_adam([encoder.flat, decoder.flat])
    history = []
    for epoch in range(config.epochs):
        order = np.argsort(rng.uniforms(n), kind="stable")
        for start in range(0, n, config.batch):
            idx = order[start : start + config.batch]
            loss, enc_grads, dec_grads = ae_loss_and_grads(encoder, decoder, X[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            adam_step([encoder.flat, decoder.flat], [enc_grads, dec_grads], state, lr=config.lr)
            check_finite(encoder, f"epoch {epoch}")
            check_finite(decoder, f"epoch {epoch}")
        history.append(reconstruction_mse(encoder, decoder, X))
    return encoder, decoder, history
