"""Adversarial training where the generator consumes anchor codings.

The generator maps an m-dimensional sum-to-one coding straight to data
space; the discriminator scores data-space points.  One discriminator
ascent step alternates with one generator descent step:

    J_D = mean phi(D(x)) + mean phi(1 - D(G(g)))     (ascend in D)
    J_G = mean phi(1 - D(G(g)))                       (descend in G)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import GanConfig, SamplerConfig
from ..lcc.core import AnchorSet
from ..lcc.sampling import neighbor_table, walk_codings
from ..rng import Rng
from .adam import AdamState, adam_step, init_adam
from .net import (PHIS, Mlp, TrainingDivergedError, backward, build_mlp, check_finite,
                  forward_cached)


@dataclass
class GanModel:
    generator: Mlp
    discriminator: Mlp
    phi: str  # a key of net.PHIS
    gen_state: AdamState
    disc_state: AdamState


def build_gan(data_dim: int, m: int, gan: GanConfig = GanConfig(), seed: int = 0) -> GanModel:
    """Both networks, each with hidden layers of width `gan.hidden`, and
    their Adam states."""
    rng = Rng(seed)
    gen = build_mlp([m, gan.hidden, gan.hidden, data_dim],
                    ["relu", "relu", gan.generator_output], rng)
    disc_out = "sigmoid" if gan.phi == "log" else "identity"
    disc = build_mlp([data_dim, gan.hidden, gan.hidden, 1], ["relu", "relu", disc_out], rng)
    return GanModel(gen, disc, gan.phi, init_adam(gen.flat), init_adam(disc.flat))


def disc_objective_and_grads(gan: GanModel, reals, codings):
    """J_D and its gradient in the discriminator parameters."""
    n = reals.shape[0]
    fakes = gan.generator.forward(codings)
    score_r, cache_r = forward_cached(gan.discriminator, reals)
    score_f, cache_f = forward_cached(gan.discriminator, fakes)
    phi, dphi = PHIS[gan.phi]
    value = float(np.mean(phi(score_r)) + np.mean(phi(1.0 - score_f)))
    d_r = dphi(score_r) / n
    d_f = -dphi(1.0 - score_f) / codings.shape[0]
    grads, _ = backward(gan.discriminator, cache_r, d_r)
    grads += backward(gan.discriminator, cache_f, d_f)[0]
    return value, grads


def gen_objective_and_grads(gan: GanModel, codings):
    """J_G and its gradient in the generator parameters (discriminator frozen)."""
    n = codings.shape[0]
    fakes, cache_g = forward_cached(gan.generator, codings)
    score_f, cache_d = forward_cached(gan.discriminator, fakes)
    phi, dphi = PHIS[gan.phi]
    value = float(np.mean(phi(1.0 - score_f)))
    d_f = -dphi(1.0 - score_f) / n
    _, d_fakes = backward(gan.discriminator, cache_d, d_f, params=False)
    grads, _ = backward(gan.generator, cache_g, d_fakes)
    return value, grads


def train_gan(data, anchors: AnchorSet, sampler: SamplerConfig, model: GanModel,
              gan: GanConfig, seed: int):
    """Runs `gan.iters` alternating updates on `model` in place; returns
    (model, trace) where trace[i] = (d_objective, g_objective) as evaluated
    before each update.

    Training runs on float32 copies of both networks and their Adam states,
    the first step of Micikevicius et al., "Mixed Precision Training" (ICLR
    2018), who go on to float16 arithmetic.  The data are cast once, and
    each batch of codings at the generator's input.  The trained values are
    written back into the model's float64 arrays, which hold them exactly,
    so checkpoints keep their format.  Zero iterations leave the model as
    built."""
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("data must be a nonempty (n, dim) array")
    if X.shape[1] != model.discriminator.in_dim:
        raise ValueError("data dim does not match the discriminator input")
    if anchors.m != model.generator.in_dim:
        raise ValueError("anchor count does not match the generator input")
    if gan.iters == 0:
        return model, []
    X = X.astype(np.float32)
    gen_state, disc_state = (AdamState(s.m.astype(np.float32), s.v.astype(np.float32), s.t)
                             for s in (model.gen_state, model.disc_state))
    work = GanModel(Mlp(model.generator.layers, np.float32),
                    Mlp(model.discriminator.layers, np.float32), model.phi, gen_state, disc_state)
    n, b = X.shape[0], gan.batch
    # per iteration the stream gives D's codings, the data indices, then G's codings
    stream = walk_codings(neighbor_table(anchors, sampler.d), sampler, Rng(seed),
                          [(b, b), (b, 0)] * gan.iters)
    adam = {"lr": gan.lr, "beta1": gan.beta1, "beta2": gan.beta2}
    trace = []
    for it in range(gan.iters):
        codings, u = next(stream)
        idx = np.minimum((u * n).astype(np.int64), n - 1)
        d_val, d_grads = disc_objective_and_grads(work, X[idx], codings)
        if not np.isfinite(d_val):
            raise TrainingDivergedError(f"non-finite discriminator objective at iteration {it}")
        adam_step(work.discriminator.flat, np.negative(d_grads, out=d_grads),
                  work.disc_state, **adam)
        check_finite(work.discriminator, f"iteration {it}")

        codings, _ = next(stream)
        g_val, g_grads = gen_objective_and_grads(work, codings)
        if not np.isfinite(g_val):
            raise TrainingDivergedError(f"non-finite generator objective at iteration {it}")
        adam_step(work.generator.flat, g_grads, work.gen_state, **adam)
        check_finite(work.generator, f"iteration {it}")
        trace.append((d_val, g_val))
    model.generator.flat[...] = work.generator.flat
    model.discriminator.flat[...] = work.discriminator.flat
    for state, src in ((model.gen_state, work.gen_state), (model.disc_state, work.disc_state)):
        state.m[...], state.v[...], state.t = src.m, src.v, src.t
    return model, trace
