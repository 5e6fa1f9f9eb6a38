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
from ..lcc.sampling import walk_codings
from ..rng import Rng
from .adam import adam_step, init_adam
from .net import (PHIS, Mlp, TrainingDivergedError, _mean, as_float32_data, backward, build_mlp,
                  check_finite, forward_cached, grad_buffer)


# discriminator output -> its key of net.PHIS; phi is read off that layer, as checkpoints keep it
_PHI_OF_OUTPUT = {"sigmoid": "log", "identity": "identity"}


@dataclass
class GanModel:
    generator: Mlp
    discriminator: Mlp


def build_gan(data_dim: int, m: int, gan: GanConfig = GanConfig(), seed: int = 0) -> GanModel:
    """Both networks, each with hidden layers of width `gan.hidden`."""
    rng = Rng(seed)
    gen = build_mlp([m, gan.hidden, gan.hidden, data_dim],
                    ["relu", "relu", gan.generator_output], rng)
    disc_out = {phi: out for out, phi in _PHI_OF_OUTPUT.items()}[gan.phi]
    disc = build_mlp([data_dim, gan.hidden, gan.hidden, 1], ["relu", "relu", disc_out], rng)
    return GanModel(gen, disc)


def _phi(gan: GanModel):
    """The PHIS entry of the discriminator's output activation."""
    act = gan.discriminator.layers[-1].act
    if act not in _PHI_OF_OUTPUT:
        raise ValueError(f"discriminator output {act!r} must be sigmoid or identity")
    return PHIS[_PHI_OF_OUTPUT[act]]


def disc_objective_and_grads(gan: GanModel, reals, codings, grads):
    """J_D and its gradient in the discriminator parameters.  grads is a
    pair of the discriminator's `grad_buffer`s: the real batch's gradient
    goes into the first, the fake batch's into the second, which is added
    to it; returns (J_D, the first's flat)."""
    fakes = gan.generator.forward(codings)
    score_r, cache_r = forward_cached(gan.discriminator, reals)
    score_f, cache_f = forward_cached(gan.discriminator, fakes)
    phi_r, d_r = _phi(gan)(score_r)
    phi_f, d_f = _phi(gan)(1.0 - score_f)
    value = float(_mean(phi_r) + _mean(phi_f))  # the two means added in their dtype
    d_r /= reals.shape[0]
    d_f /= -codings.shape[0]  # -phi'/n, with the sign in the divisor
    real, fake = grads
    total, _ = backward(gan.discriminator, cache_r, d_r, real, inputs=False)
    total += backward(gan.discriminator, cache_f, d_f, fake, inputs=False)[0]
    return value, total


def gen_objective_and_grads(gan: GanModel, codings, grads: Mlp):
    """J_G and its gradient in the generator parameters (discriminator
    frozen), written into the generator's `grad_buffer` grads; returns
    (J_G, grads.flat)."""
    fakes, cache_g = forward_cached(gan.generator, codings)
    score_f, cache_d = forward_cached(gan.discriminator, fakes)
    phi_f, d_f = _phi(gan)(1.0 - score_f)
    value = float(_mean(phi_f))
    d_f /= -codings.shape[0]
    _, d_fakes = backward(gan.discriminator, cache_d, d_f)
    return value, backward(gan.generator, cache_g, d_fakes, grads, inputs=False)[0]


def train_gan(data, anchors: AnchorSet, sampler: SamplerConfig, model: GanModel,
              gan: GanConfig, seed: int):
    """Runs `gan.iters` alternating updates on `model` in place; returns
    (model, trace) where trace[i] = (d_objective, g_objective) as evaluated
    before each update.

    Training runs on float32 copies of both networks, each with fresh
    float32 Adam moments, the first step of Micikevicius et al., "Mixed
    Precision Training" (ICLR 2018), who go on to float16 arithmetic.  The
    data are cast once, and refused if beyond float32's range, and each
    batch of codings is cast at the generator's input.
    Only the trained weights are written back, into the model's float64
    arrays, which hold them exactly, so checkpoints keep their format; the
    moments and the gradient buffers, made once, end with the call.  Zero
    iterations leave the model as built.
    Overflow anywhere in a step shows as a non-finite objective or
    parameter, which raises TrainingDivergedError, so numpy's warnings are
    silenced."""
    X = as_float32_data(data, "GAN")
    if X.shape[1] != model.discriminator.in_dim:
        raise ValueError("data dim does not match the discriminator input")
    if anchors.m != model.generator.in_dim:
        raise ValueError("anchor count does not match the generator input")
    if gan.iters == 0:
        return model, []
    work = GanModel(Mlp(model.generator.layers, np.float32),
                    Mlp(model.discriminator.layers, np.float32))
    gen_state, disc_state = init_adam(work.generator.flat), init_adam(work.discriminator.flat)
    gen_grads = grad_buffer(work.generator)
    disc_grads = (grad_buffer(work.discriminator), grad_buffer(work.discriminator))
    n, b = X.shape[0], gan.batch
    # per iteration the stream gives D's codings, the data indices, then G's codings
    stream = walk_codings(anchors, sampler, Rng(seed), [(b, b), (b, 0)] * gan.iters)
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(gan.iters):
            codings, u = next(stream)
            idx = np.minimum((u * n).astype(np.int64), n - 1)
            d_val, d_grads = disc_objective_and_grads(work, X[idx], codings, disc_grads)
            if not np.isfinite(d_val):
                raise TrainingDivergedError(f"non-finite discriminator objective at iteration {it}")
            np.negative(d_grads, out=d_grads)
            adam_step(work.discriminator.flat, d_grads, disc_state, lr=gan.lr)
            check_finite(work.discriminator, f"iteration {it}")

            codings, _ = next(stream)
            g_val, g_grads = gen_objective_and_grads(work, codings, gen_grads)
            if not np.isfinite(g_val):
                raise TrainingDivergedError(f"non-finite generator objective at iteration {it}")
            adam_step(work.generator.flat, g_grads, gen_state, lr=gan.lr)
            check_finite(work.generator, f"iteration {it}")
            trace.append((d_val, g_val))
    model.generator.flat[...] = work.generator.flat
    model.discriminator.flat[...] = work.discriminator.flat
    return model, trace
