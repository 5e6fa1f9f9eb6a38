"""Network tests: forward oracles, finite-difference gradient checks, Adam
arithmetic, and the training-loop contracts."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from lccgen.config import AutoencoderConfig, ConfigError, GanConfig, SamplerConfig
from lccgen.datasets import make_ring
from lccgen.lcc.core import AnchorSet
from lccgen.neural import autoencoder, gan as gan_module
from lccgen.neural.adam import adam_step, init_adam
from lccgen.neural.autoencoder import (
    TrainingDivergedError,
    ae_loss_and_grads,
    reconstruction_mse,
    train_autoencoder,
)
from lccgen.neural.gan import (
    GanModel,
    build_gan,
    disc_objective_and_grads,
    gen_objective_and_grads,
    train_gan,
)
from lccgen.neural.net import (
    ACTIVATIONS,
    EPS_PHI,
    PHIS,
    Layer,
    Mlp,
    backward,
    build_mlp,
    check_finite,
    forward_cached,
    grad_buffer,
)
from lccgen.rng import Rng
from lccgen.serialize import load_model, save_model


def flatten(params):
    return np.concatenate([p.reshape(-1) for p in params])


def fd_check(loss_fn, params, grads, step=1e-5):
    """Max relative error of analytic grads vs central finite differences."""
    worst = 0.0
    for i, p in enumerate(params):
        flat = p.reshape(-1)
        gflat = grads[i].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            up = loss_fn()
            flat[j] = keep - step
            down = loss_fn()
            flat[j] = keep
            fd = (up - down) / (2.0 * step)
            denom = max(1e-6, abs(fd), abs(gflat[j]))
            worst = max(worst, abs(fd - gflat[j]) / denom)
    return worst


# ---------------------------------------------------------------- forward


def test_forward_identity_layer_is_identity():
    net = Mlp([Layer(np.eye(3), np.zeros(3), "identity")])
    x = np.array([[0.5, -2.0, 3.25]])
    assert np.array_equal(net.forward(x), x)


@pytest.mark.parametrize("dtype, tiny", [(np.float32, 1e-30), (np.float64, 1e-200)])
def test_identity_layer_keeps_every_bit_of_its_affine_map(dtype, tiny):
    # identity layers skip the activation pass; x @ w + b keeps its -0.0s,
    # here products that underflow to -0.0 plus a -0.0 bias
    net = Mlp([Layer(np.array([[tiny, 1.0, -2.0], [-tiny, 1.0, 0.5]]),
                     np.array([-0.0, 0.0, 0.25]), "identity")], dtype)
    X = np.array([[-tiny, tiny], [1.5, -2.0]], dtype=dtype)
    want = np.positive(X @ net.layers[0].w + net.layers[0].b)
    assert want[0, 0] == 0.0 and np.signbit(want[0, 0])
    out, cache = forward_cached(net, X)
    assert out.dtype == dtype and out.tobytes() == want.tobytes()
    assert net.forward(X).tobytes() == want.tobytes()
    assert cache[0][1] is out


def test_forward_relu_kills_negative_input():
    net = Mlp([Layer(np.eye(3), np.zeros(3), "relu")])
    out = net.forward(np.array([[-1.0, -0.5, -7.0]]))
    assert np.array_equal(out, np.zeros((1, 3)))


def test_forward_matches_scalar_hand_evaluation():
    net = build_mlp([2, 3, 2], ["tanh", "identity"], Rng(6))
    x = [0.3, -1.2]
    # straight-line re-evaluation with python floats, no matrix ops
    W1, b1 = net.layers[0].w, net.layers[0].b
    W2, b2 = net.layers[1].w, net.layers[1].b
    h = [math.tanh(x[0] * W1[0, k] + x[1] * W1[1, k] + b1[k]) for k in range(3)]
    want = [
        h[0] * W2[0, k] + h[1] * W2[1, k] + h[2] * W2[2, k] + b2[k] for k in range(2)
    ]
    got = net.forward(np.array([x]))[0]
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def _out_of_place_forward(net, x):
    for layer in net.layers:
        x = ACTIVATIONS[layer.act][0](x @ layer.w + layer.b)
    return x


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_in_place_layer_passes_match_out_of_place_bit_for_bit(act):
    rng = Rng(31)
    net = build_mlp([3, 64, 5, 2], [act, act, act], rng)
    for layer in net.layers:
        layer.b[...] = rng.normals(layer.b.size)
    X = np.asarray(rng.normals(2000 * 3)).reshape(2000, 3)
    X[:20] *= 300.0  # saturated tanh and sigmoid rows
    keep = X.copy()
    want = _out_of_place_forward(net, X)
    out, cache = forward_cached(net, X)
    assert np.array_equal(X, keep)  # forward_cached never writes its input
    assert cache[0][0] is X
    if act in ("sigmoid", "tanh"):
        assert np.any(np.abs(cache[0][1]) == 1.0)
    assert out.tobytes() == want.tobytes()
    assert net.forward(X).tobytes() == want.tobytes()
    assert np.array_equal(X, keep)


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_activation_without_out_leaves_its_input_alone(act):
    f = ACTIVATIONS[act][0]
    z = np.array([[-800.0, -3.5, -0.0, 0.0], [1e-300, 0.25, 40.0, 800.0]])
    keep = z.copy()
    with np.errstate(over="ignore"):
        y = f(z)
    assert z.tobytes() == keep.tobytes()
    assert not np.shares_memory(y, z)
    buf = np.empty_like(z)
    with np.errstate(over="ignore"):
        assert f(z, out=buf) is buf and buf.tobytes() == y.tobytes()
        assert f(z, out=z) is z and z.tobytes() == y.tobytes()


def test_sigmoid_matches_its_formula_bit_for_bit():
    z = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-0.0, 1e-300, -745.2, 709.8]])
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-z))
        assert ACTIVATIONS["sigmoid"][0](z).tobytes() == want.tobytes()


def test_float32_sigmoid_is_silent_where_exp_overflows():
    z = np.array([-200.0, -89.0, 0.0, 89.0], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = ACTIVATIONS["sigmoid"][0](z)
    assert y.dtype == np.float32
    # exp(89) overflows float32: 1 / (1 + inf) = 0, within 2.3e-39 of the truth
    assert y.tolist() == [0.0, 0.0, 0.5, 1.0]
    assert np.allclose(y, 1.0 / (1.0 + np.exp(-z.astype(np.float64))), rtol=0, atol=1e-38)


def test_forward_rejects_wrong_dim():
    net = build_mlp([2, 3], ["identity"], Rng(0))
    for x in (np.zeros((1, 3)), np.zeros(2), np.zeros((1, 1, 2))):
        with pytest.raises(ValueError):
            net.forward(x)


def test_build_mlp_rejects_an_unknown_activation():
    with pytest.raises(ValueError, match="unknown activation 'swish'"):
        build_mlp([2, 3, 1], ["relu", "swish"], Rng(0))


@pytest.mark.parametrize("dims, why", [
    ([2, 0, 1], "^layer 0 is 2 x 0; every width must be at least 1$"),
    ([2, 3, -1], "^layer 1 is 3 x -1; every width must be at least 1$"),
    ([0, 3, 1], "^layer 0 is 0 x 3; every width must be at least 1$"),
])
def test_build_mlp_rejects_a_layer_width_below_1(dims, why):
    with pytest.raises(ValueError, match=why):
        build_mlp(dims, ["relu", "identity"], Rng(0))


# ------------------------------------------------------------ flat layout


def test_build_mlp_layers_are_views_of_one_flat_vector():
    net = build_mlp([3, 5, 2], ["relu", "identity"], Rng(1))
    assert net.flat.shape == (3 * 5 + 5 + 5 * 2 + 2,)
    for layer in net.layers:
        assert np.shares_memory(layer.w, net.flat) and np.shares_memory(layer.b, net.flat)
    # layer by layer, w row-major then b
    want = np.concatenate([a.reshape(-1) for layer in net.layers for a in (layer.w, layer.b)])
    assert net.flat.tobytes() == want.tobytes()
    net.flat[-1] = 9.0
    assert net.layers[-1].b[-1] == 9.0


def test_mlp_from_another_nets_layers_copies_them():
    a = build_mlp([2, 3, 1], ["relu", "identity"], Rng(2))
    arrays = [(layer.w, layer.b) for layer in a.layers]
    keep = a.flat.copy()
    c = Mlp(a.layers)
    assert all(layer.w is w and layer.b is b for layer, (w, b) in zip(a.layers, arrays))
    assert not np.shares_memory(c.flat, a.flat)
    assert c.flat.tobytes() == keep.tobytes()
    c.flat += 1.0
    assert a.flat.tobytes() == keep.tobytes()
    assert np.shares_memory(a.layers[0].w, a.flat)


def test_check_finite_names_the_first_non_finite_layer():
    net = build_mlp([2, 3, 3, 1], ["relu", "relu", "identity"], Rng(0))
    check_finite(net, "step 1")
    net.layers[2].w[0, 0] = np.inf
    net.layers[1].b[2] = np.nan
    with pytest.raises(TrainingDivergedError, match="layer 1 after step 2"):
        check_finite(net, "step 2")


def test_check_finite_passes_finite_parameters_whose_sum_overflows():
    net = Mlp(build_mlp([2, 3, 1], ["relu", "identity"], Rng(0)).layers, np.float32)
    net.layers[0].w[...] = 3e38
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert net.flat.astype(np.float64).sum() > np.finfo(np.float32).max
        check_finite(net, "step 1")
        net.layers[1].b[0] = np.nan
        with pytest.raises(TrainingDivergedError, match="^non-finite parameters in layer 1 after"):
            check_finite(net, "step 2")


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_float32_passes_stay_float32(act, monkeypatch):
    rng = Rng(23)
    net = Mlp(build_mlp([3, 6, 4, 2], ["relu", act, act], rng).layers, np.float32)
    assert net.flat.dtype == np.float32
    assert all(a.dtype == np.float32 for layer in net.layers for a in (layer.w, layer.b))
    # float64 inputs, as the sampler writes codings, are cast, not upcast to
    X = np.asarray(rng.normals(5 * 3)).reshape(5, 3)
    d_out = np.asarray(rng.normals(5 * 2)).reshape(5, 2)
    assert net.forward(X).dtype == np.float32
    out, cache = forward_cached(net, X)
    assert out.dtype == np.float32
    assert all(a.dtype == np.float32 for pair in cache for a in pair)
    grads, d_in = backward(net, cache, d_out, grad_buffer(net))
    assert grads.dtype == np.float32 and d_in.dtype == np.float32
    assert backward(net, cache, d_out)[1].dtype == np.float32
    # an autoencoder step: float32 parameters, loss gradients and Adam
    # moments, none of them upcast on the way
    seen = []

    def spy(p, g, state, **kw):
        seen.append((p.dtype, g.dtype, state.m.dtype, state.v.dtype))
        adam_step(p, g, state, **kw)

    monkeypatch.setattr(autoencoder, "adam_step", spy)
    train_autoencoder(X, AutoencoderConfig(hidden=6, epochs=2, batch=5, activation=act), 0)
    assert len(seen) == 2 and {t for step in seen for t in step} == {np.dtype(np.float32)}


# -------------------------------------------------------------- gradients


def test_zero_net_zero_targets_zero_gradient():
    ae = Mlp([Layer(np.zeros((3, 2)), np.zeros(2), "identity"),
              Layer(np.zeros((2, 3)), np.zeros(3), "identity")])
    X = np.zeros((4, 3))
    loss, grads = ae_loss_and_grads(ae, X, grad_buffer(ae))
    assert loss == 0.0
    assert grads.shape == ae.flat.shape and np.all(grads == 0.0)


def test_backward_is_linear_in_the_loss():
    net = build_mlp([3, 5, 2], ["relu", "identity"], Rng(1))
    X = np.asarray(Rng(2).normals(4 * 3)).reshape(4, 3)
    _, cache = forward_cached(net, X)
    seed = np.asarray(Rng(3).normals(4 * 2)).reshape(4, 2)
    g1, _ = backward(net, cache, seed, grad_buffer(net))
    g2, _ = backward(net, cache, 2.0 * seed, grad_buffer(net))
    for a, b in zip(g1, g2):
        assert np.allclose(2.0 * a, b, rtol=1e-13, atol=0)


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_backward_without_params_gives_the_same_input_gradient(act):
    rng = Rng(22)
    net = build_mlp([3, 6, 4, 2], ["relu", act, act], rng)
    X = np.asarray(rng.normals(5 * 3)).reshape(5, 3)
    d_out = np.asarray(rng.normals(5 * 2)).reshape(5, 2)
    _, cache = forward_cached(net, X)
    grads, d_in = backward(net, cache, d_out, grad_buffer(net))
    none, d_in_only = backward(net, cache, d_out)
    assert grads.shape == net.flat.shape and none is None
    assert np.array_equal(d_in_only, d_in)


# each activation's derivative as a function of its output y, written out
# of place, one array per operation
_OUTPUT_DERIVATIVES = {
    "relu": lambda y: y > 0.0,
    "tanh": lambda y: 1.0 - y * y,
    "sigmoid": lambda y: y * (1.0 - y),
}


def _out_of_place_backward(net, cache, d_out):
    grads, dy = [], d_out
    for layer, (x, y) in reversed(list(zip(net.layers, cache))):
        dz = dy if layer.act == "identity" else dy * _OUTPUT_DERIVATIVES[layer.act](y)
        grads = [(x.T @ dz).reshape(-1), dz.sum(axis=0)] + grads
        dy = dz @ layer.w.T
    return np.concatenate(grads), dy


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_in_place_backward_matches_out_of_place_bit_for_bit(act, dtype):
    rng = Rng(24)
    net = Mlp(build_mlp([3, 7, 5, 2], ["relu", act, act], rng).layers, dtype)
    X = np.asarray(rng.normals(9 * 3), dtype=dtype).reshape(9, 3)
    X[1:3] *= 200.0  # saturated sigmoids and tanhs
    d_out = np.asarray(rng.normals(9 * 2), dtype=dtype).reshape(9, 2)
    keep = d_out.copy()
    _, cache = forward_cached(net, X)
    want_grads, want_d_in = _out_of_place_backward(net, cache, d_out)
    grads, d_in = backward(net, cache, d_out, grad_buffer(net))
    assert grads.tobytes() == want_grads.tobytes() and d_in.tobytes() == want_d_in.tobytes()
    # without the input gradient, the parameter gradients keep every bit
    grads, none = backward(net, cache, d_out, grad_buffer(net), inputs=False)
    assert none is None and grads.tobytes() == want_grads.tobytes()
    assert backward(net, cache, d_out)[1].tobytes() == want_d_in.tobytes()
    assert d_out.tobytes() == keep.tobytes()  # the caller's d_out is never written


# each activation's derivative as a function of the pre-activation z
_PREACT_DERIVATIVES = {
    "identity": np.ones_like,
    "relu": lambda z: (z > 0.0).astype(np.float64),
    "tanh": lambda z: 1.0 - np.tanh(z) * np.tanh(z),
    "sigmoid": lambda z: (1.0 / (1.0 + np.exp(-z))) * (1.0 - 1.0 / (1.0 + np.exp(-z))),
}


def _reference_backward(net, X, d_out):
    """backward from the pre-activations of a fresh forward pass."""
    xs, zs, y = [], [], X
    for layer in net.layers:
        xs.append(y)
        zs.append(y @ layer.w + layer.b)
        y = ACTIVATIONS[layer.act][0](zs[-1])
    grads, dy = [], d_out
    for layer, x, z in reversed(list(zip(net.layers, xs, zs))):
        dz = dy * _PREACT_DERIVATIVES[layer.act](z)
        grads = [(x.T @ dz).reshape(-1), dz.sum(axis=0)] + grads
        dy = dz @ layer.w.T
    return np.concatenate(grads), dy


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_backward_from_outputs_matches_preactivation_derivatives_bit_for_bit(act):
    rng = Rng(21)
    net = build_mlp([3, 7, 5, 2], [act, act, act], rng)
    for layer in net.layers[1:]:
        layer.b[...] = rng.normals(layer.b.size)
    X = np.asarray(rng.normals(9 * 3)).reshape(9, 3)
    X[0] = 0.0  # first-layer pre-activations exactly 0 (zero biases there)
    X[1:3] *= 200.0  # saturated sigmoids and tanhs
    assert np.any(X[0] @ net.layers[0].w == 0.0)
    d_out = np.asarray(rng.normals(9 * 2)).reshape(9, 2)
    out, cache = forward_cached(net, X)
    grads, d_in = backward(net, cache, d_out, grad_buffer(net))
    want_grads, want_d_in = _reference_backward(net, X, d_out)
    assert np.array_equal(out, net.forward(X))
    assert np.array_equal(grads, want_grads)
    assert np.array_equal(d_in, want_d_in)
    if act in ("sigmoid", "tanh"):
        assert np.any(cache[0][1] == 1.0)  # saturated, with derivative exactly 0


@pytest.mark.parametrize("act", ["tanh", "relu"])
def test_autoencoder_one_adam_state_matches_one_per_network(act):
    X = np.asarray(Rng(4).normals(40 * 3)).reshape(40, 3)
    config = AutoencoderConfig(hidden=6, epochs=3, batch=16, lr=0.01, activation=act)
    enc, dec, history = train_autoencoder(X, config, seed=5)
    # the same float32 loop on two separate networks: the decoder's backward
    # pass feeds the encoder's, and each network steps against its own Adam
    # state
    rng = Rng(5)
    acts = [act, "identity"]
    enc2 = Mlp(build_mlp([3, 6, 2], acts, rng).layers, np.float32)
    dec2 = Mlp(build_mlp([2, 6, 3], acts, rng).layers, np.float32)
    enc_state, dec_state = init_adam(enc2.flat), init_adam(dec2.flat)
    X32 = X.astype(np.float32)
    for _ in range(config.epochs):
        order = np.argsort(rng.uniforms(40), kind="stable")
        for start in range(0, 40, config.batch):
            batch = X32[order[start:start + config.batch]]
            z, enc_cache = forward_cached(enc2, batch)
            xhat, dec_cache = forward_cached(dec2, z)
            diff = xhat - batch
            dg, dz = backward(dec2, dec_cache, 2.0 * diff / diff.size, grad_buffer(dec2))
            eg, _ = backward(enc2, enc_cache, dz, grad_buffer(enc2))
            adam_step(enc2.flat, eg, enc_state, lr=config.lr)
            adam_step(dec2.flat, dg, dec_state, lr=config.lr)
    assert np.array_equal(enc.flat, enc2.flat)
    assert np.array_equal(dec.flat, dec2.flat)
    diff = dec2.forward(enc2.forward(X32)) - X32
    assert history[-1] == float(np.mean(diff * diff))


def test_backward_overwrites_every_entry_of_its_buffer():
    rng = Rng(25)
    net = build_mlp([3, 6, 4, 2], ["relu", "tanh", "identity"], rng)
    X = np.asarray(rng.normals(5 * 3)).reshape(5, 3)
    d_out = np.asarray(rng.normals(5 * 2)).reshape(5, 2)
    _, cache = forward_cached(net, X)
    want, _ = backward(net, cache, d_out, grad_buffer(net))
    buffer = grad_buffer(net)
    buffer.flat[...] = np.nan
    grads, _ = backward(net, cache, d_out, buffer, inputs=False)
    assert grads is buffer.flat and grads.tobytes() == want.tobytes()
    for layer in buffer.layers:
        assert np.shares_memory(layer.w, grads) and np.shares_memory(layer.b, grads)


def _adam_spy(monkeypatch, module):
    """The gradient arrays `module` passes to adam_step, in call order."""
    seen = []

    def spy(p, g, state, **kw):
        seen.append(g)
        adam_step(p, g, state, **kw)

    monkeypatch.setattr(module, "adam_step", spy)
    return seen


def test_training_fills_one_gradient_buffer_per_network(monkeypatch):
    X = np.asarray(Rng(4).normals(20 * 2)).reshape(20, 2)
    seen = _adam_spy(monkeypatch, autoencoder)
    train_autoencoder(X, AutoencoderConfig(hidden=6, epochs=2, batch=8), 5)
    assert len(seen) == 6 and all(g is seen[0] for g in seen)
    seen = _adam_spy(monkeypatch, gan_module)
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=11)
    train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, GanConfig(iters=3, batch=8), 13)
    disc, gen = seen[::2], seen[1::2]
    assert len(seen) == 6 and disc[0] is not gen[0]
    assert all(g is disc[0] for g in disc) and all(g is gen[0] for g in gen)


def test_autoencoder_returns_networks_with_separate_buffers():
    X = np.asarray(Rng(4).normals(20 * 3)).reshape(20, 3)
    enc, dec, _ = train_autoencoder(X, AutoencoderConfig(hidden=6, epochs=1, batch=8), 5)
    assert [layer.w.shape for layer in enc.layers] == [(3, 6), (6, 2)]
    assert [layer.w.shape for layer in dec.layers] == [(2, 6), (6, 3)]
    assert not np.shares_memory(enc.flat, dec.flat)
    for net in (enc, dec):
        for layer in net.layers:
            assert np.shares_memory(layer.w, net.flat) and np.shares_memory(layer.b, net.flat)
    keep = dec.flat.copy()
    enc.flat += 1.0
    assert dec.flat.tobytes() == keep.tobytes()


def test_autoencoder_gradients_match_finite_differences():
    rng = Rng(14)
    enc = build_mlp([3, 4, 2], ["tanh", "identity"], rng)
    dec = build_mlp([2, 4, 3], ["tanh", "identity"], rng)
    ae = Mlp(enc.layers + dec.layers)
    X = np.asarray(rng.normals(6 * 3)).reshape(6, 3)
    _, grads = ae_loss_and_grads(ae, X, grad_buffer(ae))
    worst = fd_check(lambda: ae_loss_and_grads(ae, X, grad_buffer(ae))[0], [ae.flat], [grads])
    assert worst < 1e-4


@pytest.mark.parametrize("act", ["tanh", "relu"])
def test_float32_autoencoder_loss_and_grads_match_float64(act):
    rng = Rng(15)
    ae = build_mlp([3, 16, 2, 16, 3], [act, "identity"] * 2, rng)
    ae.flat[...] = ae.flat.astype(np.float32)
    ae32 = Mlp(ae.layers, np.float32)
    X = np.asarray(rng.normals(32 * 3), dtype=np.float32).reshape(32, 3)
    want, want_grads = ae_loss_and_grads(ae, X.astype(np.float64), grad_buffer(ae))
    got, grads = ae_loss_and_grads(ae32, X, grad_buffer(ae32))
    assert grads.dtype == np.float32
    assert abs(got - want) <= 1e-4 * abs(want)
    assert np.max(np.abs(grads - want_grads)) <= 1e-4 * np.max(np.abs(want_grads))
    assert abs(reconstruction_mse(ae32, X) - want) <= 1e-4 * abs(want)


def _relu_preacts_clear_of_kinks(net, X, margin=1e-3):
    # central differences are only a valid oracle away from the relu kink
    _, cache = forward_cached(net, X)
    return all(
        np.min(np.abs(x @ layer.w + layer.b)) > margin
        for (x, _), layer in zip(cache, net.layers)
        if layer.act == "relu"
    )


def _disc_grads(gan):
    """The pair of gradient buffers disc_objective_and_grads fills."""
    return grad_buffer(gan.discriminator), grad_buffer(gan.discriminator)


def test_discriminator_gradients_match_finite_differences():
    gan = build_gan(3, 4, GanConfig(hidden=6), seed=9)
    rng = Rng(8)
    reals = np.asarray(rng.normals(6 * 3)).reshape(6, 3)
    codings = np.asarray(rng.normals(6 * 4)).reshape(6, 4)
    codings /= codings.sum(axis=1, keepdims=True)
    fakes = gan.generator.forward(codings)
    assert _relu_preacts_clear_of_kinks(gan.discriminator, reals)
    assert _relu_preacts_clear_of_kinks(gan.discriminator, fakes)
    _, grads = disc_objective_and_grads(gan, reals, codings, _disc_grads(gan))
    worst = fd_check(
        lambda: disc_objective_and_grads(gan, reals, codings, _disc_grads(gan))[0],
        [gan.discriminator.flat],
        [grads],
    )
    assert worst < 1e-4


def test_generator_gradients_match_finite_differences():
    gan = build_gan(3, 4, GanConfig(hidden=6), seed=9)
    rng = Rng(16)
    codings = np.asarray(rng.normals(6 * 4)).reshape(6, 4)
    codings /= codings.sum(axis=1, keepdims=True)
    fakes = gan.generator.forward(codings)
    assert _relu_preacts_clear_of_kinks(gan.generator, codings)
    assert _relu_preacts_clear_of_kinks(gan.discriminator, fakes)
    _, grads = gen_objective_and_grads(gan, codings, grad_buffer(gan.generator))
    worst = fd_check(
        lambda: gen_objective_and_grads(gan, codings, grad_buffer(gan.generator))[0],
        [gan.generator.flat],
        [grads],
    )
    assert worst < 1e-4


def _float32_twin(gan):
    """Rounds gan's weights to float32 in place; returns a float32 copy."""
    for net in (gan.generator, gan.discriminator):
        net.flat[...] = net.flat.astype(np.float32)
    gen, disc = (Mlp(net.layers, np.float32) for net in (gan.generator, gan.discriminator))
    return GanModel(gen, disc)


@pytest.mark.parametrize("phi", ["log", "identity"])
def test_float32_objectives_and_grads_match_float64(phi):
    gan = build_gan(3, 4, GanConfig(hidden=16, phi=phi), seed=9)
    gan32 = _float32_twin(gan)
    rng = Rng(8)
    reals = np.asarray(rng.normals(32 * 3), dtype=np.float32).reshape(32, 3)
    codings = np.asarray(rng.normals(32 * 4)).reshape(32, 4)
    codings = (codings / codings.sum(axis=1, keepdims=True)).astype(np.float32)
    for f, args, buffers in ((disc_objective_and_grads, (reals, codings), _disc_grads),
                             (gen_objective_and_grads, (codings,),
                              lambda gan: grad_buffer(gan.generator))):
        want, want_grads = f(gan, *(a.astype(np.float64) for a in args), buffers(gan))
        got, grads = f(gan32, *args, buffers(gan32))
        assert grads.dtype == np.float32
        assert abs(got - want) <= 1e-4 * abs(want)
        assert np.max(np.abs(grads - want_grads)) <= 1e-4 * np.max(np.abs(want_grads))


def _two_formula_phis(t):
    """The measuring functions as two separate formulas each, clamping t
    once for phi and again for phi'."""
    def clip(t):
        return np.clip(t, EPS_PHI, 1.0 - EPS_PHI)
    return {"log": (np.log(clip(t)),
                    np.where((t > EPS_PHI) & (t < 1.0 - EPS_PHI), 1.0 / clip(t), 0.0)),
            "identity": (t, np.ones_like(t))}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_phi_pairs_match_the_two_formulas_bit_for_bit(dtype):
    t = np.array([0.0, EPS_PHI / 2, EPS_PHI, 0.5, 1.0 - EPS_PHI, 1.0, 1.5], dtype=dtype)
    # and each clamp bound's neighbours in t's dtype
    lo, hi = t[2], t[4]
    t = np.concatenate([t, [np.nextafter(lo, 0), np.nextafter(lo, 1), np.nextafter(hi, 0),
                            np.nextafter(hi, 2)]]).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _two_formula_phis(t)
        for name, f in PHIS.items():
            phi, dphi = f(t)
            assert phi.dtype == dtype and dphi.dtype == dtype
            assert phi.tobytes() == want[name][0].tobytes()
            assert dphi.tobytes() == want[name][1].tobytes()
    phi, dphi = PHIS["log"](t)
    assert dphi[[0, 1, 2, 4, 5, 6]].tolist() == [0.0] * 6 and np.all(dphi[[3]] == 2.0)


# sha256 of the trace and both trained flat vectors of a 20-iteration
# train_gan, computed before the GAN step's passes were made lean; a step
# that moves any float32 rounding fails here in well under a second
_GAN_BITS = {
    ("log", "identity"): "732321c3212863b59aa24d38fcb191fb8a255990d7f333ad156dea6f0198ce1f",
    ("identity", "tanh"): "6ae974811cef13da69d76ce213350f4333be1f00f7ce14a564ffb6f261509ecf",
}


@pytest.mark.parametrize("phi, out", sorted(_GAN_BITS))
def test_short_float32_gan_run_keeps_its_bits(phi, out):
    X = np.asarray(Rng(3).normals(256 * 2)).reshape(256, 2)
    config = GanConfig(iters=20, batch=32, hidden=32, lr=1e-3, phi=phi, generator_output=out)
    gan = build_gan(2, 4, config, seed=11)
    gan, trace = train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, config, 13)
    digest = hashlib.sha256(np.array(trace).tobytes())
    digest.update(gan.generator.flat.tobytes())
    digest.update(gan.discriminator.flat.tobytes())
    assert digest.hexdigest() == _GAN_BITS[phi, out]


# sha256 pins of two runs whose one-output layers take backward's broadcast
# product, computed while every input gradient was still a matmul: a
# 20-iteration train_gan on data scaled by 1e4, which saturates the
# discriminator (phi' = 0 on whole real batches, so that layer passes back
# zeros whose sign the product and the matmul set differently), and a
# 3-epoch train_autoencoder with a one-unit bottleneck
_RANK_ONE_BITS = {
    "gan": "7dd4fcc8167aeb32b457cf4cb92f51408110c4e48a6cafd1e8453e6c7d93c35a",
    "autoencoder": "6d025ed797522820d658dbfed1b3ed9e86ef4935df77d21f332c85064274d83e",
}


def test_saturated_float32_gan_run_keeps_its_bits():
    X = 1e4 * np.asarray(Rng(3).normals(256 * 2)).reshape(256, 2)
    config = GanConfig(iters=20, batch=32, hidden=32, lr=1e-3, phi="log",
                       generator_output="identity")
    gan = build_gan(2, 4, config, seed=11)
    gan, trace = train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, config, 13)
    digest = hashlib.sha256(np.array(trace).tobytes())
    digest.update(gan.generator.flat.tobytes())
    digest.update(gan.discriminator.flat.tobytes())
    assert digest.hexdigest() == _RANK_ONE_BITS["gan"]


def test_one_unit_bottleneck_autoencoder_run_keeps_its_bits():
    X = make_ring(300, 1.0, 0.01, 7)
    enc, dec, history = train_autoencoder(X, AutoencoderConfig(latent_dim=1, epochs=3), 5)
    assert enc.layers[-1].w.shape[1] == 1
    digest = hashlib.sha256(np.array(history).tobytes())
    digest.update(enc.flat.tobytes())
    digest.update(dec.flat.tobytes())
    assert digest.hexdigest() == _RANK_ONE_BITS["autoencoder"]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_one_output_layer_passes_back_the_matmul_values(dtype):
    rng = Rng(21)
    net = Mlp(build_mlp([3, 5, 1], ["relu", "sigmoid"], rng).layers, dtype)
    net.layers[-1].w[1] = -0.0
    X = np.asarray(rng.normals(7 * 3)).reshape(7, 3)
    d_out = np.asarray(rng.normals(7), dtype=dtype).reshape(7, 1)
    d_out[:2] = -0.0  # -0 * w is -0 or +0, where the matmul's sum gives +0
    _, cache = forward_cached(net, X)
    _, d_in = backward(net, cache, d_out)
    (_, y1), (x2, y2) = cache
    dz2 = ACTIVATIONS["sigmoid"][1](y2, d_out)
    dz1 = ACTIVATIONS["relu"][1](y1, dz2 @ net.layers[1].w.T)
    want = dz1 @ net.layers[0].w.T
    assert d_in.dtype == want.dtype == dtype
    assert np.array_equal(d_in, want)
    top = Mlp([net.layers[1]], dtype)
    assert np.array_equal(backward(top, [(x2, y2)], d_out)[1], dz2 @ top.layers[0].w.T)


def _frozen_batch(seed):
    """16 random 2-d reals and 16 sum-to-one codings over 4 anchors."""
    rng = Rng(seed)
    reals = np.asarray(rng.normals(16 * 2)).reshape(16, 2)
    codings = np.asarray(rng.normals(16 * 4)).reshape(16, 4)
    return reals, codings / codings.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("phi", sorted(PHIS))
def test_the_objectives_read_phi_off_a_reloaded_discriminator(phi, tmp_path):
    # phi is stored once, as the discriminator's output activation, which
    # its checkpoint keeps; the objectives are not told it
    built = build_gan(2, 4, GanConfig(hidden=8, phi=phi), seed=7)
    path = str(tmp_path / "discriminator.bin")
    save_model(path, built.discriminator)
    gan = GanModel(built.generator, load_model(path))
    reals, codings = _frozen_batch(8)
    d_val, _ = disc_objective_and_grads(gan, reals, codings, _disc_grads(gan))
    g_val, _ = gen_objective_and_grads(gan, codings, grad_buffer(gan.generator))
    real = gan.discriminator.forward(reals)
    fake = 1.0 - gan.discriminator.forward(gan.generator.forward(codings))
    for name, f in PHIS.items():
        d_want = float(np.mean(f(real)[0]) + np.mean(f(fake)[0]))
        g_want = float(np.mean(f(fake)[0]))
        assert (d_val == pytest.approx(d_want, rel=1e-12)) == (name == phi)
        assert (g_val == pytest.approx(g_want, rel=1e-12)) == (name == phi)


def test_a_discriminator_output_with_no_phi_is_refused():
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=7)
    *hidden, out = gan.discriminator.layers
    gan = GanModel(gan.generator, Mlp(hidden + [Layer(out.w, out.b, "tanh")]))
    reals, codings = _frozen_batch(8)
    why = r"^discriminator output 'tanh' must be sigmoid or identity$"
    with pytest.raises(ValueError, match=why):
        disc_objective_and_grads(gan, reals, codings, _disc_grads(gan))
    with pytest.raises(ValueError, match=why):
        gen_objective_and_grads(gan, codings, grad_buffer(gan.generator))


# ------------------------------------------------------------------- adam


def test_adam_zero_gradient_leaves_params_alone():
    p = np.array([1.0, -2.0])
    state = init_adam(p)
    adam_step(p, np.zeros(2), state)
    assert np.array_equal(p, [1.0, -2.0])
    assert np.all(state.m == 0.0) and np.all(state.v == 0.0)


def test_adam_moments_decay_on_zero_gradient():
    p = np.array([1.0])
    state = init_adam(p)
    adam_step(p, np.array([1.0]), state)
    m1 = state.m.copy()
    adam_step(p, np.array([0.0]), state)
    assert state.m[0] == 0.5 * m1[0]
    assert state.t == 2


def test_adam_zero_lr_freezes_params():
    p = np.array([3.0])
    adam_step(p, np.array([7.0]), init_adam(p), lr=0.0)
    assert p[0] == 3.0


def test_adam_single_step_hand_arithmetic():
    # p=1, g=1, defaults lr=2e-4 beta1=0.5 beta2=0.999 eps=1e-8, t=1
    p = np.array([1.0])
    state = init_adam(p)
    adam_step(p, np.array([1.0]), state)
    m = 0.5 * 0.0 + (1.0 - 0.5) * 1.0
    v = 0.999 * 0.0 + (1.0 - 0.999) * 1.0 * 1.0
    m_hat = m / (1.0 - 0.5)
    v_hat = v / (1.0 - 0.999)
    want = 1.0 - 2e-4 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(p[0] - want) < 1e-15
    assert state.m[0] == m and state.v[0] == v and state.t == 1


def test_adam_in_place_matches_the_out_of_place_formula_bit_for_bit():
    # the parameter and moment arrays are updated in place, with the same
    # float operations in the same order as fresh arrays would get them
    rng = Rng(21)
    lr, b1, b2, eps = 1e-2, 0.5, 0.999, 1e-8
    for shape in [(3, 4), (4,), (4, 1), (1,)]:
        p = rng.normals(int(np.prod(shape))).reshape(shape)
        state = init_adam(p)
        buffers = (id(p), id(state.m), id(state.v))
        want = p.copy()
        m = np.zeros(shape)
        v = np.zeros(shape)
        for t in range(1, 6):
            g = rng.normals(int(np.prod(shape))).reshape(shape)
            assert adam_step(p, g, state, lr) is None
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert p.tobytes() == want.tobytes()
            assert (state.m.tobytes(), state.v.tobytes()) == (m.tobytes(), v.tobytes())
        assert (id(p), id(state.m), id(state.v)) == buffers


# ---------------------------------------------------------------- training


def test_autoencoder_memorizes_a_repeated_point():
    point = np.array([0.7, -0.3, 1.1])
    X = np.tile(point, (8, 1))
    enc, dec, hist = train_autoencoder(X, AutoencoderConfig(
        latent_dim=2, hidden=8, epochs=400, batch=8, lr=1e-2, activation="identity"), 1)
    assert hist[-1] < 1e-6
    assert reconstruction_mse(Mlp(enc.layers + dec.layers, np.float32), X) == hist[-1]


# sha256 of the history and both trained flat vectors of a 3-epoch
# train_autoencoder on 300 ring points, computed when the autoencoder moved
# to float32; a step that moves any of its rounding fails here in well under
# a second
_AE_BITS = {
    "tanh": "1457336cd981a90efbe8cb70b8ec7260ae27c859ceb299a00347c11e9d2a14a2",
    "relu": "2928ae81bbc8c14e8efb2b0827231a1a4e44e9499ff4cd961670405e8a7e4c12",
}


@pytest.mark.parametrize("act", sorted(_AE_BITS))
def test_short_float32_autoencoder_run_keeps_its_bits(act):
    X = make_ring(300, 1.0, 0.01, 7)
    enc, dec, history = train_autoencoder(X, AutoencoderConfig(epochs=3, activation=act), 5)
    digest = hashlib.sha256(np.array(history).tobytes())
    digest.update(enc.flat.tobytes())
    digest.update(dec.flat.tobytes())
    assert digest.hexdigest() == _AE_BITS[act]
    # both checkpoints are float64 arrays of float32 values
    for net in (enc, dec):
        assert net.flat.dtype == np.float64
        assert net.flat.astype(np.float32).astype(np.float64).tobytes() == net.flat.tobytes()


def test_autoencoder_zero_epochs_returns_init():
    X = np.asarray(Rng(2).normals(10 * 3)).reshape(10, 3)
    enc, dec, hist = train_autoencoder(X, AutoencoderConfig(epochs=0), 5)
    assert hist == []
    assert dec.forward(enc.forward(X)).shape == X.shape


def test_linear_autoencoder_recovers_a_line_in_r3():
    t = np.linspace(-1.0, 1.0, 50)
    direction = np.array([0.5, -1.0, 2.0])
    offset = np.array([0.1, 0.2, -0.3])
    X = t[:, None] * direction[None, :] + offset[None, :]
    _, _, hist = train_autoencoder(X, AutoencoderConfig(
        latent_dim=1, hidden=8, epochs=600, batch=50, lr=1e-2, activation="identity"), 3)
    assert hist[-1] < 1e-4


def test_autoencoder_divergence_raises():
    # adam steps have magnitude ~lr, so an absurd lr overflows the next
    # forward pass and the loss check must catch the inf
    X = np.asarray(Rng(4).normals(16 * 3)).reshape(16, 3)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train_autoencoder(X, AutoencoderConfig(
            latent_dim=2, hidden=8, epochs=5, batch=16, lr=1e80, activation="identity"), 0)
    # non-finite parameters raise the same package error, not a builtin one
    net = build_mlp([2, 2], ["identity"], Rng(0))
    net.layers[0].b[1] = np.nan
    with pytest.raises(TrainingDivergedError, match="layer 0 after step 3"):
        check_finite(net, "step 3")


def _square_anchors():
    return AnchorSet(np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]))


def test_gan_zero_iters_is_identity():
    X = np.asarray(Rng(1).normals(32 * 2)).reshape(32, 2)
    ref = build_gan(2, 4, GanConfig(hidden=8), seed=3)
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=3)
    gan, trace = train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, GanConfig(iters=0), 2)
    assert trace == []
    assert np.array_equal(ref.generator.flat, gan.generator.flat)
    assert np.array_equal(ref.discriminator.flat, gan.discriminator.flat)


def test_trained_gan_weights_are_float32_values_that_round_trip(tmp_path):
    X = np.asarray(Rng(3).normals(64 * 2)).reshape(64, 2)
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=11)
    init = gan.generator.flat.copy()
    gan, trace = train_gan(X, _square_anchors(), SamplerConfig(d=2), gan,
                           GanConfig(iters=5, batch=16), 13)
    assert len(trace) == 5 and not np.array_equal(gan.generator.flat, init)
    for i, net in enumerate((gan.generator, gan.discriminator)):
        assert net.flat.dtype == np.float64
        assert net.flat.astype(np.float32).astype(np.float64).tobytes() == net.flat.tobytes()
        path = str(tmp_path / f"net{i}.bin")
        save_model(path, net)
        assert load_model(path).flat.tobytes() == net.flat.tobytes()


def test_a_second_train_gan_call_trains_like_a_model_rebuilt_from_its_weights():
    # train_gan keeps no optimizer state in the model: its Adam moments
    # start at zero on every call
    X = np.asarray(Rng(3).normals(64 * 2)).reshape(64, 2)
    cfg = GanConfig(hidden=8, iters=3, batch=16)
    gan = build_gan(2, 4, cfg, seed=11)
    train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, cfg, 13)
    rebuilt = build_gan(2, 4, cfg, seed=0)
    rebuilt.generator.flat[...] = gan.generator.flat
    rebuilt.discriminator.flat[...] = gan.discriminator.flat
    _, trace = train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, cfg, 14)
    _, want = train_gan(X, _square_anchors(), SamplerConfig(d=2), rebuilt, cfg, 14)
    assert trace == want
    assert gan.generator.flat.tobytes() == rebuilt.generator.flat.tobytes()
    assert gan.discriminator.flat.tobytes() == rebuilt.discriminator.flat.tobytes()


def test_tiny_lr_discriminator_step_ascends_frozen_objective():
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=7)
    reals, codings = _frozen_batch(8)
    before, grads = disc_objective_and_grads(gan, reals, codings, _disc_grads(gan))
    adam_step(gan.discriminator.flat, -grads, init_adam(gan.discriminator.flat), lr=1e-6)
    after, _ = disc_objective_and_grads(gan, reals, codings, _disc_grads(gan))
    assert after > before


def test_tiny_lr_generator_step_descends_frozen_objective():
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=7)
    rng = Rng(9)
    codings = np.asarray(rng.normals(16 * 4)).reshape(16, 4)
    codings /= codings.sum(axis=1, keepdims=True)
    before, grads = gen_objective_and_grads(gan, codings, grad_buffer(gan.generator))
    adam_step(gan.generator.flat, grads, init_adam(gan.generator.flat), lr=1e-6)
    after, _ = gen_objective_and_grads(gan, codings, grad_buffer(gan.generator))
    assert after < before


def test_gan_training_is_deterministic():
    X = np.asarray(Rng(3).normals(64 * 2)).reshape(64, 2)
    traces = []
    for _ in range(2):
        gan = build_gan(2, 4, GanConfig(hidden=8), seed=11)
        _, trace = train_gan(
            X, _square_anchors(), SamplerConfig(d=2), gan, GanConfig(iters=5, batch=16), 13
        )
        traces.append(trace)
    assert traces[0] == traces[1]


def test_gan_rejects_mismatched_shapes():
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=0)
    X3 = np.zeros((8, 3))
    with pytest.raises(ValueError):
        train_gan(X3, _square_anchors(), SamplerConfig(d=2), gan, GanConfig(iters=1), 0)
    gan5 = build_gan(2, 5, GanConfig(hidden=8), seed=0)
    with pytest.raises(ValueError):
        train_gan(np.zeros((8, 2)), _square_anchors(), SamplerConfig(d=2), gan5,
                  GanConfig(iters=1), 0)


def test_gan_divergence_raises_the_training_error():
    # data at float32's largest value overflow the discriminator's first
    # layer, which makes its scores, and so J_D, NaN; train_gan raises
    # without a warning
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=0)
    X = np.full((8, 2), float(np.finfo(np.float32).max))
    with pytest.raises(
            TrainingDivergedError, match="^non-finite discriminator objective at iteration 0$"):
        train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, GanConfig(iters=3, batch=4), 0)


def test_measuring_function_rejects_unknown_tag():
    with pytest.raises(ConfigError, match=r"^\[gan\] phi='hinge' must be log or identity$"):
        GanConfig(phi="hinge")
