"""Network tests: forward oracles, finite-difference gradient checks, Adam
arithmetic, and the training-loop contracts."""

import math
import warnings

import numpy as np
import pytest

from lccgen.config import AutoencoderConfig, ConfigError, GanConfig, SamplerConfig
from lccgen.lcc.core import AnchorSet
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
    Layer,
    Mlp,
    backward,
    build_mlp,
    check_finite,
    forward_cached,
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
    x = np.array([0.5, -2.0, 3.25])
    assert np.array_equal(net.forward(x), x)


def test_forward_relu_kills_negative_input():
    net = Mlp([Layer(np.eye(3), np.zeros(3), "relu")])
    out = net.forward(np.array([-1.0, -0.5, -7.0]))
    assert np.array_equal(out, np.zeros(3))


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
    got = net.forward(np.array(x))
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
    # a 1-D input: forward takes it as one row, forward_cached as a vector
    x = X[7]
    assert net.forward(x).tobytes() == _out_of_place_forward(net, x[None, :])[0].tobytes()
    assert forward_cached(net, x)[0].tobytes() == _out_of_place_forward(net, x).tobytes()
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
    with pytest.raises(ValueError):
        net.forward(np.zeros(3))


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


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_float32_passes_stay_float32(act):
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
    grads, d_in = backward(net, cache, d_out)
    assert grads.dtype == np.float32 and d_in.dtype == np.float32
    assert backward(net, cache, d_out, params=False)[1].dtype == np.float32


# -------------------------------------------------------------- gradients


def test_zero_net_zero_targets_zero_gradient():
    ae = Mlp([Layer(np.zeros((3, 2)), np.zeros(2), "identity"),
              Layer(np.zeros((2, 3)), np.zeros(3), "identity")])
    X = np.zeros((4, 3))
    loss, grads = ae_loss_and_grads(ae, X)
    assert loss == 0.0
    assert grads.shape == ae.flat.shape and np.all(grads == 0.0)


def test_backward_is_linear_in_the_loss():
    net = build_mlp([3, 5, 2], ["relu", "identity"], Rng(1))
    X = np.asarray(Rng(2).normals(4 * 3)).reshape(4, 3)
    _, cache = forward_cached(net, X)
    seed = np.asarray(Rng(3).normals(4 * 2)).reshape(4, 2)
    g1, _ = backward(net, cache, seed)
    g2, _ = backward(net, cache, 2.0 * seed)
    for a, b in zip(g1, g2):
        assert np.allclose(2.0 * a, b, rtol=1e-13, atol=0)


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_backward_without_params_gives_the_same_input_gradient(act):
    rng = Rng(22)
    net = build_mlp([3, 6, 4, 2], ["relu", act, act], rng)
    X = np.asarray(rng.normals(5 * 3)).reshape(5, 3)
    d_out = np.asarray(rng.normals(5 * 2)).reshape(5, 2)
    _, cache = forward_cached(net, X)
    grads, d_in = backward(net, cache, d_out)
    none, d_in_only = backward(net, cache, d_out, params=False)
    assert grads.shape == net.flat.shape and none is None
    assert np.array_equal(d_in_only, d_in)


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
    grads, d_in = backward(net, cache, d_out)
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
    # the same loop on two separate networks: the decoder's backward pass
    # feeds the encoder's, and each network steps against its own Adam state
    rng = Rng(5)
    acts = [act, "identity"]
    enc2 = build_mlp([3, 6, 2], acts, rng)
    dec2 = build_mlp([2, 6, 3], acts, rng)
    enc_state, dec_state = init_adam(enc2.flat), init_adam(dec2.flat)
    for _ in range(config.epochs):
        order = np.argsort(rng.uniforms(40), kind="stable")
        for start in range(0, 40, config.batch):
            batch = X[order[start:start + config.batch]]
            z, enc_cache = forward_cached(enc2, batch)
            xhat, dec_cache = forward_cached(dec2, z)
            diff = xhat - batch
            dg, dz = backward(dec2, dec_cache, 2.0 * diff / diff.size)
            eg, _ = backward(enc2, enc_cache, dz)
            adam_step(enc2.flat, eg, enc_state, lr=config.lr)
            adam_step(dec2.flat, dg, dec_state, lr=config.lr)
    assert np.array_equal(enc.flat, enc2.flat)
    assert np.array_equal(dec.flat, dec2.flat)
    diff = dec2.forward(enc2.forward(X)) - X
    assert history[-1] == float(np.mean(diff * diff))


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
    _, grads = ae_loss_and_grads(ae, X)
    worst = fd_check(lambda: ae_loss_and_grads(ae, X)[0], [ae.flat], [grads])
    assert worst < 1e-4


def _relu_preacts_clear_of_kinks(net, X, margin=1e-3):
    # central differences are only a valid oracle away from the relu kink
    _, cache = forward_cached(net, X)
    return all(
        np.min(np.abs(x @ layer.w + layer.b)) > margin
        for (x, _), layer in zip(cache, net.layers)
        if layer.act == "relu"
    )


def test_discriminator_gradients_match_finite_differences():
    gan = build_gan(3, 4, GanConfig(hidden=6), seed=9)
    rng = Rng(8)
    reals = np.asarray(rng.normals(6 * 3)).reshape(6, 3)
    codings = np.asarray(rng.normals(6 * 4)).reshape(6, 4)
    codings /= codings.sum(axis=1, keepdims=True)
    fakes = gan.generator.forward(codings)
    assert _relu_preacts_clear_of_kinks(gan.discriminator, reals)
    assert _relu_preacts_clear_of_kinks(gan.discriminator, fakes)
    _, grads = disc_objective_and_grads(gan, reals, codings)
    worst = fd_check(
        lambda: disc_objective_and_grads(gan, reals, codings)[0],
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
    _, grads = gen_objective_and_grads(gan, codings)
    worst = fd_check(
        lambda: gen_objective_and_grads(gan, codings)[0],
        [gan.generator.flat],
        [grads],
    )
    assert worst < 1e-4


def _float32_twin(gan):
    """Rounds gan's weights to float32 in place; returns a float32 copy."""
    for net in (gan.generator, gan.discriminator):
        net.flat[...] = net.flat.astype(np.float32)
    gen, disc = (Mlp(net.layers, np.float32) for net in (gan.generator, gan.discriminator))
    return GanModel(gen, disc, gan.phi, init_adam(gen.flat), init_adam(disc.flat))


@pytest.mark.parametrize("phi", ["log", "identity"])
def test_float32_objectives_and_grads_match_float64(phi):
    gan = build_gan(3, 4, GanConfig(hidden=16, phi=phi), seed=9)
    gan32 = _float32_twin(gan)
    rng = Rng(8)
    reals = np.asarray(rng.normals(32 * 3), dtype=np.float32).reshape(32, 3)
    codings = np.asarray(rng.normals(32 * 4)).reshape(32, 4)
    codings = (codings / codings.sum(axis=1, keepdims=True)).astype(np.float32)
    for f, args in ((disc_objective_and_grads, (reals, codings)),
                    (gen_objective_and_grads, (codings,))):
        want, want_grads = f(gan, *(a.astype(np.float64) for a in args))
        got, grads = f(gan32, *args)
        assert grads.dtype == np.float32
        assert abs(got - want) <= 1e-4 * abs(want)
        assert np.max(np.abs(grads - want_grads)) <= 1e-4 * np.max(np.abs(want_grads))


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
            assert adam_step(p, g, state, lr, b1, b2, eps) is None
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
    assert reconstruction_mse(Mlp(enc.layers + dec.layers), X) == hist[-1]


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
    for i, (net, state) in enumerate(((gan.generator, gan.gen_state),
                                      (gan.discriminator, gan.disc_state))):
        assert net.flat.dtype == np.float64 and state.m.dtype == np.float64 and state.t == 5
        assert net.flat.astype(np.float32).astype(np.float64).tobytes() == net.flat.tobytes()
        path = str(tmp_path / f"net{i}.bin")
        save_model(path, net)
        assert load_model(path).flat.tobytes() == net.flat.tobytes()


def test_tiny_lr_discriminator_step_ascends_frozen_objective():
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=7)
    rng = Rng(8)
    reals = np.asarray(rng.normals(16 * 2)).reshape(16, 2)
    codings = np.asarray(rng.normals(16 * 4)).reshape(16, 4)
    codings /= codings.sum(axis=1, keepdims=True)
    before, grads = disc_objective_and_grads(gan, reals, codings)
    adam_step(gan.discriminator.flat, -grads, gan.disc_state, lr=1e-6)
    after, _ = disc_objective_and_grads(gan, reals, codings)
    assert after > before


def test_tiny_lr_generator_step_descends_frozen_objective():
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=7)
    rng = Rng(9)
    codings = np.asarray(rng.normals(16 * 4)).reshape(16, 4)
    codings /= codings.sum(axis=1, keepdims=True)
    before, grads = gen_objective_and_grads(gan, codings)
    adam_step(gan.generator.flat, grads, gan.gen_state, lr=1e-6)
    after, _ = gen_objective_and_grads(gan, codings)
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
    # infinite data make the discriminator's scores, and so J_D, NaN
    gan = build_gan(2, 4, GanConfig(hidden=8), seed=0)
    X = np.full((8, 2), np.inf)
    with np.errstate(all="ignore"), pytest.raises(
            TrainingDivergedError, match="^non-finite discriminator objective at iteration 0$"):
        train_gan(X, _square_anchors(), SamplerConfig(d=2), gan, GanConfig(iters=3, batch=4), 0)


def test_measuring_function_rejects_unknown_tag():
    with pytest.raises(ConfigError, match=r"^\[gan\] phi='hinge' must be log or identity$"):
        GanConfig(phi="hinge")
