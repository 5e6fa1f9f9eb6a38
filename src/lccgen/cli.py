"""Batch pipeline driver.

Each subcommand reads the config (flags override file keys), consumes the
artifacts earlier stages left in the output directory, and writes its own
artifacts there.  A single --seed drives every stage deterministically:
the data seed is the base itself, and each stage derives its own stream.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import LccgenError
from .bounds import KINDS, bound_sweep
from .config import ConfigError, load_config
from .datasets import make_ring, make_swiss_roll, load_mnist_idx
from .lcc.core import learn_anchors
from .lcc.sampling import interpolate, sample_coding_pair, sample_codings
from .metrics import median_pairwise_distance, mmd2, pearson_nn
from .neural.autoencoder import train_autoencoder
from .neural.gan import build_gan, train_gan
from .rng import Rng, stage_seed
from .serialize import (
    FLOAT,
    anchors_to_csv,
    atomic_write,
    codings_to_csv,
    kv_to_csv,
    load_anchors,
    matrix_to_csv,
    load_model,
    save_anchors,
    save_model,
    scatter_image,
    tile_images,
    write_pgm,
)

_TAG_AE, _TAG_LCC, _TAG_GAN_INIT, _TAG_GAN_TRAIN = 1, 2, 3, 4
_TAG_SAMPLE, _TAG_INTERP, _TAG_VERIFY, _TAG_EVAL, _TAG_HELDOUT = 5, 6, 7, 8, 9


class CliError(LccgenError):
    pass


def _dataset(cfg, heldout=False):
    """The (n, dim) training samples, or with heldout=True eval's held-out
    samples: a fresh draw of [eval] n_heldout points for the synthetic
    kinds, and for mnist the first n_heldout images, which no training
    stage sees."""
    d, n_heldout = cfg.data, cfg.eval.n_heldout
    if d.kind != "mnist":
        n, seed = ((n_heldout, stage_seed(d.seed, _TAG_HELDOUT)) if heldout
                   else (d.n, d.seed))
        if d.kind == "ring":
            return make_ring(n, d.radius, d.noise_sigma, seed)
        return make_swiss_roll(n, d.noise_sigma, seed)
    images = load_mnist_idx(d.images, limit=d.limit or None,
                            downsample_to=d.downsample or None)
    if n_heldout >= len(images):
        raise ConfigError(f"{d.images}: [eval] n_heldout={n_heldout} must be at least 0 "
                          f"and leave some of its {len(images)} images for training")
    return images[:n_heldout] if heldout else images[n_heldout:]


def _need(path, producer):
    if not os.path.exists(path):
        raise CliError(f"missing artifact {path}; run `lccgen {producer}` first")
    return path


def _load_generator(path, anchors):
    generator = load_model(_need(path, "train-gan"))
    if generator.in_dim != anchors.m:
        raise CliError(f"{path} takes {generator.in_dim} coding weights but the anchors "
                       f"have m={anchors.m}; run `lccgen train-gan` first")
    return generator


def _loss_csv(path, header, rows):
    """One line per step: the step's index, then its losses."""
    rows = np.asarray(rows, dtype=np.float64)
    matrix_to_csv(path, np.column_stack([np.arange(len(rows)), rows]), header)


def cmd_train_ae(cfg, out):
    encoder, decoder, history = train_autoencoder(
        _dataset(cfg), cfg.autoencoder, stage_seed(cfg.data.seed, _TAG_AE))
    save_model(os.path.join(out, "ae_encoder.bin"), encoder)
    save_model(os.path.join(out, "ae_decoder.bin"), decoder)
    _loss_csv(os.path.join(out, "ae_losses.csv"), ["epoch", "loss"], history)
    print(f"train-ae: {len(history)} epochs, final loss "
          f"{history[-1]:.6g}" if history else "train-ae: 0 epochs")
    return 0


def cmd_learn_lcc(cfg, out):
    X = _dataset(cfg)
    encoder = load_model(_need(os.path.join(out, "ae_encoder.bin"), "train-ae"))
    embeddings = encoder.forward(X)
    trace = []
    anchors, G, reasons = learn_anchors(embeddings, cfg.lcc, stage_seed(cfg.data.seed, _TAG_LCC),
                                        trace=trace)
    save_anchors(os.path.join(out, "anchors.bin"), anchors)
    anchors_to_csv(os.path.join(out, "anchors.csv"), anchors)
    codings_to_csv(os.path.join(out, "codings.csv"), G)
    _loss_csv(os.path.join(out, "lcc_objective.csv"), ["iter", "objective"], trace)
    print(f"learn-lcc: m={anchors.m} d_b={anchors.d_b}, "
          f"objective {trace[0]:.6g} -> {trace[-1]:.6g} in {len(trace)} iters"
          if trace else "learn-lcc: 0 iterations")
    print("codings: " + ", ".join(f"{np.count_nonzero(reasons == r)} {r}"
                                  for r in ("vertex", "hit", "gap", "cap")))
    return 0


def cmd_train_gan(cfg, out):
    X = _dataset(cfg)
    anchors = load_anchors(_need(os.path.join(out, "anchors.bin"), "learn-lcc"))
    model = build_gan(X.shape[1], anchors.m, cfg.gan, stage_seed(cfg.data.seed, _TAG_GAN_INIT))
    model, trace = train_gan(X, anchors, cfg.sampler, model, cfg.gan,
                             stage_seed(cfg.data.seed, _TAG_GAN_TRAIN))
    save_model(os.path.join(out, "generator.bin"), model.generator)
    save_model(os.path.join(out, "discriminator.bin"), model.discriminator)
    _loss_csv(os.path.join(out, "gan_losses.csv"), ["iter", "d_loss", "g_loss"], trace)
    if trace:
        print(f"train-gan: {len(trace)} iters, d={trace[-1][0]:.4f} g={trace[-1][1]:.4f}")
    else:
        print("train-gan: 0 iterations")
    return 0


def cmd_sample(cfg, out, n, generator_path=None):
    if n < 1:
        raise CliError(f"--n must be at least 1, got {n}")
    anchors = load_anchors(_need(os.path.join(out, "anchors.bin"), "learn-lcc"))
    # load every input before writing any output
    gen_file = generator_path or os.path.join(out, "generator.bin")
    generator = (_load_generator(gen_file, anchors)
                 if generator_path or os.path.exists(gen_file) else None)
    G = sample_codings(anchors, n, cfg.sampler, Rng(stage_seed(cfg.data.seed, _TAG_SAMPLE)))
    codings_to_csv(os.path.join(out, "codings_sampled.csv"), G)
    wrote = ["codings_sampled.csv"]
    if generator is not None:
        outputs = generator.forward(G)
        matrix_to_csv(os.path.join(out, "sampled_outputs.csv"), outputs)
        wrote.append("sampled_outputs.csv")
    print(f"sample: {n} codings -> {', '.join(wrote)}")
    return 0


def cmd_interpolate(cfg, out, steps, generator_path=None):
    anchors = load_anchors(_need(os.path.join(out, "anchors.bin"), "learn-lcc"))
    generator = _load_generator(generator_path or os.path.join(out, "generator.bin"), anchors)
    a, b = sample_coding_pair(anchors, cfg.sampler, Rng(stage_seed(cfg.data.seed, _TAG_INTERP)))
    G = interpolate(a, b, steps)
    codings_to_csv(os.path.join(out, "interp_codings.csv"), G)
    matrix_to_csv(os.path.join(out, "interp_outputs.csv"), generator.forward(G))
    print(f"interpolate: {steps} steps along one neighborhood")
    return 0


def cmd_verify_bounds(cfg, out):
    cases = cfg.eval.cases
    lhs, rhs = bound_sweep(Rng(stage_seed(cfg.data.seed, _TAG_VERIFY)), cases)
    ok = lhs <= rhs + 1e-10
    line = f"%d,%s,%d,{FLOAT},{FLOAT},{FLOAT},%d\n"
    with atomic_write(os.path.join(out, "bounds.csv")) as fh:
        fh.write("case,kind,order,lhs,rhs,margin,ok\n")
        for (case, kind, order), l, r, margin, good in zip(
                np.ndindex(ok.shape), lhs.ravel().tolist(), rhs.ravel().tolist(),
                (rhs - lhs).ravel().tolist(), ok.ravel().tolist()):
            fh.write(line % (case, KINDS[kind], order + 1, l, r, margin, good))
    violations = int(np.count_nonzero(~ok))
    print(f"verify-bounds: {cases} configurations, {ok.size} checks, "
          f"{violations} violations")
    if violations:
        case, kind, order = np.argwhere(~ok)[0]
        print(f"error: verify-bounds: {violations} of {ok.size} checks violated "
              f"(first: case {case}, {KINDS[kind]}, order {order + 1})", file=sys.stderr)
        return 1
    return 0


def cmd_eval(cfg, out):
    if cfg.eval.n_heldout < 2:
        raise ConfigError(f"[eval] n_heldout={cfg.eval.n_heldout} must be at least 2 for eval")
    X = _dataset(cfg)
    anchors = load_anchors(_need(os.path.join(out, "anchors.bin"), "learn-lcc"))
    generator = _load_generator(os.path.join(out, "generator.bin"), anchors)
    G = sample_codings(anchors, cfg.eval.n_generated, cfg.sampler,
                       Rng(stage_seed(cfg.data.seed, _TAG_EVAL)))
    generated = generator.forward(G)
    held = _dataset(cfg, heldout=True)
    bandwidth = cfg.eval.bandwidth or median_pairwise_distance(held)
    score = mmd2(generated, held, bandwidth)
    probe = min(100, len(generated))
    positive = 0
    for q in generated[:probe]:
        # a constant sample has no correlation distance; it counts as not positive
        if np.any(q != q[0]):
            positive += 1 if pearson_nn(q, X)[1] > 0.0 else 0
    matrix_to_csv(os.path.join(out, "samples.csv"), generated)
    kv_to_csv(os.path.join(out, "metrics.csv"), [
        ("mmd2", score),
        ("bandwidth", bandwidth),
        ("pearson_positive_fraction", positive / probe),
    ])
    dim = X.shape[1]
    side = int(round(np.sqrt(dim)))
    # square dims tile as images; other data scatter their first two coordinates
    if side * side == dim:
        write_pgm(os.path.join(out, "grid.pgm"), tile_images(generated[:64], 8))
    else:
        write_pgm(os.path.join(out, "grid.pgm"), scatter_image(generated[:, :2]))
    print(f"eval: mmd2={score:.6g} bandwidth={bandwidth:.6g} "
          f"pearson>0 for {positive}/{probe}")
    return 0


# subcommand flags that override a config key of the same name
_FLAGS = (("lcc", "m"), ("lcc", "q"), ("gan", "iters"), ("gan", "phi"), ("sampler", "d"),
          ("eval", "cases"))
_COMMANDS = {"train-ae": cmd_train_ae, "learn-lcc": cmd_learn_lcc, "train-gan": cmd_train_gan,
             "verify-bounds": cmd_verify_bounds, "eval": cmd_eval}


def build_parser():
    p = argparse.ArgumentParser(prog="lccgen", description=__doc__)
    p.add_argument("--config", help="INI config file; defaults cover every key")
    p.add_argument("--seed", type=int, help="base seed overriding [data] seed")
    p.add_argument("--out", help="output directory overriding [output] dir")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("train-ae", help="train the autoencoder on the configured data")
    lcc = sub.add_parser("learn-lcc", help="learn anchors and codings on embeddings")
    lcc.add_argument("--m", type=int, help="anchor count override")
    lcc.add_argument("--q", type=int, help="locality exponent override (2 or 3)")
    gan = sub.add_parser("train-gan", help="adversarial training on anchor codings")
    gan.add_argument("--iters", type=int, help="iteration override")
    gan.add_argument("--phi", help="measuring function override (log or identity)")
    samp = sub.add_parser("sample", help="draw codings (and outputs when a generator exists)")
    samp.add_argument("--n", type=int, default=100, help="number of codings (default 100)")
    samp.add_argument("--d", type=int, help="neighborhood size override")
    samp.add_argument("--generator", help="generator checkpoint path")
    inter = sub.add_parser("interpolate", help="linear path between two local codings")
    inter.add_argument("--steps", type=int, default=10, help="path length (default 10)")
    inter.add_argument("--generator", help="generator checkpoint path")
    ver = sub.add_parser("verify-bounds", help="numerical check of the coding bounds")
    ver.add_argument("--cases", type=int, help="number of random configurations")
    sub.add_parser("eval", help="two-sample metrics and an image grid for the generator")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a flag left unset, or not defined for this command, keeps the file's value
        cfg = load_config(args.config, [("data", "seed", args.seed), ("output", "dir", args.out)]
                          + [(s, k, getattr(args, k, None)) for s, k in _FLAGS])
        out = cfg.output.dir
        os.makedirs(out, exist_ok=True)
        if args.command == "sample":
            return cmd_sample(cfg, out, args.n, args.generator)
        if args.command == "interpolate":
            return cmd_interpolate(cfg, out, args.steps, args.generator)
        return _COMMANDS[args.command](cfg, out)
    except (LccgenError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the shape it could not allocate
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
