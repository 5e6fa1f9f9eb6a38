"""Flat INI-style run configuration.

Sections and keys mirror the pipeline stages; every key has a default, so a
config file only states what differs.  Unknown sections or keys are errors
naming the offender, as are values that fail to parse.
"""

from __future__ import annotations

import configparser

from . import LccgenError

DEFAULTS = {
    "data": {
        "kind": "ring",  # ring | swiss_roll | mnist
        "n": 2000,
        "radius": 1.0,
        "noise_sigma": 0.01,
        "seed": 7,
        "images": "",  # IDX paths, mnist only
        "limit": 0,  # 0 = all
        "downsample": 0,  # 0 = native size
    },
    "autoencoder": {
        "latent_dim": 2,
        "hidden": 64,
        "epochs": 20,
        "batch": 64,
        "lr": 2e-4,
        "activation": "tanh",
    },
    "lcc": {
        "m": 16,
        "q": 2,
        "l_h": 1.0,
        "l_q": 1.0,
        "coding_tol": 1e-9,
        "anchor_tol": 1e-6,
        "max_outer_iters": 100,
    },
    "sampler": {
        "d": 2,
        "min_abs_sum": 1e-2,
    },
    "gan": {
        "iters": 5000,
        "batch": 64,
        "lr": 2e-4,
        "hidden": 128,
        "phi": "log",  # log | identity
        "beta1": 0.5,
        "beta2": 0.999,
        "generator_output": "identity",  # identity | tanh
    },
    "eval": {
        "n_generated": 1000,
        "n_heldout": 1000,
        "bandwidth": 0.0,  # 0 = median pairwise distance of the real set
        "cases": 1000,  # verify-bounds sweep size
    },
    "output": {
        "dir": "out",
    },
}


class ConfigError(LccgenError):
    pass


def _convert(section: str, key: str, raw, template):
    try:
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for [{section}] {key}: {raw!r}") from exc


def load_config(path=None) -> dict:
    """Defaults, overlaid with the file at `path` when given."""
    cfg = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            cfg[section][key] = _convert(section, key, raw, DEFAULTS[section][key])
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """overrides: iterable of (section, key, value); values may be strings."""
    for section, key, value in overrides:
        if value is None:
            continue
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        cfg[section][key] = _convert(section, key, value, DEFAULTS[section][key])
    return cfg
