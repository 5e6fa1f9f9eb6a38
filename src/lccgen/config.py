"""Flat INI-style run configuration.

Each section is one frozen dataclass holding its keys, their defaults and
their ranges; `DEFAULTS` is read off those dataclasses, so a config file
only states what differs.  `load_config` overlays the file and the CLI
flags on the defaults and builds every section once, before any stage
runs.  Unknown sections or keys, values that fail to parse and values out
of range are errors naming the offender.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

from . import LccgenError
from .neural.net import ACTIVATIONS, PHIS


class ConfigError(LccgenError, ValueError):
    pass


class _Section:
    """Range checks naming the section, key and value they refuse."""

    section = ""

    def _need(self, key, ok, rule):
        if not ok:
            raise ConfigError(f"[{self.section}] {key}={getattr(self, key)!r} {rule}")

    def _min(self, key, low):
        self._need(key, getattr(self, key) >= low, f"must be at least {low}")

    def _nonnegative(self, key):
        self._need(key, 0 <= getattr(self, key) < math.inf, "must be finite and at least 0")

    def _positive(self, key):
        self._need(key, 0 < getattr(self, key) < math.inf, "must be positive and finite")

    def _one_of(self, key, choices):
        names = [str(c) for c in choices]
        self._need(key, getattr(self, key) in choices,
                   f"must be {', '.join(names[:-1])} or {names[-1]}")


@dataclass(frozen=True)
class DataConfig(_Section):
    section = "data"
    kind: str = "ring"  # ring | swiss_roll | mnist
    n: int = 2000  # synthetic kinds only
    radius: float = 1.0
    noise_sigma: float = 0.01
    seed: int = 7  # the base seed of every stage
    images: str = ""  # IDX path, required for mnist
    limit: int = 0  # keep the first N images, 0 = all
    downsample: int = 0  # box-filter images to S x S, 0 = native size

    def __post_init__(self):
        self._one_of("kind", ("ring", "swiss_roll", "mnist"))
        self._min("n", 1)
        self._positive("radius")
        self._nonnegative("noise_sigma")
        self._need("limit", self.limit >= 0, "must be at least 0 (0 keeps every image)")
        self._min("downsample", 0)
        if self.kind == "mnist" and not self.images:
            raise ConfigError("missing config key [data] images (required for kind=mnist)")


@dataclass(frozen=True)
class AutoencoderConfig(_Section):
    section = "autoencoder"
    latent_dim: int = 2
    hidden: int = 64
    epochs: int = 20
    batch: int = 64
    lr: float = 2e-4
    activation: str = "tanh"  # of the hidden layer; outputs are linear

    def __post_init__(self):
        self._min("latent_dim", 1)
        self._min("hidden", 1)
        self._min("epochs", 0)
        self._min("batch", 1)
        self._positive("lr")
        self._one_of("activation", ACTIVATIONS)


@dataclass(frozen=True)
class LccConfig(_Section):
    section = "lcc"
    m: int = 16  # anchors learn_anchors makes; the solvers read m off the anchors
    q: int = 2  # locality exponent
    l_h: float = 1.0
    l_q: float = 1.0
    coding_tol: float = 1e-9  # certified duality gap of each coding
    anchor_tol: float = 1e-6
    max_outer_iters: int = 100

    def __post_init__(self):
        self._min("m", 1)
        self._one_of("q", (2, 3))
        self._positive("l_h")
        self._positive("l_q")
        self._positive("coding_tol")
        self._positive("anchor_tol")
        self._min("max_outer_iters", 0)


@dataclass(frozen=True)
class SamplerConfig(_Section):
    """d anchors per neighborhood; a draw whose Gaussian weights sum to less
    than min_abs_sum in absolute value is redrawn."""

    section = "sampler"
    d: int = 2
    min_abs_sum: float = 1e-2

    def __post_init__(self):
        self._min("d", 1)
        self._positive("min_abs_sum")


@dataclass(frozen=True)
class GanConfig(_Section):
    section = "gan"
    iters: int = 5000
    batch: int = 64
    lr: float = 2e-4
    hidden: int = 128
    phi: str = "log"  # a key of neural.net.PHIS
    generator_output: str = "identity"

    def __post_init__(self):
        self._min("iters", 0)
        self._min("batch", 1)
        self._positive("lr")
        self._min("hidden", 1)
        self._one_of("phi", PHIS)
        self._one_of("generator_output", ACTIVATIONS)


@dataclass(frozen=True)
class EvalConfig(_Section):
    section = "eval"
    n_generated: int = 1000
    n_heldout: int = 1000  # mnist: the first N images (after limit), never trained on
    bandwidth: float = 0.0  # 0 = median pairwise distance of the held-out set
    cases: int = 1000  # verify-bounds sweep size

    def __post_init__(self):
        self._min("n_generated", 2)
        self._min("n_heldout", 0)
        self._nonnegative("bandwidth")
        self._min("cases", 0)


@dataclass(frozen=True)
class OutputConfig(_Section):
    section = "output"
    dir: str = "out"

    def __post_init__(self):
        self._need("dir", self.dir != "", "must not be empty")


_SECTIONS = (DataConfig, AutoencoderConfig, LccConfig, SamplerConfig, GanConfig, EvalConfig,
             OutputConfig)
DEFAULTS = {cls.section: asdict(cls()) for cls in _SECTIONS}


def _convert(section: str, key: str, raw, template):
    try:
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for [{section}] {key}: {raw!r}") from exc


def ini_parser() -> configparser.ConfigParser:
    """The one INI reader: `;` also starts a comment after a value; `%` is plain."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    parser.optionxform = str  # keys match with their case, as sections do
    return parser


def load_config(path=None, overrides=()) -> SimpleNamespace:
    """The defaults, overlaid with the file at `path` when given and then
    with `overrides`, (section, key, value) triples whose value may be a
    string; a None value leaves the key as it is.  Returns one attribute
    per section, holding that section's dataclass."""
    raw = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is not None:
        parser = ini_parser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
        except configparser.Error as exc:  # its message names the file, over several lines
            raise ConfigError(f"malformed config file: {' '.join(str(exc).split())}") from exc
        for section in parser.sections():
            if section not in raw:
                raise ConfigError(f"unknown config section [{section}]")
        overrides = [(s, k, v) for s in parser.sections()
                     for k, v in parser.items(s)] + list(overrides)
    for section, key, value in overrides:
        if value is None:
            continue
        if key not in raw[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        raw[section][key] = _convert(section, key, value, DEFAULTS[section][key])
    return SimpleNamespace(**{cls.section: cls(**raw[cls.section]) for cls in _SECTIONS})
