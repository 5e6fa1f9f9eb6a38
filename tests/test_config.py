"""Configuration: the README's block against the section dataclasses, the
name tables the string keys are checked against, and the imports that let
config read those tables."""

import os
import re
import subprocess
import sys
from dataclasses import asdict

import pytest

import lccgen
from lccgen.config import (DEFAULTS, AutoencoderConfig, ConfigError, GanConfig, ini_parser,
                           load_config)
from lccgen.neural.net import ACTIVATIONS, PHIS, build_mlp
from lccgen.rng import Rng
from lccgen.serialize import load_model, save_model

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
PACKAGE = os.path.dirname(lccgen.__file__)


def test_readme_ini_block_states_every_default(tmp_path):
    with open(README) as fh:
        block = re.search(r"^```ini\n(.*?)^```$", fh.read(), re.S | re.M).group(1)
    parser = ini_parser()
    parser.read_string(block)
    assert {s: list(parser[s]) for s in parser.sections()} == \
        {s: list(kv) for s, kv in DEFAULTS.items()}
    # saved verbatim, the block is a config file that loads to the defaults
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    assert {s: asdict(getattr(cfg, s)) for s in DEFAULTS} == DEFAULTS


def test_every_module_imports_first():
    # config imports neural.net; a package __init__ that re-exported a
    # module importing config would make that a cycle, which fails here
    # for whichever module starts it
    names = []
    for root, _, files in os.walk(PACKAGE):
        for f in sorted(files):
            if f.endswith(".py"):
                rel = os.path.relpath(os.path.join(root, f[:-3]), os.path.dirname(PACKAGE))
                parts = rel.split(os.sep)
                names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    assert "lccgen.config" in names and "lccgen.neural.net" in names
    code = ("import importlib, sys\n"
            f"for name in {sorted(names)!r}:\n"
            "    for key in [k for k in sys.modules if k.split('.')[0] == 'lccgen']:\n"
            "        del sys.modules[key]\n"
            "    importlib.import_module(name)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_every_activation_round_trips_and_is_a_config_value(tmp_path):
    path = tmp_path / "net.bin"
    for act in ACTIVATIONS:
        net = build_mlp([2, 3], [act], Rng(1))
        save_model(path, net)
        # the tag byte after the magic, layer count, rows and cols is a file
        # format: the name's position in the table
        assert path.read_bytes()[16] == ("identity", "relu", "tanh", "sigmoid").index(act)
        layer = load_model(path).layers[0]
        assert layer.act == act
        assert layer.w.tobytes() == net.layers[0].w.tobytes()
        assert AutoencoderConfig(activation=act).activation == act
        assert GanConfig(generator_output=act).generator_output == act
    for phi in PHIS:
        assert GanConfig(phi=phi).phi == phi
    with pytest.raises(ConfigError, match="must be identity, relu, tanh or sigmoid$"):
        AutoencoderConfig(activation="swish")
    with pytest.raises(ConfigError, match="must be identity, relu, tanh or sigmoid$"):
        GanConfig(generator_output="swish")


@pytest.mark.parametrize("key", ["l_h", "l_q"])
@pytest.mark.parametrize("value", ["0", "nan"])
def test_both_lcc_weights_must_be_positive(key, value):
    # without its locality term the objective is no longer LCC, and without
    # its reconstruction term the codings need not reconstruct
    with pytest.raises(ConfigError, match=rf"^\[lcc\] {key}=.* must be positive and finite$"):
        load_config(overrides=[("lcc", key, value)])
    assert getattr(load_config(overrides=[("lcc", key, "1e-4")]).lcc, key) == 1e-4
