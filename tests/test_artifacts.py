"""Artifact mutation suite: each malformed binary input ends every stage that
reads it in one `error:` line, before the stage writes anything."""

import os
import shutil
import struct

import pytest

from lccgen.cli import main
from lccgen.config import GanConfig
from lccgen.lcc.core import AnchorSet
from lccgen.neural.gan import build_gan
from lccgen.neural.net import build_mlp
from lccgen.rng import Rng
from lccgen.serialize import save_anchors, save_model

CFG = """\
[data]
kind = ring
n = 64
seed = 7

[lcc]
m = 4
max_outer_iters = 3

[gan]
iters = 2
hidden = 8
batch = 8

[eval]
n_generated = 32
n_heldout = 32
"""

# the stages that read each artifact
READERS = {
    "ae_encoder.bin": ("learn-lcc",),
    "anchors.bin": ("train-gan", "sample", "interpolate", "eval"),
    "generator.bin": ("sample", "interpolate", "eval"),
}
FIRST_FLOAT = {b"LCCA": 12, b"LCCN": 17}  # byte offset of a file's first float


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """(config, output dir) holding artifacts written by the savers, not by
    training, and the outputs of the stages that only read them."""
    root = tmp_path_factory.mktemp("artifacts")
    cfg = root / "run.ini"
    cfg.write_text(CFG)
    out = root / "out"
    out.mkdir()
    save_model(out / "ae_encoder.bin", build_mlp([2, 8, 2], ["tanh", "identity"], Rng(1)))
    save_anchors(out / "anchors.bin", AnchorSet(Rng(2).normals(8).reshape(2, 4)))
    save_model(out / "generator.bin", build_gan(2, 4, GanConfig(hidden=8), seed=3).generator)
    for stage in ("sample", "interpolate", "eval"):
        assert main(["--config", str(cfg), "--out", str(out), stage]) == 0, stage
    return str(cfg), str(out)


def _files(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def _truncated(k):
    def mutate(buf):
        cut = buf[:k]
        return cut, "bad magic" if len(cut) < 4 else f"truncated at byte offset {len(cut)} "
    return mutate


def _appended(k):
    return lambda buf: (buf + bytes(k), f"trailing bytes at byte offset {len(buf)} "
                                        f"(file ends at {len(buf) + k})")


def _wrong_magic(buf):
    other = b"LCCN" if buf[:4] == b"LCCA" else b"LCCA"
    return other + buf[4:], f"bad magic {other!r} at byte offset 0"


def _non_finite(value, last):
    def mutate(buf):
        at = len(buf) - 8 if last else FIRST_FLOAT[buf[:4]]
        b = bytearray(buf)
        struct.pack_into("<d", b, at, value)
        return bytes(b), f"non-finite value {value} at byte offset {at}"
    return mutate


def _set_u32(at, value, why):
    def mutate(buf):
        b = bytearray(buf)
        struct.pack_into("<I", b, at, value(*struct.unpack_from("<I", buf, at)))
        return bytes(b), why
    return mutate


def _wider_layer_1(buf):
    rows0, cols0 = struct.unpack_from("<II", buf, 8)
    at = FIRST_FLOAT[b"LCCN"] + 8 * (rows0 * cols0 + cols0)
    (rows1,) = struct.unpack_from("<I", buf, at)
    b = bytearray(buf)
    struct.pack_into("<I", b, at, rows1 + 1)
    return bytes(b), f"layer 1 takes {rows1 + 1} inputs but layer 0 gives {cols0}"


def _unknown_tag(buf):
    return buf[:16] + bytes([9]) + buf[17:], "unknown activation tag 9 at byte offset 16"


def _zero_width_layer(buf):
    """A whole checkpoint, written by hand: one identity layer that takes the
    file's inputs and gives none."""
    (rows,) = struct.unpack_from("<I", buf, 8)
    return (buf[:4] + struct.pack("<IIIB", 1, rows, 0, 0),
            f"empty layer 0 ({rows} x 0) at byte offset 8")


def _zero_input_layer(buf):
    """A whole checkpoint, written by hand: one identity layer that takes no
    inputs and gives three outputs."""
    return (buf[:4] + struct.pack("<IIIB", 1, 0, 3, 0) + bytes(24),
            "empty layer 0 (0 x 3) at byte offset 8")


def _empty_anchor_set(d_b, m):
    """A whole anchors.bin, written by hand, of a d_b x m header and no floats."""
    return lambda buf: (buf[:4] + struct.pack("<II", d_b, m),
                        f"empty anchor set (d_b={d_b}, m={m}) at byte offset 4")


COMMON = {
    **{f"truncated-{k}": _truncated(k) for k in (0, 3, 4, 7, 8, 11, 12, 17, -9, -1)},
    "appended-1": _appended(1),
    "appended-2": _appended(2),
    "appended-8": _appended(8),
    "wrong-magic": _wrong_magic,
    "nan-first": _non_finite(float("nan"), last=False),
    "inf-last": _non_finite(float("inf"), last=True),
    "neg-inf-last": _non_finite(float("-inf"), last=True),
}
MODEL_SHAPES = {
    "layer-size-mismatch": _wider_layer_1,
    "no-layers": _set_u32(4, lambda n: 0, "no layers"),
    "extra-layer": _set_u32(4, lambda n: n + 1, "truncated at byte offset"),
    "unknown-activation": _unknown_tag,
    "zero-width-layer": _zero_width_layer,
    "zero-input-layer": _zero_input_layer,
}
MUTANTS = {
    "ae_encoder.bin": {**COMMON, **MODEL_SHAPES},
    "anchors.bin": {
        **COMMON,
        "more-anchors": _set_u32(8, lambda m: m + 1, "truncated at byte offset"),
        "fewer-anchors": _set_u32(8, lambda m: m - 1, "trailing bytes at byte offset 60"),
        "wider-anchors": _set_u32(4, lambda d_b: d_b + 1, "truncated at byte offset"),
        "zero-dim-anchors": _empty_anchor_set(0, 4),
        "no-anchors": _empty_anchor_set(2, 0),
    },
    "generator.bin": {**COMMON, **MODEL_SHAPES},
}
CASES = [(name, mutant) for name, mutants in MUTANTS.items() for mutant in mutants]


@pytest.mark.parametrize("stage", ["learn-lcc", "train-gan"])
def test_unmutated_artifacts_pass_the_training_stages(run_dir, tmp_path, stage):
    # run_dir has already run the other readers on these files
    cfg, out = run_dir
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    assert main(["--config", cfg, "--out", out2, stage]) == 0


@pytest.mark.parametrize("name, mutant", CASES, ids=[f"{n}-{m}" for n, m in CASES])
def test_mutated_artifact_is_one_error_line_and_writes_nothing(run_dir, tmp_path, capsys,
                                                               name, mutant):
    cfg, out = run_dir
    out2 = tmp_path / "out"
    shutil.copytree(out, out2)
    path = out2 / name
    buf, why = MUTANTS[name][mutant](path.read_bytes())
    path.write_bytes(buf)
    before = _files(out2)
    for stage in READERS[name]:
        capsys.readouterr()
        assert main(["--config", cfg, "--out", str(out2), stage]) == 1, stage
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: "), (stage, err)
        assert why in err[0], (stage, err)
        assert _files(out2) == before, stage


def test_idx_with_trailing_bytes_is_one_error_line_at_every_reader(run_dir, tmp_path, capsys):
    _, out = run_dir
    out2 = tmp_path / "out"
    shutil.copytree(out, out2)
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 6, 2, 2) + bytes(24) + b"\x07")
    cfg = tmp_path / "m.ini"
    cfg.write_text(f"[data]\nkind = mnist\nimages = {images}\n[eval]\nn_heldout = 2\n")
    before = _files(out2)
    for stage in ("train-ae", "learn-lcc", "train-gan", "eval"):
        assert main(["--config", str(cfg), "--out", str(out2), stage]) == 1, stage
        assert capsys.readouterr().err.splitlines() == [
            f"error: {images}: trailing bytes at byte offset 40 (file ends at 41)"], stage
        assert _files(out2) == before, stage
