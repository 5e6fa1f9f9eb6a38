"""CLI tests: stage chaining, artifact schemas, rerun stability, and error
messages that name the offending key or file."""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import re
import shutil
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import lccgen
from lccgen.bounds import QuadraticGenerator, SmoothnessConstants
from lccgen.cli import build_parser, main
from lccgen.config import DEFAULTS, GanConfig
from lccgen.lcc import core
from lccgen.lcc.core import LccConfig
from lccgen.neural.autoencoder import reconstruction_mse
from lccgen.neural.gan import build_gan
from lccgen.neural.net import Layer, Mlp
from lccgen.rng import Rng, stage_seed
from lccgen.serialize import load_model, save_model

SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "spans.py")

BASE_CFG = """
[data]
kind = ring
n = 64
noise_sigma = 0.0
seed = 7

[autoencoder]
epochs = 2
hidden = 8
batch = 32
lr = 0.01

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
cases = 5

[output]
dir = {out}
"""


def read_codings(path, m):
    """codings_to_csv's file as an (n, m) array: each line's index:weight
    cells, zeros elsewhere."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    W = np.zeros((len(lines), m))
    for i, line in enumerate(lines):
        for cell in line.split(","):
            j, _, w = cell.partition(":")
            W[i, int(j)] = float(w)
    return W


def write_cfg(dirpath, out):
    path = os.path.join(dirpath, "run.ini")
    with open(path, "w") as fh:
        fh.write(textwrap.dedent(BASE_CFG.format(out=out)))
    return path


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """A run directory after train-ae and learn-lcc."""
    root = tmp_path_factory.mktemp("staged")
    out = str(root / "out")
    cfg = write_cfg(str(root), out)
    assert main(["--config", cfg, "train-ae"]) == 0
    assert main(["--config", cfg, "learn-lcc"]) == 0
    return cfg, out


@pytest.fixture(scope="module")
def full_pipeline(tmp_path_factory, staged):
    """The staged directory carried through gan training, sampling,
    interpolation, and eval."""
    cfg, out = staged
    root = tmp_path_factory.mktemp("full")
    out2 = str(root / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(root), out2)
    assert main(["--config", cfg2, "train-gan"]) == 0
    assert main(["--config", cfg2, "sample", "--n", "5"]) == 0
    assert main(["--config", cfg2, "interpolate", "--steps", "4"]) == 0
    assert main(["--config", cfg2, "eval"]) == 0
    return cfg2, out2


def test_train_ae_artifacts(staged):
    _, out = staged
    assert os.path.exists(os.path.join(out, "ae_encoder.bin"))
    assert os.path.exists(os.path.join(out, "ae_decoder.bin"))
    with open(os.path.join(out, "ae_losses.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3  # two epochs


def test_learn_lcc_artifacts(staged):
    _, out = staged
    for name in ("anchors.bin", "anchors.csv", "codings.csv", "lcc_objective.csv"):
        assert os.path.exists(os.path.join(out, name))
    codings = read_codings(os.path.join(out, "codings.csv"), 4)
    assert len(codings) == 64
    for w in codings:
        assert abs(w.sum() - 1.0) <= 1e-9


def test_learn_lcc_prints_coding_stop_reasons(staged, tmp_path, capsys):
    _, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    capsys.readouterr()
    assert main(["--config", cfg2, "learn-lcc"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    m = re.fullmatch(r"codings: (\d+) vertex, (\d+) hit, (\d+) gap, (\d+) cap", lines[1])
    assert m, lines[1]
    assert sum(int(k) for k in m.groups()) == 64  # one reason per data point
    # stdout only: no artifact mentions a reason
    for name in os.listdir(out2):
        with open(os.path.join(out2, name), "rb") as fh:
            assert b"vertex" not in fh.read(), name


def test_full_pipeline_artifacts(full_pipeline):
    _, out = full_pipeline
    for name in (
        "generator.bin", "discriminator.bin", "gan_losses.csv",
        "codings_sampled.csv", "sampled_outputs.csv",
        "interp_codings.csv", "interp_outputs.csv",
        "samples.csv", "metrics.csv", "grid.pgm",
    ):
        assert os.path.exists(os.path.join(out, name))


def test_metrics_csv_schema(full_pipeline):
    _, out = full_pipeline
    with open(os.path.join(out, "metrics.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "name,value"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["mmd2", "bandwidth", "pearson_positive_fraction"]


def test_interpolation_endpoints_span_steps(full_pipeline):
    _, out = full_pipeline
    rows = read_codings(os.path.join(out, "interp_codings.csv"), 4)
    assert len(rows) == 4
    for w in rows:
        assert abs(w.sum() - 1.0) <= 1e-12


def test_grid_is_a_pgm(full_pipeline):
    _, out = full_pipeline
    with open(os.path.join(out, "grid.pgm"), "rb") as fh:
        assert fh.read(3) == b"P5\n"


def test_train_gan_zero_iters_checkpoint_matches_init(staged, tmp_path):
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    assert main(["--config", cfg2, "train-gan", "--iters", "0"]) == 0
    saved = load_model(os.path.join(out2, "generator.bin"))
    want = build_gan(2, 4, GanConfig(hidden=8), seed=stage_seed(7, 3))
    for a, b in zip(saved.layers, want.generator.layers):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)
    with open(os.path.join(out2, "gan_losses.csv")) as fh:
        assert fh.read() == "iter,d_loss,g_loss\n"


def test_sample_d1_codings_are_one_hot(staged, tmp_path):
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    with open(cfg2, "a") as fh:
        fh.write("\n[sampler]\nd = 1\n")
    assert main(["--config", cfg2, "sample", "--n", "20"]) == 0
    codings = read_codings(os.path.join(out2, "codings_sampled.csv"), 4)
    assert len(codings) == 20
    for w in codings:
        nz = np.nonzero(w)[0]
        assert len(nz) == 1 and w[nz[0]] == 1.0


def test_rerun_reproduces_byte_identical_csvs(staged, tmp_path):
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    assert main(["--config", cfg2, "sample", "--n", "25"]) == 0
    with open(os.path.join(out2, "codings_sampled.csv"), "rb") as fh:
        first = fh.read()
    assert main(["--config", cfg2, "sample", "--n", "25"]) == 0
    with open(os.path.join(out2, "codings_sampled.csv"), "rb") as fh:
        assert fh.read() == first
    # a different base seed must change the draw
    assert main(["--config", cfg2, "--seed", "8", "sample", "--n", "25"]) == 0
    with open(os.path.join(out2, "codings_sampled.csv"), "rb") as fh:
        assert fh.read() != first


def test_verify_bounds_reports_all_cases(staged, tmp_path, capsys):
    cfg, _ = staged
    out2 = str(tmp_path / "out")
    cfg2 = write_cfg(str(tmp_path), out2)
    assert main(["--config", cfg2, "verify-bounds", "--cases", "5"]) == 0
    capsys.readouterr()
    with open(os.path.join(out2, "bounds.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "case,kind,order,lhs,rhs,margin,ok"
    assert len(lines) == 1 + 5 * 4  # affine+quadratic, both orders
    assert all(line.endswith(",1") for line in lines[1:])


# sha256 of bounds.csv from `verify-bounds --cases 60` at seed 7, as the
# per-case loop wrote it before the sweep was done in bulk
BOUNDS_60_SHA256 = "eafaa21b6a1df09d1f6448e65be8f3df49f0d0f0b7b3caf54b10bf705877ed56"


def test_verify_bounds_bytes_match_fixture(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["--seed", "7", "--out", out, "verify-bounds", "--cases", "60"]) == 0
    assert capsys.readouterr().out == "verify-bounds: 60 configurations, 240 checks, 0 violations\n"
    with open(os.path.join(out, "bounds.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == BOUNDS_60_SHA256


# sha256 of every file a reduced ring pipeline writes at seed 7, with the
# autoencoder and the GAN trained in float32
PIPELINE_SHA256 = {
    "ae_decoder.bin": "5becf4372129029e785a57e7abd75726082cfc4c7a94ed2f07b192383e02486f",
    "ae_encoder.bin": "cda75b075dfb2d744a8a2f25c45e4ef00200eac2287253024a57a77201be3162",
    "ae_losses.csv": "ca7e4cf4659b46f9c72fd9648373598725165c9a2e0cdf5838bbbd563d1deaf5",
    "anchors.bin": "eb0fa355bb8d716b7ec84a196cb56bd514054a920fa54aeee4701babfab290b6",
    "anchors.csv": "f63982727196eb736b843037201e71961e700271751c8184e6c98bdc4c3ecc8b",
    "bounds.csv": "b36e9fb2b1e8cd23bd2f1e90510c17699787efbb3080ed995b2def265b67f9ba",
    "codings.csv": "be3e4ddcdffa62373f262360e87476f9f697535a6642c971ea66c01ed8c24a88",
    "codings_sampled.csv": "064c3ac113b40e05f510d869a23f67980564e24d343fe39245006c54243464fc",
    "discriminator.bin": "b72fe632dc301b2dedbc568fb319de61e7c4b34d5ece4798fbe73b55412b6327",
    "gan_losses.csv": "8d1609f3f2e71b75c68edb5ee242dfe8d643ba6a9d70aff61484b9d781fffef6",
    "generator.bin": "72bf3fb1a9890c6283cafee2e9406522b504dbd130373ac304c7c12fb8f7fc47",
    "grid.pgm": "b03ae51625567782cfb944c964bb8e9f342bc15294a4b55a9a84049f364cdba6",
    "interp_codings.csv": "78cbd8830820c6706f86290ed8fce5e7ce3c8cd8a1054b0a505801ac6bd63111",
    "interp_outputs.csv": "334d6510a9e73979709a886c1ce4f164af09b40a315984fdf09463055ce7ed56",
    "lcc_objective.csv": "570f4a733114103dde7f8fb5e39c87f8d9c6ddb300a7f3e4d39ece266ae49915",
    "metrics.csv": "b3ab9dde17a07459cd35e5ab28f14ffb734b29a6ba46c2689bcab37fe102f449",
    "sampled_outputs.csv": "f446da51912cf4b7a2ee58544b3b7a7e1dacdf299ed67e5c85be55eafcec49c2",
    "samples.csv": "fb3512203d17617cd81d79232012fd2d095529d215c5b8350c12fa61bd64b81f",
}


RING_INI = ("[data]\nkind = ring\nn = 300\nseed = 7\n[autoencoder]\nepochs = 3\n"
            "[lcc]\nm = 8\n[gan]\niters = 40\n"
            "[eval]\nn_generated = 200\nn_heldout = 200\n[output]\ndir = {out}\n")


def test_reduced_ring_pipeline_bytes_match_fixture(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "ring.ini"
    cfg.write_text(RING_INI.format(out=out))
    for argv in (["train-ae"], ["learn-lcc"], ["train-gan"], ["sample", "--n", "50"],
                 ["interpolate", "--steps", "5"], ["eval"], ["verify-bounds", "--cases", "20"]):
        assert main(["--config", str(cfg)] + argv) == 0, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == PIPELINE_SHA256


# sha256 of every file a reduced swiss-roll pipeline writes at seed 7, the
# autoencoder and the GAN trained in float32 as above: 3-D data, which
# eval's grid scatters by its first two coordinates, the identity phi and a
# tanh generator output.
# hidden = 16 keeps the tanh outputs inside (-1, 1); at the default [gan]
# hidden of 128 they saturate into constant samples, which
# test_eval_counts_a_constant_sample_as_not_positive runs.
SWISS_ROLL_SHA256 = {
    "ae_decoder.bin": "18fa6e32c638f8b9268ecbfd5dcfce076010a79c2bbaf46ae10d57718b131f9f",
    "ae_encoder.bin": "834b1aa85a626487b57886adf8b22df68b5af778606b959dd1a2df1bd1e28de4",
    "ae_losses.csv": "4e4cfca904329ac2ea6c2b4b43d73b9ea90227a8d935e202c03e9c14d2194f0e",
    "anchors.bin": "21f6502181c5254887bf5d5db8eafef5cbafec1f0ec2cd5cc50937fb7871d8f9",
    "anchors.csv": "08cece02553b8c5d2fa87c9f275dd864d3626469697b11080dbbb63a550b55eb",
    "bounds.csv": "b36e9fb2b1e8cd23bd2f1e90510c17699787efbb3080ed995b2def265b67f9ba",
    "codings.csv": "5cc9ad2b629ae50ac9da6823eaf8da85c2e5b24d5e2daba8e5237ce48236f8c2",
    "codings_sampled.csv": "1ecf53c140a6f7e960c65ac472593c0655d0c0d98c60f864042dec1a354ed40a",
    "discriminator.bin": "e43a82bdf0bc0b32db9d09264cc60ec48ca2915e62299382f7d5a219684b1343",
    "gan_losses.csv": "5160e57f62229dc64c5c51cc8eb458b53ea619332139788a7e247ef266c330d9",
    "generator.bin": "9ad252cd9bac90512f8b91996ff085a5a706df909de21c45682ad89e284c039b",
    "grid.pgm": "c29206eb69f4b6f05bbbcc82d7495df088f6eb8666e431bbd1ca0a6e5474586f",
    "interp_codings.csv": "b5a62d0ba24b0511e0c8b2e6981f69c90e8351a31666cd44c6ef81b9adf6dda9",
    "interp_outputs.csv": "c1ab7d0d25636974fbeeb44dc4bdc4c164af9a576f95691b25f0eaa976222b1d",
    "lcc_objective.csv": "bc6008971e1b55895d97071257c74f2480da57328ec9f9516fdc9f43b9e38c44",
    "metrics.csv": "8049a6bb078d014391b2cdaec050d700452560bcfacf1e67fb6bee6c5ab5e5f4",
    "sampled_outputs.csv": "8c3cefca5baefce9349b987b98fa708c77edf2c356a2e8acb62b8076c1105cba",
    "samples.csv": "f993abf4c8122046cfdea430caa499763f93210327afa3304278c5f0d205477e",
}


SWISS_ROLL_INI = ("[data]\nkind = swiss_roll\nn = 300\nseed = 7\n[autoencoder]\nepochs = 3\n"
                  "[lcc]\nm = 8\nmax_outer_iters = 5\n"
                  "[gan]\niters = 100\nhidden = 16\nphi = identity\ngenerator_output = tanh\n"
                  "[eval]\nn_generated = 200\nn_heldout = 200\n[output]\ndir = {out}\n")


def test_reduced_swiss_roll_pipeline_bytes_match_fixture(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "swiss.ini"
    cfg.write_text(SWISS_ROLL_INI.format(out=out))
    for argv in (["train-ae"], ["learn-lcc"], ["train-gan"], ["sample", "--n", "50"],
                 ["interpolate", "--steps", "5"], ["eval"], ["verify-bounds", "--cases", "20"]):
        assert main(["--config", str(cfg)] + argv) == 0, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == SWISS_ROLL_SHA256


@pytest.mark.parametrize("ini, line", [
    (RING_INI, "codings: 292 vertex, 8 hit, 0 gap, 0 cap"),
    (SWISS_ROLL_INI, "codings: 196 vertex, 0 hit, 104 gap, 0 cap"),
], ids=["ring", "swiss_roll"])
def test_reduced_pipelines_send_no_row_to_the_active_set(ini, line, tmp_path, monkeypatch, capsys):
    # every coding the ring fixture above pins is a hit or an LP vertex, so
    # none comes from the active set; the swiss-roll fixture's points outside
    # the anchors' hull end there, certified, and no vertex or hit row does
    rows = []
    active = core._active_set_codings
    monkeypatch.setattr(core, "_active_set_codings",
                        lambda *args: rows.append(len(args[0])) or active(*args))
    cfg = tmp_path / "fixture.ini"
    cfg.write_text(ini.format(out=tmp_path / "out"))
    for argv in (["train-ae"], ["learn-lcc"]):
        assert main(["--config", str(cfg)] + argv) == 0, argv
    assert capsys.readouterr().out.splitlines()[-1] == line
    gap = int(line.split(", ")[2].split()[0])
    assert bool(rows) == (gap > 0) and max(rows, default=0) <= gap


# sha256 of every file train-ae and learn-lcc write on a relu autoencoder's
# ring embedding with q = 3 and m = 8.  Besides active-set codings for rows
# outside the anchors' hull ("gap"), its rows take the paths the two
# pipelines above miss: rows within 1e-5 of an anchor, whose vertex
# certificates need the dual bound in coordinates centred on that anchor,
# q = 3's anchor weights, and backtracking steps that move the anchors.
RELU_Q3_SHA256 = {
    "ae_decoder.bin": "87fb4022a81090e10873d733e0477735a2fb5659943ba227ab5a1c927b7b81a3",
    "ae_encoder.bin": "ef8d2075c8528c35a0003645c5f9c2712910872eb4b156872815b42d345d67b1",
    "ae_losses.csv": "19b1c392fa395a6fe00cc620053ec0714ffbaa75867b8710f68bec8c9ce28e64",
    "anchors.bin": "c634081a842878e29cfccb269f13bc3a6489fb7e489331f0d262871fc19711fc",
    "anchors.csv": "1d82a7ea2bb6b34ac885bd1601de64d5882e348a51647bf96a7921d6eb60e7a7",
    "codings.csv": "7cad83818c9d746c3a4ccab3d248c8d91612ed013f6905b26a02c24af73c9dac",
    "lcc_objective.csv": "d0461d22ad9780a413cfa86bba0bc09c6f0e8ffaaadd696ad2f1f8a26e012599",
}


def test_reduced_relu_q3_fit_bytes_match_fixture(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "relu.ini"
    cfg.write_text("[data]\nkind = ring\nn = 300\nseed = 7\n"
                   "[autoencoder]\nepochs = 3\nactivation = relu\n"
                   "[lcc]\nm = 8\nq = 3\nmax_outer_iters = 3\n"
                   f"[output]\ndir = {out}\n")
    for argv in (["train-ae"], ["learn-lcc"]):
        assert main(["--config", str(cfg)] + argv) == 0, argv
    line = capsys.readouterr().out.splitlines()[-1]
    m = re.fullmatch(r"codings: (\d+) vertex, (\d+) hit, (\d+) gap, (\d+) cap", line)
    assert m and int(m.group(3)) > 0, line
    assert int(m.group(4)) == 0, line
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == RELU_Q3_SHA256


# sha256 of every file a reduced ring pipeline writes at seed 7 with a
# three-dimensional latent space: the active set codes nearly every row
# ("gap") and the anchor step moves the anchors in each of the eight
# iterations, paths the latent-2 fixtures above reach only in part.
LATENT3_SHA256 = {
    "ae_decoder.bin": "f194be849df88cbdbe020191032e898bd6dc029c66092b59611959f8e572e59d",
    "ae_encoder.bin": "41fcd8bfaab635a552a01011bf68c1dd45e409882f72e17e3049cd5fe04cfaff",
    "ae_losses.csv": "1ac45f1226a34b3996f0a5bbe2ad34bb0a829abe4a9795a2f5c78dd4e51369b6",
    "anchors.bin": "71039cbe5e6891b96bddbeca5260ed850be6e5694225215bf12f91b59ade49ca",
    "anchors.csv": "461d7bfbd511c3c36b58e5ba3b86496d44fbd02d3724c0bb1e75be15ba5a629f",
    "codings.csv": "a36673e8b711e39ac16ced6ffd7e84b407ae27671863df0610fce1c4933a7332",
    "codings_sampled.csv": "b41683c1bdd33d628cda57fc6baa131b124c02a76b88eccae0d2fd05dbc022b1",
    "discriminator.bin": "c558543b2831b53320c529257cf0f9a0daa09302c77852ed80bb0e6670f2bd4c",
    "gan_losses.csv": "5cdfe68ea01ae319b1c756699024310b6314fe52292eaa7e2d4928e0d19b8cb6",
    "generator.bin": "17d3c4fa32ac546de25a4570b067246e5123b47324219a0604f3179336a58647",
    "grid.pgm": "ed0df0c595df0e2a9b339eb696a6c32c6c8748ac7cfff86cc54c9e516dd64d76",
    "lcc_objective.csv": "a79cde49259183d71645c352e2779961695d58688c080b89ca9150d3ad4ed57b",
    "metrics.csv": "82580f4d58a42e956d8b1435abfc53b2ddb8ae6205c4a9853390315385091aed",
    "sampled_outputs.csv": "c6324b5fcb51ced710f29efc8238034a45820ef67f1dfcb0b2f132d0a2103da8",
    "samples.csv": "68864b503fe834a31439647ef15241a4e1c23a98e93bfb65e26576d7ca576877",
}


@pytest.fixture(scope="module")
def latent3(tmp_path_factory):
    """The latent-3 ring run directory and the lines its stages printed."""
    root = tmp_path_factory.mktemp("latent3")
    out = root / "out"
    cfg = root / "latent3.ini"
    cfg.write_text("[data]\nkind = ring\nseed = 7\n"
                   "[autoencoder]\nlatent_dim = 3\nepochs = 5\n[lcc]\nmax_outer_iters = 8\n"
                   "[gan]\niters = 100\nhidden = 32\n"
                   f"[eval]\nn_generated = 200\nn_heldout = 200\n[output]\ndir = {out}\n")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for argv in (["train-ae"], ["learn-lcc"], ["train-gan"], ["sample", "--n", "50"],
                     ["eval"]):
            assert main(["--config", str(cfg)] + argv) == 0, argv
    return out, printed.getvalue().splitlines()


def test_reduced_latent3_pipeline_bytes_match_fixture(latent3):
    out, printed = latent3
    assert "codings: 44 vertex, 0 hit, 1956 gap, 0 cap" in printed
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == LATENT3_SHA256


def test_latent3_objective_never_rises_as_the_anchors_move(latent3):
    out, _ = latent3
    rows = (out / "lcc_objective.csv").read_text().splitlines()
    assert rows[0] == "iter,objective" and len(rows) == 9
    objective = [float(row.split(",")[1]) for row in rows[1:]]
    assert all(b <= a for a, b in zip(objective, objective[1:])), objective
    assert objective[-1] < objective[0]


def test_eval_counts_a_constant_sample_as_not_positive(tmp_path):
    # the swiss-roll fixture's config at the default [gan] hidden of 128,
    # whose tanh outputs saturate at (1, 1, 1): a constant sample has no
    # correlation distance, so eval counts it as not positive
    out = tmp_path / "out"
    cfg = tmp_path / "swiss.ini"
    cfg.write_text("[data]\nkind = swiss_roll\nn = 300\nseed = 7\n[autoencoder]\nepochs = 3\n"
                   "[lcc]\nm = 8\nmax_outer_iters = 5\n"
                   "[gan]\niters = 100\nphi = identity\ngenerator_output = tanh\n"
                   f"[eval]\nn_generated = 200\nn_heldout = 200\n[output]\ndir = {out}\n")
    for argv in (["train-ae"], ["learn-lcc"], ["train-gan"], ["eval"]):
        assert main(["--config", str(cfg)] + argv) == 0, argv
    keys = [row.split(",")[0] for row in (out / "metrics.csv").read_text().splitlines()]
    assert keys == ["name", "mmd2", "bandwidth", "pearson_positive_fraction"]


def test_verify_bounds_rejects_negative_cases(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "verify-bounds", "--cases", "-5"]) == 1
    assert capsys.readouterr().err == "error: [eval] cases=-5 must be at least 0\n"
    cfg = tmp_path / "neg.ini"
    cfg.write_text("[eval]\ncases = -5\n")
    assert main(["--config", str(cfg), "--out", str(out), "verify-bounds"]) == 1
    assert capsys.readouterr().err == "error: [eval] cases=-5 must be at least 0\n"
    assert not (out / "bounds.csv").exists()
    # zero cases is a valid, empty sweep
    assert main(["--out", str(out), "verify-bounds", "--cases", "0"]) == 0
    assert (out / "bounds.csv").read_text() == "case,kind,order,lhs,rhs,margin,ok\n"


def test_verify_bounds_violation_ends_in_error_line(tmp_path, capsys, monkeypatch):
    # zero constants make every right-hand side 0, which a curved map breaks
    def zero(self, radius):
        return SmoothnessConstants(np.zeros_like(radius), np.zeros_like(radius), 0.0)

    monkeypatch.setattr(QuadraticGenerator, "constants", zero)
    out = tmp_path / "out"
    assert main(["--seed", "7", "--out", str(out), "verify-bounds", "--cases", "5"]) == 1
    rows = (out / "bounds.csv").read_text().splitlines()[1:]
    bad = [row.split(",") for row in rows if row.endswith(",0")]
    assert 0 < len(bad) < len(rows)
    case, kind, order = bad[0][:3]
    err = capsys.readouterr().err
    assert err == (f"error: verify-bounds: {len(bad)} of 20 checks violated "
                   f"(first: case {case}, {kind}, order {order})\n")


@pytest.mark.parametrize("argv, edit, err", [
    (["train-gan", "--iters", "-5"], None, "[gan] iters=-5 must be at least 0"),
    (["train-ae"], ("epochs = 2", "epochs = -3"), "[autoencoder] epochs=-3 must be at least 0"),
    (["train-ae"], ("batch = 32", "batch = 0"), "[autoencoder] batch=0 must be at least 1"),
    (["train-gan"], ("batch = 8", "batch = 0"), "[gan] batch=0 must be at least 1"),
    (["train-gan"], ("batch = 8", "batch = -4"), "[gan] batch=-4 must be at least 1"),
    (["train-ae"], ("[autoencoder]", "[autoencoder]\nlatent_dim = 0"),
     "[autoencoder] latent_dim=0 must be at least 1"),
    (["train-ae"], ("lr = 0.01", "lr = nan"), "[autoencoder] lr=nan must be positive and finite"),
    (["train-ae"], ("lr = 0.01", "lr = -1"), "[autoencoder] lr=-1.0 must be positive and finite"),
    (["train-gan"], ("hidden = 8\nbatch = 8", "hidden = 0\nbatch = 8"),
     "[gan] hidden=0 must be at least 1"),
    (["train-gan"], ("[gan]", "[gan]\nlr = nan"), "[gan] lr=nan must be positive and finite"),
    (["eval"], ("[eval]", "[eval]\nbandwidth = -1"),
     "[eval] bandwidth=-1.0 must be finite and at least 0"),
    (["eval"], ("n_generated = 32", "n_generated = 0"), "[eval] n_generated=0 must be at least 2"),
    # one generated point forms no pair, and mmd2 would score it 0
    (["eval"], ("n_generated = 32", "n_generated = 1"), "[eval] n_generated=1 must be at least 2"),
    (["learn-lcc"], ("m = 4", "m = 0"), "[lcc] m=0 must be at least 1"),
    (["learn-lcc"], ("[lcc]", "[lcc]\nl_h = 0"), "[lcc] l_h=0.0 must be positive and finite"),
    (["learn-lcc"], ("[lcc]", "[lcc]\nl_q = 0"), "[lcc] l_q=0.0 must be positive and finite"),
    # valid for the training stages; eval needs two held-out points
    (["eval"], ("n_heldout = 32", "n_heldout = 0"),
     "[eval] n_heldout=0 must be at least 2 for eval"),
    (["eval"], ("n_heldout = 32", "n_heldout = 1"),
     "[eval] n_heldout=1 must be at least 2 for eval"),
], ids=["gan-iters", "ae-epochs", "ae-batch", "gan-batch-0", "gan-batch-neg",
        "ae-latent-dim", "ae-lr-nan", "ae-lr-neg", "gan-hidden", "gan-lr-nan",
        "eval-bandwidth", "eval-n-generated", "eval-n-generated-1", "lcc-m", "lcc-l-h",
        "lcc-l-q", "eval-n-heldout-0", "eval-n-heldout-1"])
def test_bad_training_sizes_are_one_error_line(staged, tmp_path, capsys, argv, edit, err):
    # refused before the stage reads its data, so no artifact is overwritten
    _, out = staged
    out2 = tmp_path / "out"
    shutil.copytree(out, out2)
    before = {p.name: p.read_bytes() for p in out2.iterdir()}
    cfg2 = write_cfg(str(tmp_path), str(out2))
    if edit is not None:
        with open(cfg2) as fh:
            text = fh.read()
        assert edit[0] in text
        with open(cfg2, "w") as fh:
            fh.write(text.replace(edit[0], edit[1]))
    capsys.readouterr()
    assert main(["--config", cfg2] + argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {err}"]
    assert {p.name: p.read_bytes() for p in out2.iterdir()} == before


def test_missing_artifact_names_the_producer_stage(tmp_path, capsys):
    cfg = write_cfg(str(tmp_path), str(tmp_path / "empty"))
    assert main(["--config", cfg, "sample"]) == 1
    assert "learn-lcc" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[lcc]\nbogus = 1\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    assert "[lcc] bogus" in capsys.readouterr().err


def test_unknown_config_section_is_named(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[warp]\nspeed = 9\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    assert "[warp]" in capsys.readouterr().err


def test_unparseable_value_is_named(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[lcc]\nm = sixteen\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    assert "[lcc] m" in capsys.readouterr().err


def test_unreadable_config_file_errors(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.ini"), "train-ae"]) == 1
    assert "nope.ini" in capsys.readouterr().err


def test_mnist_kind_requires_images_key(tmp_path, capsys):
    path = tmp_path / "m.ini"
    path.write_text(f"[data]\nkind = mnist\n[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    assert "[data] images" in capsys.readouterr().err


def test_sampler_giving_up_is_one_error_line(staged, tmp_path, capsys):
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    with open(cfg2, "a") as fh:
        fh.write("\n[sampler]\nmin_abs_sum = 1e9\n")
    assert main(["--config", cfg2, "sample", "--n", "5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "redraws" in err[0]
    assert not os.path.exists(os.path.join(out2, "codings_sampled.csv"))
    assert main(["--config", cfg2, "train-gan"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "redraws" in err[0]
    for name in ("generator.bin", "discriminator.bin", "gan_losses.csv"):
        assert not os.path.exists(os.path.join(out2, name)), name


_F32_REFUSAL = ("training runs in float32, but the data reach |x| = 9.99993621e+38, "
                "beyond its largest value 3.40282347e+38")


@pytest.mark.parametrize("stage, radius, err", [
    # the 64 points' squared errors sum to about 5.8e38, and each batch of
    # 32 to half that, so the epoch's MSE overflows float32 and the batches'
    # losses do not; at 1e30 each squared error overflows
    ("train-ae", "3e18", "non-finite reconstruction MSE after epoch 0"),
    ("train-ae", "1e30", "non-finite loss at epoch 0"),
    ("train-ae", "1e39", "autoencoder " + _F32_REFUSAL),
    ("train-gan", "1e39", "GAN " + _F32_REFUSAL),
    # within float32's range, but the discriminator's first layer overflows
    ("train-gan", "3e38", "non-finite discriminator objective at iteration 0"),
], ids=["ae-epoch-mse", "ae-batch-loss", "ae-beyond-float32", "gan-beyond-float32",
        "gan-diverges"])
def test_data_too_large_for_float32_training_is_one_error_line(staged, tmp_path, capsys,
                                                               stage, radius, err):
    # warnings fail this suite, so numpy stays silent on the way to the error
    _, out = staged
    out2 = tmp_path / "out"
    shutil.copytree(out, out2)
    before = {p.name: p.read_bytes() for p in out2.iterdir()}
    cfg2 = write_cfg(str(tmp_path), str(out2))
    with open(cfg2) as fh:
        text = fh.read()
    with open(cfg2, "w") as fh:
        fh.write(text.replace("kind = ring", f"kind = ring\nradius = {radius}"))
    capsys.readouterr()
    assert main(["--config", cfg2, stage]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {err}"]
    assert {p.name: p.read_bytes() for p in out2.iterdir()} == before


@pytest.mark.parametrize("stage", ["sample", "train-gan", "interpolate", "eval"])
def test_sampler_d_above_the_anchor_count_writes_nothing(full_pipeline, tmp_path, capsys, stage):
    _, out = full_pipeline
    out2 = tmp_path / "out"
    shutil.copytree(out, out2)
    before = {p.name: p.read_bytes() for p in out2.iterdir()}
    cfg2 = write_cfg(str(tmp_path), str(out2))
    with open(cfg2, "a") as fh:
        fh.write("\n[sampler]\nd = 5\n")
    assert main(["--config", cfg2, stage]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: [sampler] d=5 exceeds the anchor count m=4"]
    assert {p.name: p.read_bytes() for p in out2.iterdir()} == before


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sample_rejects_nonpositive_n(staged, tmp_path, capsys, n):
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    assert main(["--config", cfg2, "sample", "--n", n]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --n must be at least 1, got {n}"]
    assert not os.path.exists(os.path.join(out2, "codings_sampled.csv"))


@pytest.mark.parametrize("steps", ["1", "0", "-3"])
def test_interpolate_rejects_steps_below_two(full_pipeline, tmp_path, capsys, steps):
    # refused before any input is read, as sample refuses --n
    _, out = full_pipeline
    out2 = tmp_path / "out"
    shutil.copytree(out, out2)
    for name in ("interp_codings.csv", "interp_outputs.csv"):
        os.remove(out2 / name)
    cfg2 = write_cfg(str(tmp_path), str(out2))
    capsys.readouterr()
    assert main(["--config", cfg2, "interpolate", "--steps", steps]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --steps must be at least 2, got {steps}"]
    assert not list(out2.glob("interp_*.csv"))


def test_truncated_generator_is_one_error_line(staged, tmp_path, capsys):
    # the generator is read before any output is written, and its format
    # error ends the run like every other user-facing failure
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    gen_path = os.path.join(out2, "generator.bin")
    save_model(gen_path, build_gan(2, 4, GanConfig(hidden=8), seed=3).generator)
    with open(gen_path, "r+b") as fh:
        fh.truncate(20)
    assert main(["--config", cfg2, "sample", "--n", "5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "generator.bin" in err[0]
    assert not os.path.exists(os.path.join(out2, "codings_sampled.csv"))


def test_failed_allocation_is_one_error_line(staged, tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError, naming the shape, when an array cannot be
    # allocated; the stand-in raises it without allocating anything
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    why = "Unable to allocate 2.91 TiB for an array with shape (100000000000, 4)"

    def sample_codings(*args):
        raise MemoryError(why)

    monkeypatch.setattr("lccgen.cli.sample_codings", sample_codings)
    before = sorted(os.listdir(out2))
    assert main(["--config", cfg2, "sample", "--n", "100000000000"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: sample: out of memory: {why}"]
    assert sorted(os.listdir(out2)) == before


def test_too_many_anchors_is_one_error_line(staged, tmp_path, capsys):
    # an LccgenError subclass, caught through the package's one error base
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    with open(cfg2) as fh:
        text = fh.read()
    with open(cfg2, "w") as fh:
        fh.write(text.replace("m = 4", "m = 5000"))
    assert main(["--config", cfg2, "learn-lcc"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: 64 points cannot initialize 5000")


def test_bad_idx_magic_is_one_error_line(tmp_path, capsys):
    images = tmp_path / "images.idx"
    images.write_bytes(bytes(16))
    path = tmp_path / "m.ini"
    path.write_text(f"[data]\nkind = mnist\nimages = {images}\n"
                    f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "bad magic" in err[0]


@pytest.mark.parametrize("stage, written", [("sample", "codings_sampled.csv"),
                                            ("interpolate", "interp_codings.csv")])
def test_generator_for_other_anchors_writes_nothing(staged, tmp_path, capsys, stage, written):
    # the anchors have m = 4; a generator built for 16 coding weights is
    # refused before the stage writes its codings
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    save_model(os.path.join(out2, "generator.bin"), build_gan(2, 16, GanConfig(hidden=8), seed=3).generator)
    assert main(["--config", cfg2, stage]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "m=4" in err[0]
    assert not os.path.exists(os.path.join(out2, written))


# 0.5 and 0.999 were the Adam keys' own defaults: a removed key is refused at any value
@pytest.mark.parametrize("section, key, value", [
    ("lcc", "d", 2), ("data", "labels", 2), ("gan", "beta1", 0.5), ("gan", "beta2", 0.999),
], ids=["lcc-d", "data-labels", "gan-beta1", "gan-beta2"])
def test_removed_config_key_is_unknown(tmp_path, capsys, section, key, value):
    path = tmp_path / "old.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: unknown config key [{section}] {key}"]


_BROKEN_CHAIN = Mlp([Layer(np.zeros((4, 8)), np.zeros(8), "relu"),
                     Layer(np.zeros((5, 2)), np.zeros(2), "identity")])


@pytest.mark.parametrize("stage, written", [("sample", "codings_sampled.csv"),
                                            ("interpolate", "interp_codings.csv")])
@pytest.mark.parametrize("net, why", [
    (Mlp([]), "no layers"),
    (_BROKEN_CHAIN, "layer 1 takes 5 inputs but layer 0 gives 8"),
], ids=["no-layers", "broken-chain"])
def test_corrupt_generator_is_one_error_line(staged, tmp_path, capsys, stage, written, net, why):
    cfg, out = staged
    out2 = str(tmp_path / "out")
    shutil.copytree(out, out2)
    cfg2 = write_cfg(str(tmp_path), out2)
    gen_path = os.path.join(out2, "generator.bin")
    save_model(gen_path, net)
    assert main(["--config", cfg2, stage]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {gen_path}: {why}"]
    assert not os.path.exists(os.path.join(out2, written))


MNIST_CFG = """
[data]
kind = mnist
images = {images}
limit = {limit}

[autoencoder]
epochs = 2
hidden = 8
batch = 4

[lcc]
m = 3
max_outer_iters = 3

[gan]
iters = 2
hidden = 8
batch = 4

[eval]
n_generated = 8
n_heldout = {n_heldout}

[output]
dir = {out}
"""


def _mnist_cfg(tmp_path, n_heldout, limit=0):
    # six distinct 2x2 images
    images = tmp_path / "images.idx"
    pixels = [(37 * k) % 256 for k in range(24)]
    images.write_bytes(struct.pack(">IIII", 0x00000803, 6, 2, 2) + bytes(pixels))
    path = tmp_path / "m.ini"
    path.write_text(textwrap.dedent(MNIST_CFG.format(
        images=images, limit=limit, n_heldout=n_heldout, out=tmp_path / "out")))
    all_images = np.array(pixels, dtype=np.float64).reshape(6, 4) / 127.5 - 1.0
    return str(path), str(tmp_path / "out"), all_images


def test_mnist_heldout_images_stay_out_of_training(tmp_path):
    cfg, out, images = _mnist_cfg(tmp_path, n_heldout=2)
    for stage in ("train-ae", "learn-lcc", "train-gan", "eval"):
        assert main(["--config", cfg, stage]) == 0, stage
    train, held = images[2:], images[:2]
    # train-ae's last loss is the reconstruction error on the training images
    with open(os.path.join(out, "ae_losses.csv")) as fh:
        last = float(fh.read().splitlines()[-1].split(",")[1])
    encoder = load_model(os.path.join(out, "ae_encoder.bin"))
    decoder = load_model(os.path.join(out, "ae_decoder.bin"))
    ae = Mlp(encoder.layers + decoder.layers, np.float32)
    assert last == reconstruction_mse(ae, train)
    assert last != reconstruction_mse(ae, images)
    # learn-lcc codes the four training images only
    assert len(read_codings(os.path.join(out, "codings.csv"), 3)) == 4
    # eval's bandwidth is the one pairwise distance of the two held-out images
    with open(os.path.join(out, "metrics.csv")) as fh:
        metrics = dict(line.split(",") for line in fh.read().splitlines()[1:])
    assert float(metrics["bandwidth"]) == pytest.approx(np.linalg.norm(held[0] - held[1]),
                                                        rel=1e-12)


# limit applies first: with limit = 4, four images remain and all are held
# out; a negative count is refused when the config is loaded, before the
# images are read
@pytest.mark.parametrize("n_heldout, limit, left", [(4, 4, 4), (-2, 0, 6)])
def test_mnist_bad_heldout_count_is_one_error_line(tmp_path, capsys, n_heldout, limit, left):
    cfg, out, _ = _mnist_cfg(tmp_path, n_heldout=n_heldout, limit=limit)
    assert main(["--config", cfg, "train-ae"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ([f"error: [eval] n_heldout={n_heldout} must be at least 0"] if n_heldout < 0
                   else [f"error: {tmp_path / 'images.idx'}: [eval] n_heldout={n_heldout} must "
                         f"be at least 0 and leave some of its {left} images for training"])
    assert not os.path.exists(os.path.join(out, "ae_losses.csv"))


def test_mnist_negative_limit_is_one_error_line(tmp_path, capsys):
    cfg, out, _ = _mnist_cfg(tmp_path, n_heldout=2, limit=-1)
    assert main(["--config", cfg, "train-ae"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: [data] limit=-1 must be at least 0 (0 keeps every image)"]
    assert not os.path.exists(os.path.join(out, "ae_losses.csv"))


def _idx_4x4(tmp_path, count=60, black=30):
    """An IDX file of `count` distinct 4x4 images, image `black` all zero."""
    pixels = np.array([(37 * k + 11 * (k // 16)) % 256 for k in range(16 * count)], np.uint8)
    pixels[16 * black:16 * (black + 1)] = 0
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, count, 4, 4) + pixels.tobytes())
    return images


def test_constant_training_image_is_never_the_nearest_row(tmp_path):
    # image 30 is training row 20 once the first 10 are held out: a constant
    # row has no correlation, so eval's probe passes over it
    path = tmp_path / "m.ini"
    path.write_text(textwrap.dedent(MNIST_CFG.format(
        images=_idx_4x4(tmp_path), limit=0, n_heldout=10, out=tmp_path / "out")))
    for stage in ("train-ae", "learn-lcc", "train-gan", "eval"):
        assert main(["--config", str(path), stage]) == 0, stage
    with open(tmp_path / "out" / "metrics.csv") as fh:
        metrics = dict(line.split(",") for line in fh.read().splitlines()[1:])
    assert np.isfinite(float(metrics["mmd2"]))
    assert 0.0 <= float(metrics["pearson_positive_fraction"]) <= 1.0


def test_downsample_that_does_not_divide_names_the_key(tmp_path, capsys):
    images = _idx_4x4(tmp_path)
    path = tmp_path / "m.ini"
    path.write_text(f"[data]\nkind = mnist\nimages = {images}\ndownsample = 3\n"
                    f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {images}: [data] downsample=3 must divide the image size 4x4"]
    assert not os.path.exists(tmp_path / "out" / "ae_losses.csv")


@pytest.mark.parametrize("text, why", [
    ("m = 3\n[lcc]\nq = 2\n", "File contains no section headers."),
    ("[lcc]\nm = 3\nm = 4\n", "option 'm' in section 'lcc' already exists"),
    ("[lcc]\nm = 3\nbogus\n", "Source contains parsing errors"),
    ("[lcc]\nm = 3\n[lcc]\nq = 2\n", "section 'lcc' already exists"),
], ids=["no-section-header", "duplicate-key", "no-equals", "duplicate-section"])
def test_malformed_config_is_one_error_line(staged, tmp_path, capsys, text, why):
    _, out = staged
    out2 = tmp_path / "out"
    shutil.copytree(out, out2)
    before = {p.name: p.read_bytes() for p in out2.iterdir()}
    path = tmp_path / "bad.ini"
    path.write_text(text)
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(out2), "train-ae"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed config file: "), err
    assert str(path) in err[0] and why in err[0]
    assert {p.name: p.read_bytes() for p in out2.iterdir()} == before


def test_percent_and_inline_comments_read_as_written(tmp_path, capsys):
    # no value refers to another, so % is a plain character; ";" after a
    # value starts a comment, as in README's block
    path = tmp_path / "p.ini"
    path.write_text(f"[data]\nkind = mnist     ; from a scan\nimages = {tmp_path}/scan%1.idx\n"
                    f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["--config", str(path), "train-ae"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"{tmp_path}/scan%1.idx" in err[0]


def test_names_the_benchmark_and_cli_rely_on_resolve():
    # benchmarks/spans.py rebinds these names for --trace 1; it is read here,
    # never edited, so deleting one of them fails this test instead
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _ in spans.SPANNED:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr
    serialize = importlib.import_module("lccgen.serialize")
    for attr in spans.WRITERS:
        assert callable(getattr(serialize, attr)), attr
    assert callable(importlib.import_module("lccgen.lcc.sampling").knn)
    assert "next_u64" in vars(Rng) and "next_u64_array" in vars(Rng)
    # the calls benchmarks/workloads.py makes into the package
    assert LccConfig(**DEFAULTS["lcc"]).m == 16  # workloads.M, "the default [lcc] m"
    assert isinstance(DEFAULTS["sampler"]["d"], int)
    assert isinstance(DEFAULTS["data"]["noise_sigma"], float)
    assert build_gan(2, 16, seed=0).generator.in_dim == 16


def test_the_cli_imports_only_numpy_and_the_standard_library():
    # other packages (scipy among them) may be installed where the tests
    # run, so an import of one would pass every other test
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lccgen.__file__))}
    code = ("import sys; before = set(sys.modules); import lccgen.cli; "
            "print(*{name.partition('.')[0] for name in set(sys.modules) - before})")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    new = set(run.stdout.split())
    assert {"lccgen", "numpy"} <= new
    assert new - set(sys.stdlib_module_names) == {"lccgen", "numpy"}


def test_the_tests_import_only_numpy_pytest_lccgen_and_the_standard_library():
    # scipy and hypothesis may be installed where the tests run, but the
    # package declares neither, so a test importing one would not run elsewhere
    here = os.path.dirname(os.path.abspath(__file__))
    siblings = {f[:-3] for f in os.listdir(here) if f.endswith(".py")}
    allowed = {"numpy", "pytest", "lccgen"} | siblings | set(sys.stdlib_module_names)
    for name in sorted(siblings):
        with open(os.path.join(here, name + ".py")) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                tops = [(node.module or "").partition(".")[0]] if node.level == 0 else []
            else:
                continue
            assert set(tops) <= allowed, f"{name}.py imports {tops}"


def test_every_argv_the_benchmark_passes_parses():
    # benchmarks/workloads.py is read, never edited: each `stage(name,
    # *flags)` call there, with its module constants filled in, must still
    # be a command line of this CLI
    with open(os.path.join(os.path.dirname(SPANS_PY), "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    consts = {t.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant) for t in node.targets
              if isinstance(t, ast.Name)}

    def arg(node):
        if isinstance(node, ast.Constant):
            return node.value
        assert isinstance(node, ast.Call) and node.func.id == "str", ast.dump(node)
        return str(consts[node.args[0].id])

    calls = [[arg(a) for a in node.args] for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "stage" and node.args]
    flagged = sorted(argv[:2] for argv in calls if len(argv) > 1)
    assert flagged == [["interpolate", "--steps"], ["sample", "--n"],
                       ["train-gan", "--iters"], ["verify-bounds", "--cases"]]
    parser = build_parser()
    for argv in calls:
        args = parser.parse_args(["--config", "run.ini", "--seed", "7", "--out", "out", *argv])
        assert (args.config, args.seed, args.out, args.command) == ("run.ini", 7, "out", argv[0])
        for flag, value in zip(argv[1::2], argv[2::2]):
            assert getattr(args, flag[2:]) == int(value), argv
