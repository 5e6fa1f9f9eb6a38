"""Serialization tests: binary roundtrips, header bytes, CSV stability."""

import os
import struct

import numpy as np
import pytest

from lccgen.lcc.core import AnchorSet
from lccgen.neural.net import Layer, Mlp, build_mlp
from lccgen.rng import Rng
from lccgen.serialize import (
    FLOAT,
    FormatError,
    anchors_to_csv,
    codings_to_csv,
    kv_to_csv,
    load_anchors,
    load_model,
    matrix_to_csv,
    save_anchors,
    save_model,
    scatter_image,
    tile_images,
    to_gray,
    write_pgm,
)
from test_cli import read_codings


def test_anchor_roundtrip_is_bitwise(tmp_path):
    V = np.asarray(Rng(1).normals(3 * 5)).reshape(3, 5)
    path = tmp_path / "a.lcca"
    save_anchors(path, AnchorSet(V))
    back = load_anchors(path)
    assert np.array_equal(back.anchors, V)


def test_anchor_header_bytes(tmp_path):
    V = np.array([[1.5, -2.0], [0.25, 8.0], [0.0, 1.0]])  # d_b=3, m=2
    path = tmp_path / "a.lcca"
    save_anchors(path, AnchorSet(V))
    buf = path.read_bytes()
    assert buf[:4] == b"LCCA"
    assert struct.unpack("<II", buf[4:12]) == (3, 2)
    # column-major payload: anchor 0 then anchor 1
    assert struct.unpack("<6d", buf[12:]) == (1.5, 0.25, 0.0, -2.0, 8.0, 1.0)


def test_anchor_load_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.lcca"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(FormatError, match="magic"):
        load_anchors(path)
    path.write_bytes(b"LCCA" + struct.pack("<II", 2, 3) + b"\x00" * 8)
    with pytest.raises(FormatError, match="truncated"):
        load_anchors(path)


def test_model_roundtrip_is_bitwise(tmp_path):
    net = build_mlp([3, 5, 2], ["relu", "tanh"], Rng(7))
    path = tmp_path / "m.lccn"
    save_model(path, net)
    back = load_model(path)
    assert len(back.layers) == 2
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)
        assert a.act == b.act


def test_loaded_model_layers_are_writable_views_of_its_flat_vector(tmp_path):
    net = build_mlp([3, 5, 2], ["relu", "tanh"], Rng(7))
    path = tmp_path / "m.lccn"
    save_model(path, net)
    back = load_model(path)
    assert back.flat.tobytes() == net.flat.tobytes()
    assert back.flat.flags.writeable
    for layer in back.layers:
        assert np.shares_memory(layer.w, back.flat) and np.shares_memory(layer.b, back.flat)


def test_model_header_bytes(tmp_path):
    net = build_mlp([2, 1], ["sigmoid"], Rng(0))
    path = tmp_path / "m.lccn"
    save_model(path, net)
    buf = path.read_bytes()
    assert buf[:4] == b"LCCN"
    assert struct.unpack("<I", buf[4:8]) == (1,)
    assert struct.unpack("<II", buf[8:16]) == (2, 1)
    assert buf[16] == 3  # sigmoid tag
    assert len(buf) == 17 + 8 * (2 * 1 + 1)


def test_model_load_rejects_unknown_tag(tmp_path):
    path = tmp_path / "m.lccn"
    buf = b"LCCN" + struct.pack("<I", 1) + struct.pack("<II", 1, 1) + bytes([9])
    buf += struct.pack("<2d", 0.0, 0.0)
    path.write_bytes(buf)
    with pytest.raises(FormatError, match="activation tag"):
        load_model(path)


def test_codings_csv_roundtrip(tmp_path):
    w1 = np.zeros(6)
    w1[[1, 4]] = [0.75, 0.25]
    w2 = np.zeros(6)
    w2[[0, 2, 5]] = [1.5, -1.0, 0.5]
    path = tmp_path / "c.csv"
    codings_to_csv(path, np.stack([w1, w2]))
    back = read_codings(path, 6)
    assert np.array_equal(back[0], w1)
    assert np.array_equal(back[1], w2)
    text = path.read_text()
    assert text.splitlines()[0] == "1:0.75,4:0.25"


def test_float_format_is_repr_faithful():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0):
        assert float(FLOAT % x) == x


def test_matrix_and_kv_csv_shapes(tmp_path):
    mpath = tmp_path / "m.csv"
    matrix_to_csv(mpath, np.array([[1.0, 2.0], [3.0, 4.5]]), header=["x", "y"])
    lines = mpath.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "1,2"
    assert len(lines) == 3

    kpath = tmp_path / "k.csv"
    kv_to_csv(kpath, [("mmd2", 0.125), ("bandwidth", 2.0)])
    lines = kpath.read_text().splitlines()
    assert lines[0] == "name,value"
    assert lines[1] == "mmd2,0.125"


# values whose text is easy to get wrong: signed zero, infinities, nan,
# the smallest subnormal, a huge value and integral floats
EDGE_FLOATS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 3.0, -7.0, 0.1, 2.0**53]


def _reference_line(values):
    # one float at a time, as the writers did before they formatted whole rows
    return ",".join(format(float(x), ".17g") for x in values) + "\n"


def test_csv_writers_match_a_per_float_reference(tmp_path):
    path = tmp_path / "out.csv"
    M = np.array(EDGE_FLOATS).reshape(5, 2)
    for rows, header in ((M, ["a", "b"]), (M[:, :1], None), (M.ravel(), None),
                         (np.zeros((0, 3)), None)):
        matrix_to_csv(path, rows, header)
        want = "".join(_reference_line(row) for row in np.atleast_2d(rows))
        assert path.read_text() == ("a,b\n" if header else "") + want
    W = np.zeros((4, 5))
    W[0, [0, 2, 3, 4]] = EDGE_FLOATS[1:5]
    W[2, [1, 4]] = [1e300, 3.0]  # row 1 has no nonzeros; -0.0 counts as zero
    W[3, 0] = -0.0
    # more rows than the writer formats at a time, with empty rows among them
    big = np.asarray(Rng(3).normals(600 * 7)).reshape(600, 7)
    big[np.abs(big) < 0.8] = 0.0
    big[250:260] = 0.0
    for G in (W, W[:0], big):
        codings_to_csv(path, G)
        want = "".join(",".join(f"{j}:{format(float(x), '.17g')}" for j, x in enumerate(row)
                                if x != 0.0) + "\n" for row in G)
        assert path.read_text() == want
    V = np.array([[-0.0, 5e-324, 1e300], [3.0, -7.0, 0.1]])
    anchors_to_csv(path, AnchorSet(V))
    assert path.read_text() == "".join(_reference_line(V[:, j]) for j in range(3))


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 773])
@pytest.mark.parametrize("cols", [1, 2, 3])
def test_block_formatted_rows_match_one_row_per_format(tmp_path, n, cols):
    # the writer formats a block of rows per %; the reference formats one row
    path = tmp_path / "m.csv"
    M = np.asarray(Rng(n + cols).normals(n * cols)).reshape(n, cols) * 1e3
    edge = [-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan]
    M.ravel()[:len(edge)] = edge[:M.size]
    line = ",".join([FLOAT] * cols) + "\n"
    matrix_to_csv(path, M)
    assert path.read_bytes() == "".join(line % tuple(row.tolist()) for row in M).encode()
    if cols == 2 and n:  # anchors_to_csv writes a transposed, non-contiguous view
        anchors_to_csv(path, AnchorSet(np.nan_to_num(M.T, posinf=2.0, neginf=-2.0, nan=0.5)))
        want = "".join(line % tuple(row.tolist())
                       for row in np.nan_to_num(M, posinf=2.0, neginf=-2.0, nan=0.5))
        assert path.read_bytes() == want.encode()


def test_anchors_csv_one_row_per_anchor(tmp_path):
    V = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "a.csv"
    anchors_to_csv(path, AnchorSet(V))
    assert path.read_text() == "1,2\n3,4\n"


def test_pgm_bytes(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "i.pgm"
    write_pgm(path, img)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(range(6))
    with pytest.raises(ValueError):
        write_pgm(path, img.astype(np.float64))


def test_gray_mapping_endpoints():
    g = to_gray(np.array([-1.0, 0.0, 1.0, 2.0]))
    assert list(g) == [0, 128, 255, 255]


def test_tile_images_grid_geometry():
    samples = np.full((3, 4), 1.0)  # three 2x2 all-white tiles
    canvas = tile_images(samples, grid_cols=2)
    assert canvas.shape == (2 * 3 + 1, 2 * 3 + 1)
    assert canvas[1, 1] == 255 and canvas[0, 0] == 0
    with pytest.raises(ValueError):
        tile_images(np.zeros((1, 3)), 1)


def test_scatter_image_marks_extremes():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    img = scatter_image(pts, size=8)
    assert img.shape == (8, 8)
    assert img[7, 0] == 255  # (0,0) lands bottom-left
    assert img[0, 7] == 255  # (1,1) lands top-right


def test_a_write_that_fails_midway_keeps_the_previous_file(tmp_path):
    csv_path = tmp_path / "metrics.csv"
    kv_to_csv(csv_path, [("mmd2", 1.0)])
    model_path = tmp_path / "g.bin"
    net = build_mlp([2, 3, 2], ["relu", "identity"], Rng(4))
    save_model(model_path, net)
    before = {p: p.read_bytes() for p in (csv_path, model_path)}
    # the bad value and the unknown activation are reached after the first
    # rows and the header have been written
    with pytest.raises(ValueError):
        kv_to_csv(csv_path, [("mmd2", 2.0), ("bandwidth", "not a number")])
    bad = Mlp([net.layers[0], Layer(net.layers[1].w, net.layers[1].b, "swish")])
    with pytest.raises(KeyError):
        save_model(model_path, bad)
    assert {p: p.read_bytes() for p in (csv_path, model_path)} == before
    assert sorted(os.listdir(tmp_path)) == ["g.bin", "metrics.csv"]
