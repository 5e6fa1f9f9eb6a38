"""File formats for pipeline artifacts.

Anchor sets ("LCCA"): magic, u32 LE d_b, u32 LE m, then m*d_b float64 LE in
column-major order (one anchor after another); d_b and m are at least 1.

Network checkpoints ("LCCN"): magic, u32 LE layer count, then per layer
u32 LE rows, u32 LE cols, one activation tag byte (the name's position in
`neural.net.ACTIVATIONS`: 0 identity, 1 relu, 2 tanh, 3 sigmoid), rows*cols
float64 LE weights row-major, cols float64 LE biases.  A checkpoint has at
least one layer, each layer has at least one row and one column, and each
layer's rows equal the previous layer's cols.
`Reader` reads these and IDX images, and refuses any other length or a
non-finite float.

CSV floats are written with repr-faithful %.17g (`FLOAT`) so reruns are
byte-identical; a writer formats a block of `_CSV_ROWS` rows, or a cell,
with one `%`.
Every writer goes through `atomic_write`, so an artifact path holds either
its previous bytes or the complete new file, never a partial one.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from . import LccgenError
from .lcc.core import AnchorSet
from .neural.net import ACTIVATIONS, Layer, Mlp

ANCHOR_MAGIC = b"LCCA"
MODEL_MAGIC = b"LCCN"
_ACT_TAGS = {name: tag for tag, name in enumerate(ACTIVATIONS)}
FLOAT = "%.17g"
_CSV_ROWS = 256  # rows a CSV writer formats at a time


class FormatError(LccgenError):
    pass


class Reader:
    """A cursor over a whole binary file that starts with `magic`.  A read
    past the end names the offset where the file falls short, float blocks
    must be finite, and `end` refuses any bytes after the last field."""

    def __init__(self, path, magic: bytes):
        with open(path, "rb") as fh:
            self.path, self.buf, self.off = path, fh.read(), len(magic)
        if self.buf[:self.off] != magic:
            self.fail(f"bad magic {self.buf[:self.off]!r} at byte offset 0 (expected {magic!r})")

    def fail(self, msg):
        raise FormatError(f"{self.path}: {msg}")

    def _take(self, size: int) -> int:
        if len(self.buf) < self.off + size:
            self.fail(f"truncated at byte offset {len(self.buf)} (expected {self.off + size})")
        self.off += size
        return self.off - size

    def fields(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = self._take(dtype.itemsize * count)
        a = np.frombuffer(self.buf, dtype=dtype, count=count, offset=start)
        if dtype.kind == "f" and not np.isfinite(a).all():
            bad = int(np.argmin(np.isfinite(a)))
            self.fail(f"non-finite value {a[bad]} at byte offset {start + dtype.itemsize * bad}")
        return a

    def end(self) -> None:
        if self.off != len(self.buf):
            self.fail(f"trailing bytes at byte offset {self.off} (file ends at {len(self.buf)})")


@contextlib.contextmanager
def atomic_write(path, binary=False):
    """Yields a file open for writing a temp file beside `path`, and moves it
    onto `path` with os.replace when the block ends.  If the block raises,
    the temp file is removed and `path` keeps its previous bytes."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_anchors(path, anchors: AnchorSet) -> None:
    with atomic_write(path, binary=True) as fh:
        fh.write(ANCHOR_MAGIC)
        fh.write(struct.pack("<II", anchors.d_b, anchors.m))
        fh.write(np.ascontiguousarray(anchors.anchors.T, dtype="<f8").tobytes())


def load_anchors(path) -> AnchorSet:
    r = Reader(path, ANCHOR_MAGIC)
    d_b, m = r.fields("<II")
    if d_b == 0 or m == 0:
        r.fail(f"empty anchor set (d_b={d_b}, m={m}) at byte offset 4")
    flat = r.array("<f8", d_b * m)
    r.end()
    return AnchorSet(flat.reshape(m, d_b).T.copy())


def write_rows(fh, M, line=None) -> None:
    """One line per row of the 2-D array M, a block of rows per `%`.  `line`
    formats one row; it defaults to FLOAT in every column."""
    line = line or ",".join([FLOAT] * M.shape[1]) + "\n"
    for lo in range(0, len(M), _CSV_ROWS):
        block = M[lo:lo + _CSV_ROWS]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def anchors_to_csv(path, anchors: AnchorSet) -> None:
    """One anchor per row."""
    with atomic_write(path) as fh:
        write_rows(fh, anchors.anchors.T)


def save_model(path, net: Mlp) -> None:
    with atomic_write(path, binary=True) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(net.layers)))
        for layer in net.layers:
            fh.write(struct.pack("<IIB", *layer.w.shape, _ACT_TAGS[layer.act]))
            fh.write(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())


def load_model(path) -> Mlp:
    r = Reader(path, MODEL_MAGIC)
    (n_layers,) = r.fields("<I")
    if n_layers == 0:
        r.fail("no layers")
    layers = []
    for i in range(n_layers):
        rows, cols, tag = r.fields("<IIB")
        if rows == 0 or cols == 0:
            r.fail(f"empty layer {i} ({rows} x {cols}) at byte offset {r.off - 9}")
        if layers and rows != layers[-1].b.size:
            r.fail(f"layer {i} takes {rows} inputs but layer {i - 1} gives {layers[-1].b.size}")
        if tag >= len(ACTIVATIONS):
            r.fail(f"unknown activation tag {tag} at byte offset {r.off - 1}")
        w = r.array("<f8", rows * cols).reshape(rows, cols)
        layers.append(Layer(w, r.array("<f8", cols), list(ACTIVATIONS)[tag]))
    r.end()
    return Mlp(layers)


def codings_to_csv(path, weights) -> None:
    """One row of an (n, m) coding weight array per line, as comma-separated
    index:weight pairs over the row's nonzeros."""
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"expected an (n, m) weight array, got shape {W.shape}")
    cell = "%d:" + FLOAT
    with atomic_write(path) as fh:
        for lo in range(0, len(W), _CSV_ROWS):
            block = W[lo:lo + _CSV_ROWS]
            rows, cols = np.nonzero(block)
            cells = [cell % jx for jx in zip(cols.tolist(), block[rows, cols].tolist())]
            start = 0
            for end in np.cumsum(np.bincount(rows, minlength=len(block))).tolist():
                fh.write(",".join(cells[start:end]) + "\n")
                start = end


def matrix_to_csv(path, rows, header=None) -> None:
    M = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    with atomic_write(path) as fh:
        if header:
            fh.write(",".join(header) + "\n")
        write_rows(fh, M)


def kv_to_csv(path, pairs) -> None:
    with atomic_write(path) as fh:
        fh.write("name,value\n")
        for name, value in pairs:
            fh.write(f"{name},{FLOAT % float(value)}\n")


def write_pgm(path, image: np.ndarray) -> None:
    """Binary 8-bit grayscale PGM."""
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("image must be a 2-D uint8 array")
    with atomic_write(path, binary=True) as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


def to_gray(values: np.ndarray) -> np.ndarray:
    """Map [-1, 1] floats to uint8 pixels."""
    return np.clip(np.rint((np.asarray(values) + 1.0) * 127.5), 0, 255).astype(np.uint8)


def tile_images(samples: np.ndarray, grid_cols: int) -> np.ndarray:
    """Tile (n, k*k) samples in [-1, 1] into one uint8 image grid."""
    n, dim = samples.shape
    k = int(round(np.sqrt(dim)))
    if k * k != dim:
        raise ValueError(f"samples of dim {dim} are not square images")
    rows = (n + grid_cols - 1) // grid_cols
    canvas = np.zeros((rows * (k + 1) + 1, grid_cols * (k + 1) + 1), dtype=np.uint8)
    for i in range(n):
        r, c = divmod(i, grid_cols)
        tile = to_gray(samples[i].reshape(k, k))
        canvas[r * (k + 1) + 1 : r * (k + 1) + 1 + k, c * (k + 1) + 1 : c * (k + 1) + 1 + k] = tile
    return canvas


def scatter_image(points: np.ndarray, size: int = 64) -> np.ndarray:
    """Rasterize 2-D points into a density image (uint8), for eyeballing."""
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError("scatter_image needs (n, 2) points")
    lo = p.min(axis=0)
    hi = p.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    ij = np.minimum(((p - lo) / span * size).astype(np.int64), size - 1)
    img = np.zeros((size, size))
    np.add.at(img, (size - 1 - ij[:, 1], ij[:, 0]), 1.0)
    top = img.max()
    if top > 0:
        img = img / top
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
