"""Spans and counters installed around lccgen's public functions.

A traced pass rebinds each listed function in every lccgen module that holds
it (for example ``adam_step`` in ``lccgen.neural.adam``, ``lccgen.neural.gan``
and ``lccgen.neural.autoencoder``), so calls made through any import see the
same wrapper.  Only public names are wrapped: work done inside a private
helper shows up as the self time of the public span around it.

Spans are kept in memory as (name, start, end, parent) with parent the index
of the enclosing span (-1 at top level); ``write`` dumps them at the end of
the run.  ``Rng.next_u64``/``next_u64_array`` and ``knn`` are counted without
taking timestamps, because they run once per draw.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Several functions may share a span name.
SPANNED = [
    ("lccgen.datasets", "make_ring", "datasets"),
    ("lccgen.neural.autoencoder", "train_autoencoder", "autoencoder.train"),
    ("lccgen.lcc.core", "learn_anchors", "lcc.learn"),
    ("lccgen.lcc.core", "init_anchors", "lcc.init_anchors"),
    ("lccgen.lcc.core", "lcc_objective", "lcc.objective"),
    ("lccgen.lcc.core", "solve_coding", "lcc.solve_coding"),
    ("lccgen.lcc.sampling", "sample_coding", "sampling.sample_coding"),
    ("lccgen.lcc.sampling", "sample_coding_pair", "sampling.sample_coding"),
    ("lccgen.lcc.sampling", "neighbor_table", "sampling.neighbor_table"),
    ("lccgen.neural.gan", "train_gan", "gan.train"),
    ("lccgen.neural.gan", "disc_objective_and_grads", "gan.disc_grad"),
    ("lccgen.neural.gan", "gen_objective_and_grads", "gan.gen_grad"),
    ("lccgen.neural.net", "Mlp.forward", "net.forward"),
    ("lccgen.neural.net", "forward_cached", "net.forward"),
    ("lccgen.neural.net", "backward", "net.backward"),
    ("lccgen.neural.net", "check_finite", "net.check_finite"),
    ("lccgen.neural.adam", "adam_step", "adam.step"),
    ("lccgen.metrics", "mmd2", "metrics.mmd2"),
    ("lccgen.metrics", "median_pairwise_distance", "metrics.median_pairwise"),
    ("lccgen.metrics", "pearson_nn", "metrics.pearson_nn"),
    ("lccgen.bounds", "random_configuration", "bounds.configuration"),
    ("lccgen.bounds", "random_affine", "bounds.configuration"),
    ("lccgen.bounds", "random_quadratic", "bounds.configuration"),
    ("lccgen.bounds", "mixing_gap", "bounds.gap"),
    ("lccgen.bounds", "tangent_mixing_gap", "bounds.gap"),
    ("lccgen.serialize", "load_anchors", "serialize.read"),
    ("lccgen.serialize", "load_model", "serialize.read"),
]
# writers take the output path first; its size after the call is counted
WRITERS = ["save_anchors", "anchors_to_csv", "save_model", "codings_to_csv",
           "matrix_to_csv", "kv_to_csv", "write_pgm"]

# per-layer metrics reported by a traced run: name -> unit
LAYER_UNITS = {
    **{f"cli.{s}_s": "s" for s in ("train_ae", "learn_lcc", "train_gan", "sample",
                                    "interpolate", "eval", "verify_bounds")},
    "datasets.calls": "count", "datasets.s": "s",
    "autoencoder.train_s": "s",
    "lcc.learn_s": "s", "lcc.outer_iters": "count", "lcc.cap_hits": "count",
    "lcc.objective_calls": "count", "lcc.objective_s": "s",
    "lcc.backtrack_evals": "count", "lcc.coding_self_s": "s",
    "lcc.solve_coding_calls": "count", "lcc.solve_coding_s": "s",
    "sampling.self_s": "s", "sampling.sample_coding_calls": "count",
    "sampling.sample_coding_s": "s", "sampling.knn_calls": "count",
    "rng.calls": "count", "rng.u64": "count",
    "gan.train_s": "s", "gan.disc_grad_s": "s", "gan.disc_grad_calls": "count",
    "gan.gen_grad_s": "s", "gan.gen_grad_calls": "count", "gan.check_finite_s": "s",
    "net.forward_s": "s", "net.forward_calls": "count",
    "net.backward_s": "s", "net.backward_calls": "count",
    "adam.step_s": "s", "adam.calls": "count",
    "metrics.mmd2_s": "s", "metrics.median_pairwise_s": "s",
    "metrics.pearson_nn_s": "s", "metrics.pearson_nn_calls": "count",
    "bounds.configuration_s": "s", "bounds.gap_s": "s", "bounds.gap_calls": "count",
    "serialize.write_s": "s", "serialize.read_s": "s", "serialize.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans and counts while installed; accumulates across passes."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]
        self._wrappers = None
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around code in the benchmark itself (one CLI stage)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _spanned(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if on_return is not None:
                    on_return(args)

        return wrapper

    def _build(self):
        """(owner, attribute, original, wrapper) for every traced name."""
        counts = self.counts
        out = []
        for module_name, attr, name in SPANNED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[method]
                out.append((cls, method, fn, self._spanned(name, fn)))
            else:
                fn = getattr(module, attr)
                out.append((None, attr, fn, self._spanned(name, fn)))

        def count_bytes(args):
            counts["serialize.bytes_written"] += os.path.getsize(args[0])

        serialize = importlib.import_module("lccgen.serialize")
        for attr in WRITERS:
            fn = getattr(serialize, attr)
            out.append((None, attr, fn, self._spanned("serialize.write", fn, count_bytes)))

        sampling = importlib.import_module("lccgen.lcc.sampling")
        knn = sampling.knn

        @functools.wraps(knn)
        def counted_knn(*args, **kwargs):
            counts["sampling.knn_calls"] += 1
            return knn(*args, **kwargs)

        out.append((None, "knn", knn, counted_knn))

        rng_cls = importlib.import_module("lccgen.rng").Rng
        next_u64 = rng_cls.__dict__["next_u64"]
        next_u64_array = rng_cls.__dict__["next_u64_array"]

        def counted_u64(rng):
            counts["rng.calls"] += 1
            counts["rng.u64"] += 1
            return next_u64(rng)

        def counted_u64_array(rng, n):
            counts["rng.calls"] += 1
            counts["rng.u64"] += n
            return next_u64_array(rng, n)

        out.append((rng_cls, "next_u64", next_u64, counted_u64))
        out.append((rng_cls, "next_u64_array", next_u64_array, counted_u64_array))
        return out

    def install(self):
        if self._wrappers is None:
            self._wrappers = self._build()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lccgen" or n.startswith("lccgen.")]
        for owner, attr, fn, wrapper in self._wrappers:
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._saved.append((owner, attr, fn))
                continue
            for module in modules:
                names = [k for k, v in vars(module).items() if v is fn]
                for k in names:
                    setattr(module, k, wrapper)
                    self._saved.append((module, k, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def layer_metrics(tracer, passes, lcc_cap, traced_wall, untraced_wall):
    """Per-pass means of every per-layer metric, from spans and counts.

    `passes` holds the values dict of each traced pass; a pass that ran
    learn-lcc carries "outer_iters" (rows of lcc_objective.csv).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    check_finite_in_gan = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
        if name == "net.check_finite" and parent >= 0 and spans[parent][0] == "gan.train":
            check_finite_in_gan += end - start
    counts = tracer.counts
    outer_iters = sum(p.get("outer_iters", 0) for p in passes)
    cap_hits = sum(1 for p in passes if p.get("outer_iters", -1) == lcc_cap)
    raw = {f"cli.{s}_s": total[f"cli.{s}"] for s in (
        "train_ae", "learn_lcc", "train_gan", "sample", "interpolate", "eval",
        "verify_bounds")}
    raw.update({
        "datasets.calls": calls["datasets"], "datasets.s": total["datasets"],
        "autoencoder.train_s": total["autoencoder.train"],
        "lcc.learn_s": total["lcc.learn"],
        "lcc.outer_iters": outer_iters,
        "lcc.cap_hits": cap_hits,
        "lcc.objective_calls": calls["lcc.objective"],
        "lcc.objective_s": total["lcc.objective"],
        "lcc.backtrack_evals": calls["lcc.objective"] - 2 * outer_iters,
        "lcc.coding_self_s": self_time["lcc.learn"],
        "lcc.solve_coding_calls": calls["lcc.solve_coding"],
        "lcc.solve_coding_s": total["lcc.solve_coding"],
        "sampling.self_s": self_time["gan.train"],
        "sampling.sample_coding_calls": calls["sampling.sample_coding"],
        "sampling.sample_coding_s": total["sampling.sample_coding"],
        "sampling.knn_calls": counts["sampling.knn_calls"],
        "rng.calls": counts["rng.calls"],
        "rng.u64": counts["rng.u64"],
        "gan.train_s": total["gan.train"],
        "gan.disc_grad_s": total["gan.disc_grad"],
        "gan.disc_grad_calls": calls["gan.disc_grad"],
        "gan.gen_grad_s": total["gan.gen_grad"],
        "gan.gen_grad_calls": calls["gan.gen_grad"],
        "gan.check_finite_s": check_finite_in_gan,
        "net.forward_s": total["net.forward"], "net.forward_calls": calls["net.forward"],
        "net.backward_s": total["net.backward"], "net.backward_calls": calls["net.backward"],
        "adam.step_s": total["adam.step"], "adam.calls": calls["adam.step"],
        "metrics.mmd2_s": total["metrics.mmd2"],
        "metrics.median_pairwise_s": total["metrics.median_pairwise"],
        "metrics.pearson_nn_s": total["metrics.pearson_nn"],
        "metrics.pearson_nn_calls": calls["metrics.pearson_nn"],
        "bounds.configuration_s": total["bounds.configuration"],
        "bounds.gap_s": total["bounds.gap"], "bounds.gap_calls": calls["bounds.gap"],
        "serialize.write_s": total["serialize.write"],
        "serialize.read_s": total["serialize.read"],
        "serialize.bytes_written": counts["serialize.bytes_written"],
    })
    out = {k: v / len(passes) for k, v in raw.items()}
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    if set(out) != set(LAYER_UNITS):
        raise RuntimeError(f"per-layer metrics out of sync: {set(out) ^ set(LAYER_UNITS)}")
    return out
