"""The three workloads: seeded fixtures, one pass each, and output checks.

A pass drives lccgen only from outside, through ``lccgen.cli.main`` and the
public functions, one call after another (a single client in a closed loop).
Every pass writes into a fresh directory; its CSV outputs are hashed so the
passes of one run can be compared byte for byte.

Before each operation and at the end of the pass, the pass times the
reference kernel.  The time between two kernel runs is an interval; its
scaled length is its wall time times REFERENCE_S over the mean of the two
kernel times around it.  Every timing a pass reports is scaled this way,
except ``wall_s``, the raw wall time of its intervals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np

import lccgen.cli as cli
import reference
from lccgen.config import DEFAULTS
from lccgen.lcc import core
from lccgen.lcc.core import AnchorSet, LccConfig, lcc_objective
from lccgen.neural.gan import build_gan
from lccgen.serialize import load_anchors, save_anchors, save_model

M = 16  # anchors, the default [lcc] m
SAMPLER_D = DEFAULTS["sampler"]["d"]
# learn-lcc always runs to its outer-iteration cap, at about 0.6 s per
# iteration, so the default cap of 100 does not fit a run; fit measures the
# first iterations.  Short operations keep the reference kernel runs that
# scale them close in time, and give a run many passes.
LCC_CAP = 4
GAN_ITERS = 200
SAMPLE_N = 4000
INTERP_STEPS = 200
BOUND_CASES = 300
ENCODES = 200
ENCODE_BLOCK = 20  # encodes between two reference kernel runs

# end-to-end metrics printed per workload: name -> unit
COMMON = {"setup_s": "s", "setup_wall_s": "s", "wall_ref_s": "s", "wall_s": "s",
          "peak_rss_mb": "MB", "failed_frac": "ratio"}
SPECIFIC = {
    "fit": {"lcc_s": "s", "lcc_objective": "1"},
    "train": {"gan_iters_per_s": "1/s"},
    "serve": {"codings_per_s": "1/s", "encode_p50_ms": "ms", "encode_p90_ms": "ms",
              "encode_objective": "1", "eval_s": "s", "bounds_s": "s"},
}


class Fixtures:
    """Every input of a run, derived from the workload seed alone."""

    def __init__(self, seed):
        rs = np.random.default_rng(seed)
        self.data_seed = int(rs.integers(1, 2**31))
        self.gen_seed = int(rs.integers(1, 2**31))
        phase = rs.uniform(0.0, 2.0 * np.pi / M)
        theta = phase + 2.0 * np.pi * np.arange(M) / M
        self.anchors = AnchorSet(np.stack([np.cos(theta), np.sin(theta)]))
        # evenly spaced angles at a seeded rotation, so every seed places the
        # same share of points near and between anchors; the encode cost
        # depends on that share, and random angles leave it to chance
        noise = DEFAULTS["data"]["noise_sigma"]
        t = 2.0 * np.pi * (np.arange(ENCODES) + rs.uniform()) / ENCODES
        self.encode_points = (np.stack([np.cos(t), np.sin(t)], axis=1)
                              + noise * rs.standard_normal((ENCODES, 2)))


def setup(workload, fixtures, directory, env):
    """One set-up: a fresh interpreter importing the CLI (what every stage
    invocation pays), then the workload's fixture files.  Returns seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lccgen.cli"], env=env, check=True)
    os.makedirs(directory)
    with open(os.path.join(directory, "run.ini"), "w") as fh:
        fh.write(f"[lcc]\nmax_outer_iters = {LCC_CAP}\n")
    if workload in ("train", "serve"):
        save_anchors(os.path.join(directory, "anchors.bin"), fixtures.anchors)
    if workload == "serve":
        gan = build_gan(2, M, seed=fixtures.gen_seed)
        save_model(os.path.join(directory, "generator.bin"), gan.generator)
    return time.perf_counter() - start


class _Scaled(NamedTuple):
    seconds: float
    interval: int


class Pass:
    """One pass through a workload's stages, with its checks."""

    def __init__(self, fixtures, fixture_dir, out, tracer):
        self.fixtures = fixtures
        self.out = out
        self.tracer = tracer
        self.ops = []  # [stage, ok]
        self.stage_s = {}  # scaled
        self.values = {}
        self.encode_ms = []  # scaled
        self.encode_digest = None
        self.kernel_s = []  # reference kernel times
        self.intervals = []  # raw wall time between consecutive kernel runs
        self._mark = None
        self.wall_s = None
        self.wall_ref_s = None
        self.csv_digests = {}
        os.makedirs(out)
        for name in os.listdir(fixture_dir):
            shutil.copy(os.path.join(fixture_dir, name), out)
        self.config = os.path.join(out, "run.ini")

    def path(self, name):
        return os.path.join(self.out, name)

    def gauge(self):
        """Closes the current interval and times the reference kernel."""
        now = time.perf_counter()
        if self._mark is not None:
            self.intervals.append(now - self._mark)
        self.kernel_s.append(reference.time_kernel())
        self._mark = time.perf_counter()

    def scaled(self, seconds):
        """Tags seconds measured in the current interval; finish scales them
        once the kernel has run at the interval's end."""
        return _Scaled(seconds, len(self.intervals))

    def finish(self):
        """Closes the last interval and scales every tagged timing."""
        self.gauge()
        factor = reference.factors(self.kernel_s)
        self.wall_s = sum(self.intervals)
        self.wall_ref_s = sum(t * f for t, f in zip(self.intervals, factor))

        def resolve(x):
            return x.seconds * factor[x.interval] if isinstance(x, _Scaled) else x

        self.stage_s = {k: resolve(v) for k, v in self.stage_s.items()}
        self.encode_ms = [resolve(v) for v in self.encode_ms]

    def stage(self, name, *args):
        """Runs one CLI stage; returns True when it exited 0."""
        argv = ["--config", self.config, "--seed", str(self.fixtures.data_seed),
                "--out", self.out, name, *args]
        span = self.tracer.span(f"cli.{name.replace('-', '_')}") if self.tracer \
            else contextlib.nullcontext()
        sink = io.StringIO()
        self.gauge()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                ok = cli.main(argv) == 0
            except Exception as exc:  # a crash is a failed op, not a failed run
                print(f"{type(exc).__name__}: {exc}")
                ok = False
        self.stage_s[name] = self.scaled(time.perf_counter() - start)
        self.ops.append([name, ok])
        if not ok:
            print(f"  failed {name}: {sink.getvalue().strip()[-300:]}", file=sys.stderr)
        return ok

    def check(self, ok, what):
        """Marks the latest op failed when an output check does not hold."""
        if not ok:
            self.ops[-1][1] = False
            print(f"  check failed after {self.ops[-1][0]}: {what}", file=sys.stderr)

    def digests(self):
        out = {}
        for name in sorted(os.listdir(self.out)):
            if name.endswith(".csv"):
                with open(self.path(name), "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    # output checks ------------------------------------------------------

    def check_losses(self, name):
        """Checks a loss CSV (header, then index and values) is finite."""
        try:
            with open(self.path(name)) as fh:
                rows = fh.read().splitlines()[1:]
            values = [float(cell) for row in rows for cell in row.split(",")[1:]]
        except (OSError, ValueError) as exc:
            self.check(False, f"{name} unreadable: {exc}")
            return []
        self.check(values and all(math.isfinite(v) for v in values), f"{name} not finite")
        return values

    def check_codings(self, name):
        """Checks index:weight rows sum to 1 within 1e-9 on at most d slots."""
        try:
            with open(self.path(name)) as fh:
                rows = fh.read().splitlines()
            codings = [[float(cell.partition(":")[2]) for cell in row.split(",")]
                       for row in rows]
        except (OSError, ValueError) as exc:
            self.check(False, f"{name} unreadable: {exc}")
            return
        bad = [w for w in codings
               if abs(math.fsum(w) - 1.0) > 1e-9 or sum(x != 0.0 for x in w) > SAMPLER_D]
        self.check(codings and not bad,
                   f"{name}: {len(bad)} codings break sum-to-one or support <= {SAMPLER_D}")


def run_fit(p):
    if p.stage("train-ae"):
        p.check_losses("ae_losses.csv")
    if p.stage("learn-lcc"):
        trace = p.check_losses("lcc_objective.csv")
        p.check(all(b <= a for a, b in zip(trace, trace[1:])),
                "lcc_objective.csv increases")
        p.values["outer_iters"] = len(trace)
        p.values["lcc_objective"] = trace[-1] if trace else math.nan


def run_train(p):
    if p.stage("train-gan", "--iters", str(GAN_ITERS)):
        p.check_losses("gan_losses.csv")


def run_serve(p):
    if p.stage("sample", "--n", str(SAMPLE_N)):
        p.check_codings("codings_sampled.csv")
    if p.stage("interpolate", "--steps", str(INTERP_STEPS)):
        p.check_codings("interp_codings.csv")
    p.stage("eval")
    p.stage("verify-bounds", "--cases", str(BOUND_CASES))

    # single-point encodes at the API edge, anchors read from the artifact
    cfg = LccConfig(**DEFAULTS["lcc"])
    anchors = load_anchors(p.path("anchors.bin"))
    weights, objectives = [], []
    for k, h in enumerate(p.fixtures.encode_points):
        if k % ENCODE_BLOCK == 0:
            p.gauge()
        start = time.perf_counter()
        try:
            coding = core.solve_coding(h, anchors, cfg)
            ok = True
        except Exception as exc:  # a crash is a failed op, not a failed run
            print(f"  failed solve_coding: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        p.encode_ms.append(p.scaled(1e3 * (time.perf_counter() - start)))
        p.ops.append(["solve_coding", ok])
        if ok:
            w = coding.weights
            obj = lcc_objective(h[None, :], w[None, :], anchors, cfg)
            p.check(abs(math.fsum(w) - 1.0) <= 1e-9 and math.isfinite(obj),
                    "solve_coding returned an infeasible coding")
            weights.append(w)
            objectives.append(obj)
    p.values["encode_objective"] = statistics.fmean(objectives) if objectives else math.nan
    if weights:
        p.encode_digest = hashlib.sha256(np.stack(weights).tobytes()).hexdigest()


def derive(workload, p):
    """The workload's timing metrics, from the pass's scaled stage times."""
    s = p.stage_s
    if workload == "fit":
        p.values["lcc_s"] = s["learn-lcc"]
    elif workload == "train":
        p.values["gan_iters_per_s"] = GAN_ITERS / s["train-gan"]
    elif workload == "serve":
        p.values["codings_per_s"] = SAMPLE_N / s["sample"]
        p.values["eval_s"] = s["eval"]
        p.values["bounds_s"] = s["verify-bounds"]


WORKLOADS = {"fit": run_fit, "train": run_train, "serve": run_serve}


def run_pass(workload, fixtures, fixture_dir, out, tracer=None):
    p = Pass(fixtures, fixture_dir, out, tracer)
    WORKLOADS[workload](p)
    p.finish()
    derive(workload, p)
    p.csv_digests = p.digests()
    if p.encode_digest is not None:
        p.csv_digests["(solve_coding weights)"] = p.encode_digest
    return p
