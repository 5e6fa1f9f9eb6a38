"""Benchmark of the lccgen pipeline: one workload per run, in a fresh process.

    python3 benchmarks/run.py --workload fit|train|serve --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lccgen is imported from ./src.
Set-up happens SETUPS times (median reported), then passes of the workload
repeat until S seconds have gone by (at least MIN_PASSES).  Pass timings are
scaled by a reference kernel timed between operations (see reference.py), so
that the machine's drifting speed cancels from them.  With --trace 1, traced
and untraced passes alternate: the per-layer metrics come from the traced
ones and the difference between the two is the tracing overhead.

Stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"},
the metrics being the gated end-to-end ones (trace 0) or the per-layer ones
(trace 1).  Every end-to-end metric of the workload, the machine and the
output digests are printed above it and saved under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# numpy's OpenBLAS otherwise starts one thread per core; must precede its import
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GATED = ("setup_s", "wall_ref_s", "peak_rss_mb")
MIN_PASSES = 3
SETUPS = 5


def import_package():
    """Puts ./src first on the path; the package must come from there."""
    if not os.path.isfile(os.path.join(SRC, "lccgen", "cli.py")):
        sys.exit(f"error: no lccgen sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def machine_info():
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": nproc}
    info.update({v: os.environ[v] for v in THREAD_VARS})
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fit", "train", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    import reference
    import spans
    import workloads as wl

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{run_id}-{os.getpid()}")
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    fixtures = wl.Fixtures(args.seed)
    try:
        reference.time_kernel()  # warm-up: the first run pays numpy's lazy set-up
        kernel_s = [reference.time_kernel()]
        setup_wall_s = []
        for k in range(SETUPS):
            setup_wall_s.append(wl.setup(args.workload, fixtures,
                                         os.path.join(work, f"setup{k}"), env))
            kernel_s.append(reference.time_kernel())
        setup_s = [t * f for t, f in zip(setup_wall_s, reference.factors(kernel_s))]
        fixture_dir = os.path.join(work, f"setup{SETUPS - 1}")

        tracer = spans.Tracer() if args.trace else None
        passes, traced = [], []
        min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
        deadline = time.perf_counter() + args.seconds
        while len(passes) + len(traced) < min_passes or time.perf_counter() < deadline:
            out = os.path.join(work, f"pass{len(passes) + len(traced)}")
            with_trace = tracer is not None and len(passes) > len(traced)
            if with_trace:
                tracer.install()
            try:
                p = wl.run_pass(args.workload, fixtures, fixture_dir, out,
                                tracer if with_trace else None)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else passes).append(p)
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every pass of the run sees the same inputs, so outputs must match pass 0
    everything = passes + traced
    first = everything[0].csv_digests
    for p in everything[1:]:
        for name in set(first) | set(p.csv_digests):
            if p.csv_digests.get(name) != first.get(name):
                print(f"  digest of {name} differs from the first pass", file=sys.stderr)
                p.ops.append([f"digest {name}", False])
    attempted = sum(len(p.ops) for p in everything)
    failed = sum(1 for p in everything for _, ok in p.ops if not ok)

    table = {}  # name -> (median, min, max, n)

    def record(name, values, value=None):
        if values:
            median = statistics.median(values) if value is None else value
            table[name] = (median, min(values), max(values), len(values))

    record("setup_s", setup_s)
    record("setup_wall_s", setup_wall_s)
    record("wall_ref_s", [p.wall_ref_s for p in passes])
    record("wall_s", [p.wall_s for p in passes])
    record("peak_rss_mb", [peak_rss_mb])
    record("failed_frac", [failed / attempted])
    for name in wl.SPECIFIC[args.workload]:
        record(name, [p.values[name] for p in passes if name in p.values])
    if args.workload == "serve":
        encodes = [ms for p in passes for ms in p.encode_ms]
        record("encode_p50_ms", encodes)
        record("encode_p90_ms", encodes, statistics.quantiles(encodes, n=10)[-1])

    info = machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced"
          f" + {len(traced)} traced passes, {attempted} ops, {failed} failed")
    units = {**wl.COMMON, **wl.SPECIFIC[args.workload]}
    for name, unit in units.items():
        if name in table:
            med, lo, hi, n = table[name]
            print(f"  {name:<18} {med:12.6g} {unit:<6} (min {lo:.6g}, max {hi:.6g}, n={n})")
        else:
            print(f"  {name:<18} {'missing':>12}")
    for name, digest in first.items():
        print(f"  sha256 {digest}  {name}")

    result = {"machine": info, "workload": args.workload, "seed": args.seed,
              "end_to_end": table, "digests": first,
              "stage_s": [p.stage_s for p in passes],
              "wall_ref_s": [p.wall_ref_s for p in passes],
              "wall_s": [p.wall_s for p in passes]}
    correct = failed == 0 and all(name in table for name in units)
    if args.trace:
        layer = spans.layer_metrics(
            tracer, [p.values for p in traced], wl.LCC_CAP,
            statistics.median(p.wall_ref_s for p in traced), table["wall_ref_s"][0])
        for name, value in layer.items():
            print(f"  {name:<30} {value:14.6g} {spans.LAYER_UNITS[name]}")
        result["per_layer"] = layer
        tracer.write(os.path.join(results_dir, f"{run_id}.spans.json"))
        metrics = {k: {"value": v, "unit": spans.LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": table[k][0], "unit": units[k]} for k in GATED}
    with open(os.path.join(results_dir, f"{run_id}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
