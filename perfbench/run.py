#!/usr/bin/env python3
"""Benchmark of qflow's propagator -> flow ledger -> phase -> sweep pipeline.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload backflow-sweep --seed 0 --seconds 20 --trace 0

Workloads: backflow-sweep, markovian-phase, blp-grid, critical-scan (see
``workloads.py`` and ``NOTES.md``).  The run imports ``qflow`` from the
checkout's ``src/`` directory, builds the seeded inputs, repeats whole passes
over the workload's operations for ``--seconds`` seconds in this one process
with one thread, checks every output, and prints one line per metric followed
by a JSON result line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the public functions of ``channels``, ``infoflow``,
``geomphase`` and ``analysis`` from outside, reports the per-layer metrics of
the traced passes, then removes the wrappers and runs untraced passes to
measure the tracing overhead.  A result file (and, when tracing, the spans)
is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
WORKLOADS = ("backflow-sweep", "markovian-phase", "blp-grid", "critical-scan")
# setup is measured in this process and in this many fresh child processes
SETUP_PROBES = 2
THREAD_VARS = ("QFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
# Seconds the speed probe takes at the reference CPU speed (see
# ``speed_probe``).  Between operations the probe runs once at least
# PROBE_EVERY_S seconds of operations have passed.
PROBE_REF_S = 0.01
PROBE_EVERY_S = 0.25


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_and_build(name: str, seed: int):
    """Import qflow from this checkout and build the workload's inputs.

    Returns (workload, reference outputs or None, seconds taken).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import qflow
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qflow from {SRC}: {exc}")
    if Path(qflow.__file__).resolve().parent != SRC / "qflow":
        raise SystemExit(f"perfbench: qflow imported from {qflow.__file__}, not {SRC}")
    import workloads

    wl = workloads.build(name, seed)
    ref = None
    if seed == workloads.DEFAULT_SEED:
        with open(REFERENCE / f"{name}.json") as fh:
            ref = json.load(fh)["ops"]
    return wl, ref, time.perf_counter() - t0


def speed_probe() -> float:
    """Seconds taken by a fixed loop of small numpy calls that never calls qflow.

    On a shared host the CPU speed of the same code drifts by up to 2x over
    tens of seconds.  The probe runs between operations, and each time ``t``
    is reported as ``t * (PROBE_REF_S / probe) ** exponent``, ``probe`` being
    the mean of the probes around it: the time at a fixed reference speed.
    ``exponent`` is the workload's sensitivity to the probe (see
    ``workloads.SPEED_EXPONENT``).  Raw times are kept in the result file.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        acc += float((np.exp(-x * (i * 1e-3)) * np.cos(x)).sum())
    return time.perf_counter() - t0


def speed_scale(before: float, after: float, exponent: float) -> float:
    return (2 * PROBE_REF_S / (before + after)) ** exponent


def probe_setup(name: str, seed: int) -> float:
    """Setup time of a fresh process (cold ``import qflow`` plus inputs)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_passes(wl, budget: float, tracer=None, op_table=None, phase=""):
    """Whole passes over the operation list while the next one fits the budget.

    Each pass records raw latencies (``lat``), the speed scale of each
    operation and the scaled latencies (``ref_lat``); ``wall`` is their sum.
    """
    passes = []
    start = time.perf_counter()
    while True:
        lat, outs, scale = [], [], []
        t_pass = time.perf_counter()
        probe, since, group = speed_probe(), 0.0, 0
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = len(op_table)
                op_table.append((phase, len(passes), i, op.key))
            t_op = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed operation is counted, not fatal
                out = traceback.format_exc()
            lat.append(time.perf_counter() - t_op)
            outs.append(out)
            since, group = since + lat[-1], group + 1
            if since >= PROBE_EVERY_S or i == len(wl.ops) - 1:
                nxt = speed_probe()
                scale += [speed_scale(probe, nxt, wl.speed_exponent)] * group
                probe, since, group = nxt, 0.0, 0
        passes.append({"elapsed": time.perf_counter() - t_pass, "lat": lat, "out": outs,
                       "scale": scale, "ref_lat": [t * k for t, k in zip(lat, scale)]})
        passes[-1]["wall"] = sum(passes[-1]["ref_lat"])
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["elapsed"] for p in passes) > budget:
            return passes


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


def check_passes(wl, passes: list, ref) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every operation run in ``passes``."""
    import workloads

    first: dict = {}
    attempted = failed = 0
    problems = []
    for p_no, p in enumerate(passes):
        for op, out in zip(wl.ops, p["out"]):
            attempted += 1
            if isinstance(out, str):
                found = [f"raised: {out.strip().splitlines()[-1]}"]
            else:
                found = list(op.check(out))
            if not found:
                values = [float(v) for v in op.values(out)]
                if not _same(values, first.setdefault(op.key, values)):
                    found.append("output differs from the first run of the same inputs")
                if ref is not None:
                    entry = ref[op.key]
                    if json.loads(json.dumps(op.inputs)) != entry["inputs"]:
                        found.append("inputs differ from the reference inputs")
                    found += workloads.compare(values, op.kinds(out), entry["values"])
            if found:
                failed += 1
                problems += [f"pass {p_no} {op.key}: {msg}" for msg in found]
    return attempted, failed, problems


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python_threads": threading.active_count(),
    }


def _quantile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list, passes: list) -> dict:
    lat_ms = [t * 1e3 for p in passes for t in p["ref_lat"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": _quantile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(wl, name: str, seed: int, seconds: float):
    """Traced passes, then the same passes untraced; returns metrics and spans."""
    import tracer as tr
    import workloads

    tr.assert_unpatched()
    tracer = tr.Tracer()
    op_table = [("setup", 0, 0, "build")]
    tracer.install()
    try:
        tracer.op = 0
        before = speed_probe()
        workloads.build(name, seed)  # traced set-up, for infoflow.pair_grid_s
        scale = {0: speed_scale(before, speed_probe(), workloads.SPEED_EXPONENT)}
        traced = run_passes(wl, seconds / 2, tracer, op_table, "traced")
    finally:
        tracer.uninstall()  # raises unless every wrapper is gone
    untraced = run_passes(wl, seconds / 2)

    by_pass: dict = {}
    for idx, span in enumerate(tracer.spans):
        phase, p_no = op_table[span[4]][:2]
        by_pass.setdefault((phase, p_no), {})[idx] = span
    for op_id, (phase, p_no, i, _) in enumerate(op_table):
        if phase == "traced":
            scale[op_id] = traced[p_no]["scale"][i]
    setup = tr.layer_metrics(by_pass.get(("setup", 0), {}), scale)
    per_pass = [tr.layer_metrics(by_pass.get(("traced", p), {}), scale)
                for p in range(len(traced))]
    metrics, problems = tr.combine(per_pass)
    metrics["infoflow.pair_grid_s"] = setup["infoflow.pair_grid_s"]
    metrics["trace_overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in untraced))
    units = dict(tr.LAYER_METRICS, trace_overhead_s="s")
    spans = {"fields": ["name", "start_ns", "end_ns", "parent", "op", "extra"],
             "ops": op_table, "spans": tracer.spans}
    return traced + untraced, metrics, units, problems, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    wl, ref, setup_raw = import_and_build(args.workload, args.seed)
    import workloads

    setup_here = setup_raw * speed_scale(speed_probe(), speed_probe(), workloads.SPEED_EXPONENT)
    if args.setup_probe:
        print(f"setup_s {setup_here!r}")
        return 0
    setups = [setup_here] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    env = environment()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          + " ".join(f"{k}={v}" for k, v in env["threads_env"].items()))
    for op in wl.ops:
        print(f"# input {op.key} " + " ".join(f"{k}={v!r}" for k, v in op.inputs.items()))

    # One untimed call first, so that lazy set-up inside numpy and scipy and
    # the first touch of the large arrays' pages are not timed.
    try:
        wl.ops[0].run()
    except Exception:  # the timed passes run it again and count the failure
        pass
    spans = None
    if args.trace:
        passes, metrics, units, problems, spans = traced_run(
            wl, args.workload, args.seed, args.seconds)
    else:
        passes = run_passes(wl, args.seconds)
        metrics, units, problems = end_to_end(setups, passes), dict(END_TO_END), []
    attempted, failed, op_problems = check_passes(wl, passes, ref)
    problems = op_problems + problems

    n_ops = sum(len(p["lat"]) for p in passes)
    for key, value in metrics.items():
        note = ""
        if key in ("op_p50_ms", "op_p90_ms"):
            note = f"  (n={n_ops} operations, {len(passes)} passes)"
        elif key == "setup_s":
            note = f"  (median of {len(setups)})"
        elif key == "wall_s":
            note = f"  (median of {len(passes)} passes of {len(wl.ops)} operations)"
        print(f"{key:42s} {value:.6g} {units[key]}{note}")
    print(f"{'failed_ratio':42s} {failed / attempted:.6g} 1  ({failed}/{attempted})")
    for msg in problems[:20]:
        print(f"# problem: {msg}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "inputs": [{"key": op.key, **op.inputs} for op in wl.ops],
        "setup_s": setups, "pass_wall_s": [p["wall"] for p in passes],
        "op_latency_s": [p["ref_lat"] for p in passes],
        "raw_pass_elapsed_s": [p["elapsed"] for p in passes],
        "raw_op_latency_s": [p["lat"] for p in passes],
        "speed_scale": [p["scale"] for p in passes],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
