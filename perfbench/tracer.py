"""Spans around the public functions of qflow's layers, installed from outside.

Nothing inside ``qflow`` changes: :class:`Tracer` replaces each traced
function by a wrapper in every qflow module namespace that binds it (and
each traced model method on its class), and :meth:`Tracer.uninstall` puts
the originals back.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, op, extra]`` and written out at the end;
the per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

_MARK = "__perfbench_original__"
SAMPLE_CAP = 200001


def _times_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["times"]


def _ledger_extra(args, kwargs, ledger):
    plateaus = sum(1 for s in ledger.segments if s.direction == 0)
    return (len(ledger.segments) - 1, plateaus, ledger.identity_residual())


def _traced():
    """(owner, attribute, span name, extra) for every traced entry point."""
    from qflow import analysis, channels, geomphase, infoflow

    out = []
    for cls in (channels.TimeLocalModel, channels.MemoryKernelModel):
        out += [
            (cls, "states", "channels.states",
             lambda a, k, r: int(np.size(_times_arg(a, k)))),
            (cls, "state_dot", "channels.state_dot",
             lambda a, k, r: int(np.size(_times_arg(a, k)))),
            (cls, "trajectory", "channels.trajectory", None),
        ]
    out += [
        (channels, "sample_times", "channels.sample_times", lambda a, k, r: int(r.size)),
        (channels, "positivity_check", "channels.positivity_check", None),
        (channels, "abs_c_squared", "channels.abs_c_squared", None),
        (infoflow, "flows", "infoflow.flows", _ledger_extra),
        (infoflow, "pair_flows", "infoflow.pair_flows", None),
        (infoflow, "blp_measure", "infoflow.blp_measure",
         lambda a, k, r: (r.n_pairs, r.n_samples)),
        (infoflow, "default_pair_grid", "infoflow.default_pair_grid", None),
        (geomphase, "gp_mixed_auto", "geomphase.gp_mixed_auto",
         lambda a, k, r: (r.n_samples, r.converged)),
        (geomphase, "gp_mixed", "geomphase.gp_mixed", lambda a, k, r: len(a[0])),
        (geomphase, "branch_data", "geomphase.branch_data", None),
        (geomphase, "assemble_phase", "geomphase.assemble_phase", None),
        (analysis, "run_sweep", "analysis.run_sweep",
         lambda a, k, r: (len(r.rows), len(r.errors))),
        (analysis, "critical_point", "analysis.critical_point", None),
    ]
    return out


def _qflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qflow" or name.startswith("qflow."))]


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        modules = _qflow_modules()
        for owner, attr, name, extra in _traced():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, extra)
            for mod in modules:  # every ``from .x import f`` binding too
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        assert_unpatched()


def assert_unpatched() -> None:
    """Self-test: no qflow module or model class still holds a wrapper."""
    from qflow import channels

    holders = _qflow_modules() + [channels.TimeLocalModel, channels.MemoryKernelModel]
    left = [f"{getattr(h, '__name__', h)}.{key}"
            for h in holders for key, val in list(vars(h).items())
            if hasattr(val, _MARK)]
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit) in report order; counts repeat exactly, *_s are busy seconds.
LAYER_METRICS = (
    ("channels.states_calls", "count"),
    ("channels.states_samples", "count"),
    ("channels.states_s", "s"),
    ("channels.state_dot_calls", "count"),
    ("channels.state_dot_samples", "count"),
    ("channels.state_dot_s", "s"),
    ("channels.scalar_call_share", "1"),
    ("channels.ns_per_sample", "ns"),
    ("channels.bytes_computed", "B"),
    ("channels.sample_times_samples", "count"),
    ("channels.sample_cap_hits", "count"),
    ("channels.positivity_s", "s"),
    ("infoflow.flows_calls", "count"),
    ("infoflow.flows_s", "s"),
    ("infoflow.flows_self_s", "s"),
    ("infoflow.boundaries", "count"),
    ("infoflow.sigma_evals", "count"),
    ("infoflow.evals_per_boundary", "1"),
    ("infoflow.plateau_segments", "count"),
    ("infoflow.identity_residual_max", "1"),
    ("infoflow.residual_over_1e-8", "count"),
    ("infoflow.residual_over_1e-8_with_plateau", "count"),
    ("infoflow.blp_s", "s"),
    ("infoflow.blp_pairs", "count"),
    ("infoflow.blp_pairs_per_s", "1/s"),
    ("infoflow.blp_states_evolved", "count"),
    ("infoflow.blp_bytes_computed", "B"),
    ("infoflow.pair_grid_s", "s"),
    ("geomphase.auto_calls", "count"),
    ("geomphase.auto_s", "s"),
    ("geomphase.doublings", "count"),
    ("geomphase.samples_evaluated", "count"),
    ("geomphase.samples_kept", "count"),
    ("geomphase.useful_sample_share", "1"),
    ("geomphase.trajectory_s", "s"),
    ("geomphase.branch_data_s", "s"),
    ("geomphase.assemble_s", "s"),
    ("geomphase.unconverged", "count"),
    ("analysis.rows", "count"),
    ("analysis.row_self_s", "s"),
    ("analysis.cell_errors", "count"),
    ("analysis.critical_s", "s"),
    ("analysis.critical_flows_s", "s"),
    ("analysis.critical_fd_evals", "count"),
    ("analysis.critical_fd_s", "s"),
)

TIMED = frozenset(name for name, unit in LAYER_METRICS if unit == "s") | {
    "channels.ns_per_sample", "infoflow.blp_pairs_per_s"}


def layer_metrics(spans: dict, scale: dict) -> dict:
    """Per-layer metrics of one pass.

    ``spans`` maps span index to span for the spans the pass recorded;
    ``parent`` fields index the same numbering.  Durations are multiplied by
    ``scale[op]``, the speed scale of the operation the span belongs to.
    """
    child_s: dict = {}
    for s in spans.values():
        if s[3] >= 0:
            child_s[s[3]] = child_s.get(s[3], 0) + s[2] - s[1]

    def name_of(i):
        return spans[i][0] if i in spans else ""

    m = dict.fromkeys((name for name, _ in LAYER_METRICS), 0)
    for i, (name, t0, t1, parent, op, extra) in spans.items():
        k = scale.get(op, 1.0) * 1e-9
        dur = (t1 - t0) * k
        parent_name = name_of(parent)
        if name in ("channels.states", "channels.state_dot"):
            key = name.split(".")[1]
            m[f"channels.{key}_calls"] += 1
            m[f"channels.{key}_samples"] += extra
            m[f"channels.{key}_s"] += dur
            m["channels.scalar_call_share"] += extra == 1
            if key == "state_dot" and extra == 1 and parent_name == "infoflow.flows":
                m["infoflow.sigma_evals"] += 1
            if key == "states" and parent_name == "infoflow.blp_measure":
                m["infoflow.blp_states_evolved"] += 1
        elif name == "channels.trajectory":
            if parent_name == "geomphase.gp_mixed_auto":
                m["geomphase.trajectory_s"] += dur
        elif name == "channels.sample_times":
            m["channels.sample_times_samples"] += extra
            m["channels.sample_cap_hits"] += extra == SAMPLE_CAP
        elif name == "channels.positivity_check":
            m["channels.positivity_s"] += dur
        elif name == "channels.abs_c_squared":
            if parent_name == "analysis.critical_point":
                m["analysis.critical_fd_evals"] += 1
                m["analysis.critical_fd_s"] += dur
        elif name == "infoflow.flows":
            boundaries, plateaus, residual = extra
            m["infoflow.flows_calls"] += 1
            m["infoflow.flows_s"] += dur
            m["infoflow.flows_self_s"] += dur - child_s.get(i, 0) * k
            m["infoflow.boundaries"] += boundaries
            m["infoflow.plateau_segments"] += plateaus
            m["infoflow.identity_residual_max"] = max(m["infoflow.identity_residual_max"],
                                                      residual)
            if residual > 1e-8:
                m["infoflow.residual_over_1e-8"] += 1
                m["infoflow.residual_over_1e-8_with_plateau"] += plateaus > 0
            if parent_name == "analysis.critical_point":
                m["analysis.critical_flows_s"] += dur
        elif name == "infoflow.blp_measure":
            pairs, samples = extra
            m["infoflow.blp_s"] += dur
            m["infoflow.blp_pairs"] += pairs
            m["infoflow.blp_bytes_computed"] += pairs * samples * 24
        elif name == "infoflow.default_pair_grid":
            m["infoflow.pair_grid_s"] += dur
        elif name == "geomphase.gp_mixed_auto":
            kept, converged = extra
            m["geomphase.auto_calls"] += 1
            m["geomphase.auto_s"] += dur
            m["geomphase.samples_kept"] += kept
            m["geomphase.unconverged"] += not converged
        elif name == "geomphase.gp_mixed":
            if parent_name == "geomphase.gp_mixed_auto":
                m["geomphase.doublings"] += 1
                m["geomphase.samples_evaluated"] += extra
        elif name == "geomphase.branch_data":
            m["geomphase.branch_data_s"] += dur
        elif name == "geomphase.assemble_phase":
            m["geomphase.assemble_s"] += dur
        elif name == "analysis.run_sweep":
            rows, errors = extra
            m["analysis.rows"] += rows
            m["analysis.cell_errors"] += errors
            m["analysis.row_self_s"] += dur - child_s.get(i, 0) * k
        elif name == "analysis.critical_point":
            m["analysis.critical_s"] += dur

    calls = m["channels.states_calls"] + m["channels.state_dot_calls"]
    samples = m["channels.states_samples"] + m["channels.state_dot_samples"]
    busy = m["channels.states_s"] + m["channels.state_dot_s"]
    m["channels.scalar_call_share"] = m["channels.scalar_call_share"] / calls if calls else 0.0
    m["channels.ns_per_sample"] = busy * 1e9 / samples if samples else 0.0
    m["channels.bytes_computed"] = samples * 64  # 2x2 complex128 per sample
    m["infoflow.evals_per_boundary"] = (m["infoflow.sigma_evals"] / m["infoflow.boundaries"]
                                        if m["infoflow.boundaries"] else 0.0)
    m["infoflow.blp_pairs_per_s"] = (m["infoflow.blp_pairs"] / m["infoflow.blp_s"]
                                     if m["infoflow.blp_s"] else 0.0)
    m["geomphase.doublings"] -= m["geomphase.auto_calls"]
    m["geomphase.useful_sample_share"] = (
        m["geomphase.samples_kept"] / m["geomphase.samples_evaluated"]
        if m["geomphase.samples_evaluated"] else 0.0)
    return m


def combine(per_pass: list) -> tuple[dict, list]:
    """Median of the timed metrics over passes; counts must repeat exactly."""
    out, problems = {}, []
    for name, _ in LAYER_METRICS:
        vals = [p[name] for p in per_pass]
        if name in TIMED:
            out[name] = statistics.median(vals)
        else:
            out[name] = vals[0]
            if any(v != vals[0] for v in vals):
                problems.append(f"{name} differs between traced passes: {vals}")
    return out, problems
