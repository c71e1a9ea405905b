"""The benchmark's four workloads: seeded inputs, operations and output checks.

Each workload is a fixed list of operations.  One operation is one sweep row,
one ``critical_point`` call or one ``blp_measure`` call.  The seed jitters the
swept values by up to 1 % (always less than one grid step) and shuffles the
operation order; seed 0 gives the presets exactly, in preset order, and is
the seed the stored reference outputs were captured with.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable

import numpy as np

from qflow import InitialStateSpec, TimeLocalModel, TimeLocalParams, analysis, infoflow
from qflow.analysis import SweepSpec, figure_preset

# The library's entry points are called through their modules (for example
# ``analysis.run_sweep``) so that the traced run's wrappers see the calls.

DEFAULT_SEED = 0
# Relative jitter of swept values.  The flow grid of a small-R row has
# ~40 * 2 pi W / R samples, so its cost scales as 1/R: a jitter of a whole
# grid step would move the cost of the R = 0.05 row by up to 60 % from seed
# to seed, while +-1 % keeps the work per pass comparable across seeds and
# stays inside one grid step of every preset.
JITTER = 0.02
# critical_point scans a fixed-width R range; it is shifted by up to a
# twentieth of its grid step either way.
JITTER_STEPS = 0.1

# fig5 rows measured by backflow-sweep: R = 0.05 carries the ~50k-sample flow
# grid, R = 4.62 carries 30+ run boundaries per state, and R = 1.07 has the
# plateau segments and the largest ledger identity residual (2.1e-8) of fig5.
BACKFLOW_ROWS = (0, 8, 36)

# criterion 8 / ``qflow critical`` setting
CRITICAL_W = 0.6
CRITICAL_THETA0 = math.pi / 3
CRITICAL_RANGE = (0.4, 1.0)
CRITICAL_STEPS = 61

# blp-grid: time-local model with backflow, T = 2 pi, full default pair grid.
BLP_W = 1.0
BLP_R = 2.0
BLP_SAMPLES = 201

# How strongly times follow the host's CPU speed as seen by run.speed_probe.
# On a shared 2-vCPU x86-64 VM the slope of log(latency) against log(probe)
# was 0.4-0.9 for sweep rows and critical_point calls (0.7 is used, also for
# set-up).  blp_measure's bulk pair scoring is bound by memory bandwidth: in
# the host's fast phases it sped up 1.25x while the probe sped up 1.8x,
# a slope of ln 1.25 / ln 1.8 = 0.38.
SPEED_EXPONENT = 0.7
SPEED_EXPONENTS = {"blp-grid": 0.35}

# Reference tolerances.  Flow cumulants come from runs bisected to 1e-10
# relative time accuracy; phases are converged to the sweep's own step test
# (1e-6) and are compared on the circle.
FLOW_ATOL = 1e-9
PHASE_ATOL = 1e-6


@dataclasses.dataclass(frozen=True)
class RowSpec(SweepSpec):
    """A preset sweep restricted to one swept value (one row per ``run_sweep``)."""

    row: float = math.nan

    def values(self) -> np.ndarray:
        return np.array([self.row])


@dataclasses.dataclass
class Op:
    """One timed operation with its inputs and its output checks."""

    key: str
    inputs: dict
    run: Callable[[], object]
    # flat output values and, per value, how to compare it with the reference
    values: Callable[[object], list]
    kinds: Callable[[object], list]
    # invariant violations of an output (empty when the output is correct)
    check: Callable[[object], list]


@dataclasses.dataclass
class Workload:
    name: str
    seed: int
    ops: list
    speed_exponent: float = 0.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _jitter(value: float, lo: float, hi: float, rng: random.Random) -> float:
    off = (rng.random() - 0.5) * JITTER * value
    v = value + off
    return v if lo <= v <= hi else value - off


def _preset_rows(name: str, indices, rng: random.Random | None) -> list:
    preset = figure_preset(name)
    grid = preset.values()
    base = {f.name: getattr(preset, f.name) for f in dataclasses.fields(SweepSpec)}
    ops = []
    for i in indices:
        value = float(grid[i])
        if rng is not None:
            value = _jitter(value, preset.start, preset.stop, rng)
        spec = RowSpec(**base, row=value)
        ops.append(Op(
            key=f"{name}[{i}]",
            inputs={"preset": name, "row": i, preset.param: value},
            run=lambda spec=spec: analysis.run_sweep(spec),
            values=lambda res: list(res.rows[0]),
            kinds=lambda res: [_column_kind(c) for c in res.columns],
            check=_check_row,
        ))
    return ops


def _column_kind(column: str) -> str:
    if column in ("R", "C"):
        return "exact"
    if column.startswith("phase_pi["):
        return "phase_pi"
    if column.startswith("phase_"):
        return "phase"
    return "flow"


def _check_row(res) -> list:
    problems = [f"cell error in {label}: {msg}" for _, label, msg in res.errors]
    if len(res.rows) != 1:
        return problems + [f"expected one row, got {len(res.rows)}"]
    row = res.rows[0]
    cells = dict(zip(res.columns, row))
    for col, v in cells.items():
        if not math.isfinite(v):
            problems.append(f"{col} is not finite")
            continue
        if col[0] in "NMD" and v < 0.0:
            problems.append(f"{col} = {v!r} is negative")
        if col.startswith("phase_mod[") and not -math.pi < v <= math.pi:
            problems.append(f"{col} = {v!r} outside (-pi, pi]")
        if col.startswith("phase_pi[") and not 0.0 <= v < 2.0:
            problems.append(f"{col} = {v!r} outside [0, 2)")
        if col.startswith("phase_raw["):
            mod = cells[col.replace("phase_raw[", "phase_mod[")]
            pi_units = cells[col.replace("phase_raw[", "phase_pi[")]
            if abs(math.remainder(v - mod, 2 * math.pi)) > 1e-9:
                problems.append(f"{col} and phase_mod differ on the circle")
            if abs(math.remainder(pi_units * math.pi - mod, 2 * math.pi)) > 1e-9:
                problems.append(f"{col} and phase_pi differ on the circle")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _backflow_sweep(rng):
    return _preset_rows("fig5", BACKFLOW_ROWS, rng)


def _markovian_phase(rng):
    ops = []
    for name in ("fig1", "fig8", "fig9"):
        ops += _preset_rows(name, range(figure_preset(name).steps), rng)
    return ops


def _critical_scan(rng):
    lo, hi = CRITICAL_RANGE
    step = (hi - lo) / (CRITICAL_STEPS - 1)
    off = 0.0 if rng is None else (rng.random() - 0.5) * JITTER_STEPS * step
    r_min, r_max = lo + off, hi + off
    spec = InitialStateSpec(1.0, CRITICAL_THETA0, 0.0)
    p = TimeLocalParams(CRITICAL_W, 1.0, 1.0)
    T = 2.0 * math.pi

    def check(rep) -> list:
        problems = []
        if not rep.df_residual < 1e-8:
            problems.append(f"df_residual {rep.df_residual:.3e} >= 1e-8")
        if not rep.dd_residual < 1e-6:
            problems.append(f"dd_residual {rep.dd_residual:.3e} >= 1e-6")
        if not rep.da_residual < 1e-6:
            problems.append(f"da_residual {rep.da_residual:.3e} >= 1e-6")
        if not rep.onset_matches_m_flat:
            problems.append("backflow onset does not match the dM/dR collapse")
        if not r_min <= rep.r_star <= r_max:
            problems.append(f"R* = {rep.r_star!r} outside the scanned range")
        return problems

    return [Op(
        key="critical",
        inputs={"T": T, "W": CRITICAL_W, "vartheta0": CRITICAL_THETA0,
                "r_min": r_min, "r_max": r_max, "steps": CRITICAL_STEPS},
        run=lambda: analysis.critical_point(T, spec, p, r_min, r_max, steps=CRITICAL_STEPS),
        values=lambda rep: [rep.r_star, rep.onset_R, rep.m_flat_R, rep.dm_at_onset,
                            float(rep.onset_matches_m_flat)],
        kinds=lambda rep: ["flow", "exact", "exact", "slope", "exact"],
        check=check,
    )]


def _blp_grid(rng):
    grid = infoflow.default_pair_grid()
    R = BLP_R
    if rng is not None:
        R = _jitter(R, 0.0, math.inf, rng)
    model = TimeLocalModel(TimeLocalParams(BLP_W, BLP_W / R))
    T = 2.0 * math.pi
    times = np.linspace(0.0, T, BLP_SAMPLES)

    def check(res) -> list:
        problems = []
        if res.n_pairs != len(grid):
            problems.append(f"scored {res.n_pairs} pairs of {len(grid)}")
        ledger = infoflow.pair_flows(res.argmax_pair[0], res.argmax_pair[1], model, T, times)
        if abs(res.value - ledger.N_total) > 1e-12:
            problems.append(f"value {res.value!r} != pair_flows N_total {ledger.N_total!r}")
        return problems

    return [Op(
        key="blp",
        inputs={"W": BLP_W, "lambda": BLP_W / R, "T": T, "samples": BLP_SAMPLES,
                "pairs": len(grid)},
        run=lambda: infoflow.blp_measure(model, grid, t_end=T, times=times),
        values=lambda res: [res.value, float(res.n_pairs), float(res.n_samples)],
        kinds=lambda res: ["flow", "exact", "exact"],
        check=check,
    )]


MAKERS = {
    "backflow-sweep": _backflow_sweep,
    "markovian-phase": _markovian_phase,
    "blp-grid": _blp_grid,
    "critical-scan": _critical_scan,
}


def build(name: str, seed: int) -> Workload:
    """Inputs of one workload: presets exactly for seed 0, jittered otherwise."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    ops = MAKERS[name](rng)
    if rng is not None:
        rng.shuffle(ops)
    return Workload(name, seed, ops, SPEED_EXPONENTS.get(name, SPEED_EXPONENT))


# ---------------------------------------------------------------------------
# reference comparison (seed 0 only)
# ---------------------------------------------------------------------------

def compare(values: list, kinds: list, reference: list) -> list:
    """Differences between an output and its stored reference, NaN by position."""
    if len(values) != len(reference):
        return [f"{len(values)} values, reference has {len(reference)}"]
    problems = []
    for i, (v, kind, ref) in enumerate(zip(values, kinds, reference)):
        if ref is None or math.isnan(v):
            if not (ref is None and math.isnan(v)):
                problems.append(f"value {i}: NaN position differs ({v!r} vs {ref!r})")
            continue
        if kind == "exact":
            err = abs(v - ref)
            tol = 0.0
        elif kind == "phase":
            err, tol = abs(math.remainder(v - ref, 2 * math.pi)), PHASE_ATOL
        elif kind == "phase_pi":
            err, tol = abs(math.remainder(v - ref, 2.0)) * math.pi, PHASE_ATOL
        elif kind == "slope":
            # forward difference of M over one R step: flow error / step
            err, tol = abs(v - ref), 1e-7
        else:
            err, tol = abs(v - ref), FLOW_ATOL
        if err > tol:
            problems.append(f"value {i} ({kind}): {v!r} vs reference {ref!r}")
    return problems
