"""Parameter sweeps and the critical-point machinery.

A sweep varies R = W / lambda (time-local) or C = gamma0 / gamma
(memory kernel) while keeping the coupling-side constant fixed (W or gamma0,
through the parameter classes' ``at_ratio``), and
evaluates phases, flows, distances and the phase integrand for a set of
initial states.  Sweeps are deterministic: identical specs produce
bit-identical datasets, and per-point failures are recorded per row while
the sweep continues.

The critical point R* is the root of d|c(T, R)|^2/dR.  For T > pi / (2W)
it is the R at which c(T, R) vanishes, a double zero of |c|^2.  The phase
integrand A(T, R), a function of |c(T)|^2, is extremal there.  The trace
distance D(T, R) to the ground state is not: it is
sqrt(|rho01(0)|^2 |c|^2 + rho00(0)^2 |c|^4), about |rho01(0)| |c(T, R)|
near R*, so it has a cusp, touching zero with one-sided R-slopes of
opposite sign (+0.2632 and -0.2621 at h = 1e-6 for W = 0.6,
vartheta0 = pi/3, z = 1, T = 2 pi).  Its centered difference at R* is
small only because it cancels across that nearly symmetric kink.  The
onset of backflow N(T) coincides with the flattening of M(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import channels
from .channels import (
    MemoryKernelModel,
    MemoryKernelParams,
    TimeLocalModel,
    TimeLocalParams,
)
from .errors import BracketError, ConfigError, NumericalError, require_finite
from .geomphase import figure_value, gp_row, phase_integrand
from .infoflow import ratio_flows, row_flows
from .qstate import DensityMatrix, InitialStateSpec, bloch_trace_distance, initial_state

FD_STEP = 5e-5
ONSET_TOL = 1e-10
_GROUND = DensityMatrix.ground().bloch().as_array()


@dataclass(frozen=True)
class SweepSpec:
    """Axes and outputs of one parameter sweep."""

    model: str = "time-local"            # "time-local" (sweeps R) | "memory-kernel" (C)
    start: float = 0.05
    stop: float = 5.0
    steps: int = 40
    W: float = 0.1                        # fixed coupling (time-local)
    gamma0: float = 0.1                   # fixed dissipation rate (memory kernel)
    omega0: float = 1.0
    n: int = 1                            # horizon T = 2 n pi / omega0
    z_list: tuple[float, ...] = (1.0,)
    vartheta0_list: tuple[float, ...] = (math.pi / 4.0,)
    varphi0: float = math.pi / 3.0
    outputs: tuple[str, ...] = ("phase", "N", "M")
    mode: str = "literal"
    tol: float = 1e-6
    label: str = ""

    def __post_init__(self) -> None:
        require_finite("SweepSpec", start=self.start, stop=self.stop, W=self.W,
                       gamma0=self.gamma0, omega0=self.omega0, varphi0=self.varphi0,
                       tol=self.tol,
                       **{f"z_list[{i}]": z for i, z in enumerate(self.z_list)},
                       **{f"vartheta0_list[{i}]": v for i, v in enumerate(self.vartheta0_list)})
        if not self.tol > 0.0:
            raise ConfigError(f"phase tolerance tol={self.tol} must be > 0")
        if self.steps < 2:
            raise ConfigError("sweep resolution must be >= 2")
        if self.n < 1:
            raise ConfigError(f"n={self.n} must be >= 1")
        if not all(0.0 <= z <= 1.0 for z in self.z_list):
            raise ConfigError(f"z_list={self.z_list} has a z outside [0, 1]")
        if self.model not in ("time-local", "memory-kernel"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.start <= 0.0 or self.stop <= self.start:
            raise ConfigError("sweep range must satisfy 0 < start < stop")
        bad = set(self.outputs) - {"phase", "N", "M", "D", "A"}
        if bad:
            raise ConfigError(f"unknown sweep outputs: {sorted(bad)}")

    @property
    def param(self) -> str:
        """Name of the swept ratio."""
        return "R" if self.model == "time-local" else "C"

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def horizon(self) -> float:
        return 2.0 * math.pi * self.n / self.omega0

    def crosses_quarter(self) -> bool:
        return self.param == "C" and self.start < 0.25 < self.stop

    def states(self) -> list[tuple[str, InitialStateSpec]]:
        out = []
        for z in self.z_list:
            for vt in self.vartheta0_list:
                out.append((f"z={z:g};vt={vt:g}", InitialStateSpec(z, vt, self.varphi0)))
        return out

    @cached_property
    def columns(self) -> tuple[str, ...]:
        """The swept ratio, then per state one cell per output (three for a phase).

        Computed once per spec, so every result of the spec shares the names.
        """
        names = [self.param]
        for label, _ in self.states():
            for out in self.outputs:
                names += ([f"{k}[{label}]" for k in ("phase_raw", "phase_mod", "phase_pi")]
                          if out == "phase" else [f"{out}[{label}]"])
        return tuple(names)

    def params_at(self, value: float):
        """Parameters at one swept value: the fixed W (gamma0) at ratio ``value``."""
        if self.model == "time-local":
            return TimeLocalParams(self.W, self.W, self.omega0).at_ratio(value)
        return MemoryKernelParams(self.gamma0, self.gamma0, self.omega0).at_ratio(value)

    def model_at(self, value: float):
        p = self.params_at(value)
        return TimeLocalModel(p) if self.model == "time-local" else MemoryKernelModel(p)


@dataclass(frozen=True)
class SweepResult:
    """Deterministic tabular result of a sweep."""

    spec: SweepSpec
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    errors: tuple[tuple[int, str, str], ...]  # (row index, column label, message)
    meta: dict = field(default_factory=dict)


def _row_at(spec: SweepSpec, value: float):
    """The cells of ``spec.columns`` at one swept value, notes, and the unconverged phase count.

    The row's states share one model, so their ledgers come from one
    :func:`row_flows` call and their phases from one :func:`gp_row` call,
    each entry equal to the one-state call's.  The ledger outputs (N, M, D),
    each phase and A fail on their own: a :class:`NumericalError` blanks
    only its own cells (NaN) and adds a note, a state's ledger note before
    its output notes.  A phase cell is the value ``qflow gp`` writes for the
    same state, parameters and mode.
    """
    model = spec.model_at(value)
    T = spec.horizon()
    labels, rho0s = zip(*((label, initial_state(state)) for label, state in spec.states()))
    ledgers = phases = [None] * len(rho0s)
    if {"N", "M", "D"} & set(spec.outputs):
        ledgers = row_flows(rho0s, model, T)
    if "phase" in spec.outputs:
        phases = gp_row(model, rho0s, T, mode=spec.mode, tol=spec.tol)
    row = [float(value)]
    notes: list[tuple[str, str]] = []
    unconverged = 0
    for label, rho0, ledger, phase in zip(labels, rho0s, ledgers, phases):
        if isinstance(ledger, NumericalError):
            notes.append((label, str(ledger)))
            ledger = None
        for out in spec.outputs:
            try:
                if out == "phase":
                    if isinstance(phase, NumericalError):
                        raise phase
                    unconverged += not phase.converged
                    values = [phase.phase_raw, phase.phase, figure_value(phase.phase) / math.pi]
                elif out == "A":
                    values = [integrand_A_from_model(T, model, rho0)]
                elif ledger is None:
                    values = [math.nan]
                elif out == "N":
                    values = [ledger.N_total]
                elif out == "M":
                    values = [ledger.M_total]
                else:
                    values = [float(ledger.D[-1])]
            except NumericalError as exc:
                values = [math.nan] * (3 if out == "phase" else 1)
                notes.append((label, str(exc)))
            row.extend(values)
    return row, notes, unconverged


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep row by row.

    ``meta["unconverged_phases"]`` counts the phase cells (one per row and
    state) whose grid doublings ended without meeting ``spec.tol``.
    """
    results = [_row_at(spec, v) for v in spec.values()]

    rows = tuple(tuple(r) for r, _, _ in results)
    errors = tuple(
        (i, label, msg) for i, (_, notes, _) in enumerate(results) for label, msg in notes
    )
    meta = {
        "model": spec.model,
        "param": spec.param,
        "n": spec.n,
        "mode": spec.mode,
        "label": spec.label,
        "unconverged_phases": sum(u for _, _, u in results),
    }
    if spec.crosses_quarter():
        meta["crosses_validity_boundary"] = "C range crosses 1/4"
    return SweepResult(spec, spec.columns, rows, errors, meta)


# ---------------------------------------------------------------------------
# Phase integrand and critical point
# ---------------------------------------------------------------------------

def integrand_A_from_model(t: float, model, rho0) -> float:
    """Phase integrand A(t) of one state from its Bloch vector (geomphase.phase_integrand)."""
    b = model.bloch_series(rho0, float(t))
    return float(phase_integrand(bloch_trace_distance(b, _GROUND), b[2], model.omega0))


@dataclass(frozen=True)
class CriticalPointReport:
    """Root of d|c(T, R)|^2/dR and the coincidence checks at it."""

    r_star: float
    df_residual: float          # |d|c|^2/dR| at R*
    dd_residual: float          # centered |dD/dR| at R* over the sweep maximum; small
                                # only because it cancels across D's cusp at R*
    da_residual: float          # |dA/dR| at R*, normalised by the sweep maximum
    dd_raw: float
    da_raw: float
    onset_R: float              # first grid point with N(T) > 1e-10
    m_flat_R: float             # first grid point where dM/dR has collapsed
    dm_at_onset: float          # forward difference of M just above R*
    onset_matches_m_flat: bool  # within one grid step
    grid: tuple[float, float, int]
    fd_step: float


def critical_point(T: float, spec: InitialStateSpec, p: TimeLocalParams,
                   r_min: float, r_max: float, steps: int = 81) -> CriticalPointReport:
    """Locate R* and check the extremum of A, the cusp of D and the onset claims.

    R = W / lambda is swept at W = p.W fixed (``TimeLocalParams.at_ratio``).

    The R range must bracket a sign change of the centered difference of
    |c(T, R)|^2; the first sign change (the first minimum) is refined by
    bisection.  D(T, R) and A(T, R) are then differenced at R* (centered,
    which reads near zero across D's cusp as at A's extremum), and the
    backflow onset is compared against the collapse of dM/dR on the grid;
    a range in which either event is missing raises :class:`BracketError`.
    The scales and dM/dR need an interior grid point, so ``steps < 3``
    raises :class:`ConfigError`, as does ``T <= 0`` or a non-finite T or range end.

    The scan is one array program over the grid's ratios: the sign scan
    makes one ``abs_c_squared`` call per stencil side and the D and A scales
    one state evaluation per side, each on the stack of the ratios'
    parameters (``TimeLocalParams.stack``), and the grid's flow ledgers
    come from one :func:`ratio_flows` call, whose bisection serves all of
    them.  Only the bisection of R* runs one ratio at a time.  Every field
    equals the one-ratio-at-a-time evaluation's bit for bit.
    """
    require_finite("critical_point", T=T, r_min=r_min, r_max=r_max)
    if r_min <= 0.0 or r_max <= r_min:
        raise ConfigError("critical_point requires 0 < r_min < r_max")
    if steps < 3:
        raise ConfigError(f"critical_point needs steps >= 3, got {steps}")
    if T <= 0.0:
        raise ConfigError(f"critical_point needs a horizon T > 0, got {T}")
    h = FD_STEP
    grid = np.linspace(r_min, r_max, steps)
    rho0 = initial_state(spec)

    def params_at(R):
        """The parameters at ratio R, or their stack over an array of ratios."""
        return TimeLocalParams.stack(map(p.at_ratio, R)) if np.ndim(R) else p.at_ratio(R)

    def cdiff(fn, R):
        return (fn(R + h) - fn(R - h)) / (2.0 * h)

    def f_of(R):
        return channels.abs_c_squared(T, params_at(R))

    def d_a_of(R):
        """D(T) and A(T), stacked, at ratio R (or an array of ratios) from one state evaluation."""
        b = TimeLocalModel(params_at(R)).bloch_series(rho0, T)
        d = bloch_trace_distance(b, _GROUND)
        return np.stack([d, phase_integrand(d, b[..., 2], p.omega0)])

    sign = np.sign(cdiff(f_of, grid))
    flips = np.flatnonzero((sign[:-1] < 0) & (sign[1:] > 0))
    if flips.size == 0:
        raise BracketError(
            f"no sign change of d|c(T,R)|^2/dR in [{r_min}, {r_max}]"
        )
    lo, hi = float(grid[flips[0]]), float(grid[flips[0] + 1])
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if cdiff(f_of, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r_star = 0.5 * (lo + hi)
    df_res = abs(cdiff(f_of, r_star))

    dd_raw, da_raw = cdiff(d_a_of, r_star)
    dd_grid, da_grid = cdiff(d_a_of, grid[1:-1])
    dd_scale = float(np.max(np.abs(dd_grid)))
    da_scale = float(np.max(np.abs(da_grid)))

    ledgers = ratio_flows(rho0, [TimeLocalModel(p.at_ratio(R)) for R in grid], T)
    for ledger in ledgers:
        if isinstance(ledger, NumericalError):
            raise ledger
    n_grid = np.array([ledger.N_total for ledger in ledgers])
    m_grid = np.array([ledger.M_total for ledger in ledgers])

    onset = np.flatnonzero(n_grid > ONSET_TOL)
    if onset.size == 0:
        raise BracketError(f"no backflow onset (N(T) > {ONSET_TOL:g}) in [{r_min}, {r_max}]")
    onset_idx = int(onset[0])
    dm_grid = (m_grid[2:] - m_grid[:-2]) / (grid[2:] - grid[:-2])  # centered, interior
    peak = int(np.argmax(dm_grid))
    below = np.flatnonzero(dm_grid[peak:] < 0.5 * dm_grid[peak])
    if below.size == 0:
        raise BracketError(f"no collapse of dM/dR below half its peak in [{r_min}, {r_max}]")
    m_flat_idx = peak + int(below[0]) + 1

    step_R = float(grid[1] - grid[0])
    dm_onset = (m_grid[min(onset_idx + 2, steps - 1)] - m_grid[min(onset_idx + 1, steps - 1)]) / step_R

    return CriticalPointReport(
        r_star=float(r_star),
        df_residual=float(df_res),
        dd_residual=float(abs(dd_raw) / dd_scale),
        da_residual=float(abs(da_raw) / da_scale),
        dd_raw=float(dd_raw),
        da_raw=float(da_raw),
        onset_R=float(grid[onset_idx]),
        m_flat_R=float(grid[m_flat_idx]),
        dm_at_onset=float(dm_onset),
        onset_matches_m_flat=abs(m_flat_idx - onset_idx) <= 1,
        grid=(float(r_min), float(r_max), int(steps)),
        fd_step=h,
    )


# ---------------------------------------------------------------------------
# Named sweep presets
# ---------------------------------------------------------------------------

_Z_FAMILY = (0.25, 0.5, 0.75, 1.0)


def _tl_preset(label, W, outputs, z_list=_Z_FAMILY, vartheta0=(math.pi / 4,),
               varphi0=math.pi / 3, start=0.05, stop=5.0, steps=40):
    return SweepSpec(
        model="time-local", start=start, stop=stop, steps=steps,
        W=W, z_list=z_list, vartheta0_list=vartheta0, varphi0=varphi0,
        outputs=outputs, label=label,
    )


def _mk_preset(label, outputs):
    return SweepSpec(
        model="memory-kernel", start=0.01, stop=0.24, steps=24,
        gamma0=0.1, z_list=_Z_FAMILY, vartheta0_list=(math.pi / 4,),
        varphi0=math.pi / 3, outputs=outputs, label=label,
    )


_PRESETS = {
    "fig1": lambda: _tl_preset("fig1", 0.1, ("phase",)),
    "fig2": lambda: _tl_preset("fig2", 0.1, ("M",)),
    "fig3": lambda: _tl_preset("fig3", 1.0, ("N",)),
    "fig4": lambda: _tl_preset("fig4", 1.0, ("phase", "N")),
    "fig5": lambda: _tl_preset("fig5", 10.0, ("phase", "N")),
    "fig6": lambda: _tl_preset("fig6", 10.0, ("N",)),
    "fig7": lambda: _tl_preset(
        "fig7", 10.0, ("phase", "N"), z_list=(0.5,),
        vartheta0=tuple(k * math.pi / 12.0 for k in range(13)),
        varphi0=math.pi / 6,
    ),
    "fig8": lambda: _mk_preset("fig8", ("phase",)),
    "fig9": lambda: _mk_preset("fig9", ("M",)),
    "appendix-nm": lambda: _tl_preset(
        "appendix-nm", 0.6, ("N", "M"), z_list=(1.0,),
        vartheta0=(math.pi / 3,), varphi0=0.0,
        start=0.3, stop=1.2, steps=46,
    ),
    "appendix-ady": lambda: _tl_preset(
        "appendix-ady", 0.6, ("A", "D", "N"), z_list=(1.0,),
        vartheta0=(math.pi / 3,), varphi0=0.0,
        start=0.3, stop=1.2, steps=46,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def figure_preset(name: str) -> SweepSpec:
    """Built-in sweep presets fig1 ... fig9, appendix-nm, appendix-ady."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown figure preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
