"""Mixed-state geometric phases over one or more quasi-periods.

The general mixed-state phase is

    Phi = Arg sum_i sqrt(eps_i(0) eps_i(T)) <psi_i(0)|psi_i(T)>
              exp(-int_0^T <psi_i|d psi_i/dt> dt)

evaluated on a sampled trajectory.  The parallel-transport factor is
accumulated as the discrete product of normalised successive overlaps,
which is exactly gauge covariant at any finite step; halving the step is
the convergence criterion.  Phases are reported both as the continuously
accumulated (unwrapped) value and as the principal value in (-pi, pi]; a
[0, 2 pi) representative is available for plotting conventions.

Four routes to the same physics live here:

* :func:`gp_mixed`       - the general discrete formula on a trajectory
* :func:`gp_pure`        - adaptive quadrature of the pure-state closed form
* :func:`gp_flow_form`   - the same integral driven through the flow ledger
* :func:`gp_perturbative`- first order in W^2 for the time-local model

The flow form and ``analysis.integrand_A_from_model`` share
:func:`phase_integrand`; :func:`gp_pure` keeps its own integrand in |c|^2 as
the independent reference the other routes are checked against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad, simpson

from . import channels
from .channels import TimeLocalModel, TimeLocalParams, Trajectory
from .errors import ConfigError, DegenerateStateError, NumericalError
from .infoflow import FlowLedger
from .qstate import (
    DEGENERACY_EPS,
    DensityMatrix,
    InitialStateSpec,
    bloch_array,
    eigenbasis,
    initial_state,
)

WEIGHT_FLOOR = 1e-14
OVERLAP_FLOOR = 0.1
# gp_mixed_auto's ladder: 2000 intervals per quasi-period, doubled at most 7 times
LADDER_INTERVALS = 2000
MAX_DOUBLINGS = 7


class PhaseUndefinedError(NumericalError):
    """The branch sum vanished; Arg is undefined."""


def principal_value(phase: float) -> float:
    """Map a phase to the canonical representative in (-pi, pi]."""
    p = math.remainder(phase, 2.0 * math.pi)
    if p <= -math.pi:
        p = math.pi
    return p


def figure_value(phase: float) -> float:
    """Representative in [0, 2 pi), the branch used for plotted datasets."""
    return principal_value(phase) % (2.0 * math.pi)


def circle_distance(a: float, b: float) -> float:
    """Distance between two phases on the circle."""
    return abs(math.remainder(a - b, 2.0 * math.pi))


@dataclass(frozen=True)
class BranchData:
    """Eigenvalue series and sampled eigenvector curve of one spectral branch."""

    label: str
    eps: np.ndarray      # (n,)
    vectors: np.ndarray  # (n, 2) complex


@dataclass(frozen=True)
class PhaseResult:
    """Geometric phase plus the per-branch diagnostics behind it."""

    phase: float       # principal value in (-pi, pi]
    phase_raw: float   # continuously accumulated along the trajectory
    connection: dict
    overlaps: dict
    weights: dict
    n_samples: int
    step_change: float
    converged: bool
    mode: str
    # the branch curves behind the phase, which the next rung of a doubling
    # ladder reuses at its even samples; empty on gp_mixed_auto's result
    branches: tuple[BranchData, ...] = field(default=(), compare=False, repr=False)

    @property
    def phase_figure(self) -> float:
        return figure_value(self.phase)


def branch_data(traj: Trajectory, mode: str = "literal",
                coarse: tuple[BranchData, ...] | None = None) -> tuple[BranchData, BranchData]:
    """Eigen-branch curves of a sampled trajectory by :func:`qflow.qstate.eigenbasis`.

    ``"spectral"`` reads the eigenbasis off the matrices; ``"literal"`` uses
    the fixed azimuth omega0 t + phi0 recorded in the trajectory metadata.
    A sample with a NaN state raises :class:`NumericalError`.

    ``coarse``, the branches of ``traj``'s even samples, limits the work to
    the odd samples, which are interleaved with them.  The eigenbasis is
    elementwise in the samples, so the curves equal those of the whole
    trajectory bit for bit.
    """
    times, states = traj.times, traj.states
    if coarse is not None:
        if len(coarse) != 2 or any(2 * br.eps.size - 1 != times.size for br in coarse):
            raise ConfigError(f"coarse branches do not fit a {times.size}-sample trajectory")
        times, states = times[1::2], states[1::2]
    azimuth = None
    if mode == "literal":
        try:
            omega0 = traj.meta["omega0"]
        except KeyError:
            raise ConfigError("literal mode requires omega0 in the trajectory metadata")
        azimuth = omega0 * times + traj.meta.get("phi0", 0.0)
    eps_plus, eps_minus, _, _, v_plus, v_minus = eigenbasis(bloch_array(states), mode, azimuth)
    gap = eps_plus - eps_minus  # |r|
    k_min = int(np.argmin(gap))  # the first NaN, if there is one
    if not gap[k_min] >= DEGENERACY_EPS:
        if np.isnan(gap[k_min]):
            k_bad = int(np.flatnonzero(~np.isfinite(gap))[0])
            raise NumericalError(f"state is not finite at t = {times[k_bad]:.6g}")
        raise DegenerateStateError(
            f"eigenbasis undefined: |r| = {gap[k_min]:.3e} at t = {times[k_min]:.6g}"
        )
    if coarse is None:
        return BranchData("plus", eps_plus, v_plus), BranchData("minus", eps_minus, v_minus)
    return _interleave(coarse[0], eps_plus, v_plus), _interleave(coarse[1], eps_minus, v_minus)


def _interleave(coarse: BranchData, eps: np.ndarray, vectors: np.ndarray) -> BranchData:
    """The branch with ``coarse`` at the even samples and (eps, vectors) at the odd ones."""
    fine_eps = np.empty(2 * coarse.eps.size - 1)
    fine_eps[::2] = coarse.eps
    fine_eps[1::2] = eps
    fine_vectors = np.empty((fine_eps.size, 2), dtype=complex)
    fine_vectors[::2] = coarse.vectors
    fine_vectors[1::2] = vectors
    return BranchData(coarse.label, fine_eps, fine_vectors)


def assemble_phase(times: np.ndarray, branches: tuple[BranchData, ...]):
    """Gauge-covariant evaluation of the branch-sum phase.

    Returns (raw, principal, details) where ``raw`` is the unwrapped Arg of
    the partial sums anchored at 0 for t = 0.
    """
    total = np.zeros(times.size, dtype=complex)
    connection: dict = {}
    overlaps: dict = {}
    weights: dict = {}
    for br in branches:
        w_end = math.sqrt(abs(br.eps[0] * br.eps[-1]))
        weights[br.label] = w_end
        if w_end < WEIGHT_FLOOR:
            connection[br.label] = math.nan
            overlaps[br.label] = complex(math.nan, math.nan)
            continue
        v0, v1 = br.vectors[:, 0], br.vectors[:, 1]
        steps = np.conj(v0[:-1]) * v0[1:] + np.conj(v1[:-1]) * v1[1:]
        mags = np.abs(steps)
        k_bad = int(np.argmin(mags))
        if mags[k_bad] < OVERLAP_FLOOR:
            raise DegenerateStateError(
                "eigenbasis discontinuity (near degeneracy crossing) between "
                f"t = {times[k_bad]:.6g} and t = {times[k_bad + 1]:.6g}"
            )
        conn = np.concatenate([[0.0], np.cumsum(np.angle(steps))])
        endpoint = np.conj(v0[0]) * v0 + np.conj(v1[0]) * v1
        w = np.sqrt(np.abs(br.eps[0] * br.eps))
        total += w * endpoint * np.exp(-1j * conn)
        connection[br.label] = float(conn[-1])
        overlaps[br.label] = complex(endpoint[-1])
    if abs(total[-1]) < 1e-12:
        raise PhaseUndefinedError("branch sum has vanishing magnitude; Arg undefined")
    raw = _unwrapped_change(np.angle(total))
    return raw, principal_value(raw), {
        "connection": connection,
        "overlaps": overlaps,
        "weights": weights,
    }


def _unwrapped_change(p: np.ndarray) -> float:
    """``np.unwrap(p)[-1] - p[0]`` of a 1-D series, bit for bit.

    np.unwrap corrects only the increments with |dp| >= pi (and NaN ones) and
    adds +0.0 elsewhere, which changes no partial sum of its cumsum.  So the
    corrections of those increments alone, by numpy's mod and +-pi boundary
    rule and summed in the same order, give the same endpoint.
    """
    if p.size < 2:
        return float(p[-1] - p[0])
    d = np.diff(p)
    jumps = d[~(np.abs(d) < math.pi)]
    period, low = 2.0 * math.pi, -math.pi
    dmod = np.mod(jumps - low, period) + low
    dmod[(dmod == low) & (jumps > 0)] = math.pi
    correction = np.cumsum(dmod - jumps)[-1] if jumps.size else 0.0
    return float(p[-1] + correction - p[0])


def gp_mixed(traj: Trajectory, mode: str = "literal", T: float | None = None,
             tol: float = 1e-6, coarse: PhaseResult | None = None) -> PhaseResult:
    """Mixed-state geometric phase of a sampled trajectory.

    The trajectory must span [0, T] and stay away from the Bloch-ball
    center.  Convergence is judged against the phase on every second sample;
    use :func:`gp_mixed_auto` to double the sampling until the criterion
    holds.

    ``coarse`` is this function's result, in the same mode, on the even
    samples of ``traj`` (the previous rung of a doubling ladder).  Its branch
    curves are reused at those samples and its phase is the half-grid phase,
    so only the odd samples are decomposed and the phase is assembled once;
    both equal what recomputing them gives, bit for bit.
    """
    times = traj.times
    if T is not None and abs(times[-1] - T) > 1e-9 * max(abs(T), 1.0):
        raise ConfigError(f"trajectory spans [0, {times[-1]}], expected T = {T}")
    if coarse is not None and coarse.mode != mode:
        raise ConfigError(f"coarse result is in {coarse.mode} mode, not {mode}")
    branches = branch_data(traj, mode, None if coarse is None else coarse.branches)
    raw, principal, details = assemble_phase(times, branches)

    step_change = math.nan
    if times.size >= 5 and (times.size - 1) % 2 == 0:
        if coarse is None:
            half = tuple(
                BranchData(b.label, b.eps[::2], b.vectors[::2]) for b in branches
            )
            raw_half, _, _ = assemble_phase(times[::2], half)
        else:
            raw_half = coarse.phase_raw
        step_change = circle_distance(raw, raw_half)
    return PhaseResult(
        phase=principal,
        phase_raw=raw,
        connection=details["connection"],
        overlaps=details["overlaps"],
        weights=details["weights"],
        n_samples=int(times.size),
        step_change=step_change,
        converged=bool(step_change < tol) if math.isfinite(step_change) else False,
        mode=mode,
        branches=branches,
    )


def gp_mixed_auto(model, rho0: DensityMatrix, T: float, mode: str = "literal",
                  tol: float = 1e-6) -> PhaseResult:
    """Evaluate gp_mixed with sampling doubled until the step test passes.

    Each doubling evaluates the model only at the new midpoints and keeps
    the previous rung's states at the even samples.  The states are
    elementwise in t and ``linspace(0, T, 2 m + 1)[::2]`` is
    ``linspace(0, T, m + 1)`` bit for bit, so every rung is the trajectory
    that ``model.trajectory`` would build on its grid.  From the second rung
    on, gp_mixed also takes the previous rung's result as ``coarse``: it
    decomposes only the midpoints and reads the half-grid phase instead of
    assembling it again.  The returned result carries no branch curves.

    The grids depend only on T and the model, so the states of one sweep
    row share the model's propagator evaluation per grid (see
    ``channels.GRID_MEMO_SLOTS``).
    """
    periods = max(1, int(round(T * model.omega0 / (2.0 * math.pi))))
    traj = model.trajectory(rho0, np.linspace(0.0, T, LADDER_INTERVALS * periods + 1))
    result = None
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:
            fine = np.linspace(0.0, T, 2 * len(traj) - 1)
            states = np.empty((fine.size, 2, 2), dtype=complex)
            states[::2] = traj.states
            states[1::2] = model.states(rho0, fine[1::2])
            traj = Trajectory(fine, states, traj.model, traj.meta)
        result = gp_mixed(traj, mode=mode, T=T, tol=tol, coarse=result)
        if result.converged:
            return replace(result, branches=())
    warnings.warn(
        f"phase not converged to {tol} after {MAX_DOUBLINGS} doublings "
        f"(last change {result.step_change:.3e})",
        RuntimeWarning,
        stacklevel=2,
    )
    return replace(result, branches=())


def gp_closed(theta0: float) -> float:
    """Closed-system phase over one quasi-period: -pi (1 + cos theta0)."""
    if not -1e-12 <= theta0 <= math.pi + 1e-12:
        raise ConfigError(f"theta0 = {theta0} outside [0, pi]")
    return -math.pi * (1.0 + math.cos(theta0))


def _pure_integrand_factory(spec: InitialStateSpec, p: TimeLocalParams):
    polar = spec.to_polar()
    a = 1.0 + polar.r * math.cos(polar.theta)
    b_sq = (polar.r * math.sin(polar.theta)) ** 2

    def integrand(t: float) -> float:
        x = float(channels.abs_c_squared(t, p))
        r_z = a * x - 1.0
        r = math.sqrt(r_z * r_z + b_sq * x)
        if r < 1e-300:
            return 0.5 * p.omega0
        return 0.5 * p.omega0 * (1.0 + r_z / r)

    return integrand


def gp_pure(spec: InitialStateSpec, p: TimeLocalParams, n: int = 1) -> float:
    """Pure-state phase -int_0^T omega0 cos^2(theta(t)/2) dt, T = 2 n pi / omega0.

    Adaptive quadrature to 1e-8 on the closed-form polar angle of the
    time-local solution.  Requires z = 1.
    """
    if spec.z < 1.0 - 1e-12:
        raise ConfigError("gp_pure requires a pure initial state (z = 1)")
    if n < 1:
        raise ConfigError("n must be a positive integer")
    T = 2.0 * math.pi * n / p.omega0
    integrand = _pure_integrand_factory(spec, p)
    res = quad(integrand, 0.0, T, epsabs=1e-8, epsrel=1e-10, limit=800,
               full_output=True)
    value, abserr = res[0], res[1]
    if abserr > 1e-6:
        warnings.warn(f"quadrature error estimate {abserr:.2e} above 1e-6",
                      RuntimeWarning, stacklevel=2)
    return -float(value)


def phase_integrand(d, r_z, omega0: float):
    """Phase integrand omega0 [1/2 + r_z / (2 sqrt(4 D^2 - 2 r_z - 1))], elementwise.

    D is the trace distance to the ground state.  The radicand equals |r|^2:
    below -1e-10 D and r_z are not one state's (:class:`NumericalError`),
    below 1e-12 r -> 0 (:class:`DegenerateStateError`).
    """
    radicand = 4.0 * d * d - 2.0 * r_z - 1.0
    low = float(np.min(radicand))
    if low < -1e-10:
        raise NumericalError(f"negative phase-integrand radicand {low:.3e}")
    if low < 1e-12:
        raise DegenerateStateError(f"phase integrand degenerate (r -> 0): radicand {low:.3e}")
    return omega0 * (0.5 + r_z / (2.0 * np.sqrt(radicand)))


def gp_flow_form(spec: InitialStateSpec, p: TimeLocalParams, n: int,
                 ledger: FlowLedger) -> float:
    """Pure-state phase driven through the flow ledger; must match :func:`gp_pure`.

    :func:`phase_integrand` of D(0) + N(t) - M(t) and the closed-form r_z(t).
    A negative radicand means a ledger of another trajectory, or the identity
    residual of a right one, hence a :class:`NumericalError`.
    """
    T = 2.0 * math.pi * n / p.omega0
    times = ledger.times
    if abs(times[-1] - T) > 1e-9 * max(T, 1.0):
        raise ConfigError(f"ledger spans [0, {times[-1]}], expected T = {T}")
    polar = spec.to_polar()
    a = 1.0 + polar.r * math.cos(polar.theta)
    x = np.asarray(channels.abs_c_squared(times, p))
    r_z = a * x - 1.0
    d_eff = ledger.D[0] + ledger.N - ledger.M
    return -float(simpson(phase_integrand(d_eff, r_z, p.omega0), x=times))


def kappa1(lam: float, T: float) -> float:
    """Bath integral (1 - exp(-lam T)) / lam^2 - T / lam (nonpositive)."""
    return (1.0 - math.exp(-lam * T)) / lam**2 - T / lam


def kappa2(lam: float, T: float) -> float:
    """Running integral of kappa1: T/lam^2 + (exp(-lam T) - 1)/lam^3 - T^2/(2 lam)."""
    return T / lam**2 + (math.exp(-lam * T) - 1.0) / lam**3 - T * T / (2.0 * lam)


@dataclass(frozen=True)
class PerturbativeTerms:
    """First-order phase expansion in W^2 for the time-local model."""

    phi0: float
    kappa1: float
    kappa2: float
    c1: float
    c2: float
    term1: float
    term2: float
    total: float


def gp_perturbative(spec: InitialStateSpec, p: TimeLocalParams, n: int = 1,
                    n_samples: int = 16385) -> PerturbativeTerms:
    """Weak-coupling expansion of the mixed-state phase.

    The zeroth order phi0 is computed numerically from the W = 0
    trajectory.  The first-order term follows from
    differentiating the two-branch Arg with respect to W^2: with
    Delta = -n pi cos(theta0) and Q = cos^2 Delta + r0^2 sin^2 Delta,

        Phi ~ phi0 + W^2 [sin Delta cos Delta * 2 C1 * kappa1
                           - omega0 * r0 C2 * kappa2] / Q,

    where C1 = (r0 + r0 cos^2 theta0 + 2 cos theta0)/4 and
    C2 = (1 + r0 sin^2 theta0 cos theta0 / 2 - cos^2 theta0)/r0 are the
    initial-condition constants of the expansion.
    """
    polar = spec.to_polar()
    r0, theta0 = polar.r, polar.theta
    if r0 < 1e-12:
        raise ConfigError(
            "expansion constants are singular at r0 = 0; use gp_mixed directly"
        )
    T = 2.0 * math.pi * n / p.omega0
    free = TimeLocalModel(TimeLocalParams(0.0, p.lam, p.omega0))
    phi0 = gp_mixed(
        free.trajectory(initial_state(spec), np.linspace(0.0, T, n_samples)),
        mode="literal", T=T,
    ).phase_raw

    cos_t, sin_t = math.cos(theta0), math.sin(theta0)
    k1 = kappa1(p.lam, T)
    k2 = kappa2(p.lam, T)
    c1 = 0.25 * (r0 + r0 * cos_t * cos_t + 2.0 * cos_t)
    c2 = (1.0 + 0.5 * r0 * sin_t * sin_t * cos_t - cos_t * cos_t) / r0
    delta = -n * math.pi * cos_t
    q = math.cos(delta) ** 2 + (r0 * math.sin(delta)) ** 2
    w_sq = p.W * p.W
    term1 = w_sq * math.sin(delta) * math.cos(delta) * 2.0 * c1 * k1 / q
    term2 = -w_sq * p.omega0 * r0 * c2 * k2 / q
    return PerturbativeTerms(
        phi0=phi0, kappa1=k1, kappa2=k2, c1=c1, c2=c2,
        term1=term1, term2=term2, total=phi0 + term1 + term2,
    )
