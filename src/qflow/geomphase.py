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

* :func:`gp_mixed`       - the general discrete formula on a trajectory, which
                           :func:`gp_mixed_auto` evaluates on ever finer grids
* :func:`gp_pure`        - adaptive quadrature of the pure-state closed form
* :func:`gp_flow_form`   - the literal-mode formula in closed form from the
                           envelopes (P, q), for every z and both models
* :func:`gp_perturbative`- first order in W^2 for the time-local model

In ``literal`` mode the branch vectors carry the azimuth omega0 t + phi0, so
with cos(theta) = r_z / |r| and I(t) = int_0^t cos(theta) the connections are
omega0 (t + I) / 2 (psi+) and omega0 (t - I) / 2 (psi-), and the endpoint
overlaps are s0 s_t + c0 c_t e^{i omega0 t} and c0 c_t + s0 s_t e^{i omega0 t}
(s, c = sin, cos(theta / 2)).  The psi+ connection is the integral of
:func:`phase_integrand`, the paper's relation between the phase and the trace
distance D to the ground state, which ``analysis.integrand_A_from_model``
also evaluates; :func:`gp_pure` keeps its own integrand in |c|^2 as the
independent reference the other routes are checked against.
:func:`gp_row` picks the route from the mode for the states of one model:
:func:`gp_flow_form` in literal mode, all states on one stack of rungs,
:func:`gp_mixed_auto` state by state in spectral mode.  Both double their
grid on one ladder (:func:`_doubling_ladder`).  Sweep rows call
:func:`gp_row`, ``qflow gp`` its one-state case :func:`gp_route`.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import channels
from .channels import TimeLocalModel, TimeLocalParams, Trajectory
from .errors import (
    ConfigError,
    DegenerateStateError,
    NumericalError,
    require_finite,
    sole_result,
)
from .qstate import (
    DensityMatrix,
    InitialStateSpec,
    bloch_array,
    eigenbasis,
    initial_state,
    require_nondegenerate,
)

WEIGHT_FLOOR = 1e-14
OVERLAP_FLOOR = 0.1
# phase_integrand's radicand 4 D^2 - 2 r_z - 1 is |r|^2 formed by cancelling
# terms of order one, and a flow ledger's D adds its identity residual: below
# |r| ~ 1e-6 it has no digits left, so the state counts as the ball centre
# there; a radicand below RADICAND_MISMATCH pairs a D and an r_z of two states
RADICAND_FLOOR, RADICAND_MISMATCH = 1e-12, -1e-10
# the doubling ladder: 2000 intervals per quasi-period, doubled at most 7 times
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
    value = principal_value(phase) % (2.0 * math.pi)
    # a tiny negative phase rounds up to 2 pi, which is 0 on the circle
    return 0.0 if value == 2.0 * math.pi else value


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

    @property
    def phase_figure(self) -> float:
        return figure_value(self.phase)


def branch_data(traj: Trajectory, mode: str = "literal") -> tuple[BranchData, BranchData]:
    """Eigen-branch curves of a sampled trajectory by :func:`qflow.qstate.eigenbasis`.

    ``"spectral"`` reads the eigenbasis off the matrices; ``"literal"`` uses
    the fixed azimuth omega0 t + phi0 recorded in the trajectory metadata.
    The samples' |r| must pass :func:`qflow.qstate.require_nondegenerate`.
    """
    times = traj.times
    azimuth = None
    if mode == "literal":
        try:
            omega0 = traj.meta["omega0"]
        except KeyError:
            raise ConfigError("literal mode requires omega0 in the trajectory metadata")
        azimuth = omega0 * times + traj.meta.get("phi0", 0.0)
    r, eps_plus, eps_minus, _, _, v_plus, v_minus = eigenbasis(bloch_array(traj.states), mode,
                                                               azimuth)
    require_nondegenerate(r, times)
    return BranchData("plus", eps_plus, v_plus), BranchData("minus", eps_minus, v_minus)


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
             tol: float = 1e-6) -> PhaseResult:
    """Mixed-state geometric phase of a sampled trajectory.

    The trajectory must span [0, T] and stay away from the Bloch-ball
    center.  Convergence is judged against the phase on every second sample;
    use :func:`gp_mixed_auto` to double the sampling until the criterion
    holds.
    """
    times = traj.times
    if T is not None and abs(times[-1] - T) > 1e-9 * max(abs(T), 1.0):
        raise ConfigError(f"trajectory spans [0, {times[-1]}], expected T = {T}")
    branches = branch_data(traj, mode)
    raw, principal, details = assemble_phase(times, branches)

    step_change = math.nan
    if times.size >= 5 and (times.size - 1) % 2 == 0:
        half = tuple(BranchData(b.label, b.eps[::2], b.vectors[::2]) for b in branches)
        raw_half, _, _ = assemble_phase(times[::2], half)
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
    )


def gp_route(model, rho0: DensityMatrix, T: float, mode: str = "literal",
             tol: float = 1e-6) -> PhaseResult:
    """Mixed-state phase of ``rho0`` over [0, T] by the route of ``mode``.

    The one-state case of :func:`gp_row`; ``qflow gp`` calls this.
    """
    return sole_result(gp_row(model, [rho0], T, mode, tol))


def gp_row(model, rho0s, T: float, mode: str = "literal", tol: float = 1e-6) -> list:
    """Mixed-state phases of the states ``rho0s`` of one model, by the route of ``mode``.

    ``literal`` takes the closed form, every state on one stack of ladder
    rungs (:func:`gp_flow_form`'s row); any other mode the sampled ladder
    :func:`gp_mixed_auto`, state by state (an unknown mode raises
    :class:`ConfigError` there).  Each entry is the state's
    :class:`PhaseResult` or the :class:`NumericalError` its phase raised,
    the same as the one-state call's.  This is the one place that reads
    ``mode``; sweep rows call it.
    """
    if mode == "literal":
        return _flow_form_row(model, rho0s, T, tol)
    out: list = []
    for rho0 in rho0s:
        try:
            out.append(gp_mixed_auto(model, rho0, T, mode=mode, tol=tol))
        except NumericalError as exc:
            out.append(exc)
    return out


def _doubling_ladder(T: float, omega0: float, tol: float, rung, count: int) -> list:
    """``rung(times, live)`` on ever finer uniform grids of [0, T] for ``count`` states.

    ``rung`` returns, for each state index in ``live``, its
    :class:`PhaseResult` on ``times`` or the :class:`NumericalError` its
    rung raised.  Rung 0 has LADDER_INTERVALS intervals per quasi-period;
    each doubling halves the step, at most MAX_DOUBLINGS times.  A state
    leaves at its first converged rung or its first error.  A state whose
    last rung misses ``tol`` keeps that rung after a RuntimeWarning issued
    at the phase route's caller, the first frame outside this module.
    A horizon or tolerance that is not finite and positive raises
    :class:`ConfigError` before any rung.
    """
    require_finite("phase", T=T, tol=tol)
    if T <= 0.0:
        raise ConfigError(f"phase horizon T={T} must be > 0")
    if tol <= 0.0:
        raise ConfigError(f"phase tolerance tol={tol} must be > 0")
    periods = max(1, int(round(T * omega0 / (2.0 * math.pi))))
    size = LADDER_INTERVALS * periods + 1
    results: list = [None] * count
    live = list(range(count))
    for _ in range(MAX_DOUBLINGS + 1):
        for k, result in zip(live, rung(np.linspace(0.0, T, size), live)):
            results[k] = result
        live = [k for k in live
                if isinstance(results[k], PhaseResult) and not results[k].converged]
        if not live:
            return results
        size = 2 * size - 1
    level, frame = 1, sys._getframe()
    while frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    for k in live:
        warnings.warn(
            f"phase not converged to {tol} after {MAX_DOUBLINGS} doublings "
            f"(last change {results[k].step_change:.3e})",
            RuntimeWarning,
            stacklevel=level,
        )
    return results


def gp_mixed_auto(model, rho0: DensityMatrix, T: float, mode: str = "literal",
                  tol: float = 1e-6) -> PhaseResult:
    """:func:`gp_mixed` on the doubling ladder's grids until the step test passes.

    Every rung is ``model.trajectory`` on its grid.  gp_mixed's step change
    (against every second sample) is an error estimate only where the phase
    converges as h^2 and each change is about a quarter of the one before
    it (on every fourth sample).  So the reported ``step_change`` is the
    larger of the change and a quarter of the change before, and a rung
    converges when that is below ``tol`` and the change has at least halved
    (or sits at the rounding of the transport sum, n ulps of omega0 T).  Two
    coarse grids near the Bloch-ball center can agree by chance, or change
    by ever more while they miss a crossing, and neither passes.  The change
    before a rung is the previous rung's, since the ladder's grids nest;
    rung 0 evaluates it on every second sample when its own test passes,
    and fails where that coarser grid raises.
    """
    before = math.nan  # the previous rung's own step change

    def rung(times: np.ndarray) -> PhaseResult:
        nonlocal before
        result = gp_mixed(model.trajectory(rho0, times), mode=mode, T=T, tol=tol)
        own = result.step_change
        if result.converged and math.isnan(before):  # rung 0
            try:
                before = gp_mixed(model.trajectory(rho0, times[::2]), mode=mode, T=T,
                                  tol=tol).step_change
            except NumericalError:  # every fourth sample does not resolve the path
                before = math.inf
        if not math.isnan(before):
            step = max(own, before / 4.0)
            shrinks = own <= before / 2.0 or own < times.size * math.ulp(model.omega0 * T)
            result = replace(result, step_change=step, converged=bool(step < tol and shrinks))
        before = own
        return result

    return sole_result(_doubling_ladder(T, model.omega0, tol,
                                        lambda times, live: [rung(times)], 1))


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
    from scipy.integrate import quad  # the only scipy use, kept off qflow's import path

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
    below RADICAND_MISMATCH D and r_z are not one state's
    (:class:`NumericalError`), below RADICAND_FLOOR r -> 0
    (:class:`DegenerateStateError`).
    """
    radicand = 4.0 * d * d - 2.0 * r_z - 1.0
    low = float(np.min(radicand))
    if low < RADICAND_MISMATCH:
        raise NumericalError(f"negative phase-integrand radicand {low:.3e}")
    if low < RADICAND_FLOOR:
        raise DegenerateStateError(f"phase integrand degenerate (r -> 0): radicand {low:.3e}")
    return omega0 * (0.5 + r_z / (2.0 * np.sqrt(radicand)))


def gp_flow_form(model, rho0: DensityMatrix, T: float, tol: float = 1e-6) -> PhaseResult:
    """Literal-mode mixed-state phase in closed form from the envelopes (P, q), |Q| = |q|.

    The literal branches are psi+ = (sin(theta/2), cos(theta/2) e^{i phi}) and
    psi- = (-cos(theta/2), sin(theta/2) e^{i phi}) with phi = omega0 t + phi0,
    cos(theta) = r_z / |r|, r_z = 2 p00 P - 1 and |r|^2 = r_z^2 + 4 |coh|^2 q^2.
    So the branch sum needs one ``envelopes`` call and no eigenvectors:

    * connections omega0 (t +- I(t)) / 2 for psi+-, with I = int_0^t r_z / |r|
      (the psi+ one is the integral of :func:`phase_integrand`, whose
      radicand 4 D^2 - 2 r_z - 1 is |r|^2);
    * endpoint overlaps s0 s_t + c0 c_t e^{i omega0 t} (psi+) and
      c0 c_t + s0 s_t e^{i omega0 t} (psi-), with s, c = sin, cos(theta/2);
    * weights sqrt|eps(0) eps(t)|, eps+- = (1 +- |r|) / 2.

    I(T) is Simpson's rule on each grid of the doubling ladder; a trapezoid
    path of the partial sums gives the unwrapped ``phase_raw``.  The step
    test is the same integral on every second sample, with the step before
    it (every fourth sample) divided by Simpson's ratio 16: the grid doubles
    while ``step_change``, the larger of the two, exceeds ``tol`` (at most
    MAX_DOUBLINGS times, then a RuntimeWarning and ``converged`` False).  A
    ``tol`` within a few ulps of omega0 T is below the rounding of the
    connections, so it is never met.  The cell fails where the literal
    ladder's rung does, by the same rule on |r|
    (:func:`qflow.qstate.require_nondegenerate`: a non-finite state or a
    state at the ball centre), a successive overlap below OVERLAP_FLOOR
    (:class:`DegenerateStateError`), a vanishing branch sum
    (:class:`PhaseUndefinedError`).  A sweep row runs its states on one
    stack of rungs (:func:`gp_row`); this is its one-state case.
    """
    return sole_result(_flow_form_row(model, [rho0], T, tol))


def _flow_form_row(model, rho0s, T: float, tol: float) -> list:
    """:func:`gp_flow_form` of every state in ``rho0s``, on one stack of ladder rungs.

    A state enters only through (p00, |coh|); each rung makes one
    ``envelopes`` call for the states that are still on the ladder.
    """
    p00 = np.array([rho0.matrix[0, 0].real for rho0 in rho0s])
    coh = np.array([abs(rho0.matrix[0, 1]) for rho0 in rho0s])
    return _doubling_ladder(T, model.omega0, tol, lambda times, live: _closed_form_rung(
        model, p00[live], coh[live], times, tol), len(rho0s))


def _simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson's rule along the last axis of (rows, samples) ``y``, step ``dx``.

    The arithmetic and its order are ``scipy.integrate.simpson``'s for an odd
    sample count, so the result is bit-identical to it.  An even count, where
    scipy adds an end correction, is a :class:`ConfigError`.
    """
    if y.shape[-1] % 2 == 0:
        raise ConfigError(f"Simpson's rule needs an odd sample count, got {y.shape[-1]}")
    out = np.sum(y[:, 0:-2:2] + 4.0 * y[:, 1:-1:2] + y[:, 2::2], axis=-1)
    out *= dx / 3.0
    return out


def _closed_form_rung(model, p00: np.ndarray, coh: np.ndarray, times: np.ndarray,
                      tol: float) -> list:
    """One rung of :func:`gp_flow_form` for the states (p00, |coh|) on a uniform grid of odd size.

    The arithmetic runs on (states, samples) arrays, elementwise and row by
    row as for one state.  Each row meets :func:`require_nondegenerate` and
    then the overlap floor on every sample and on every second one, the
    one-state rung's order; a state gets the error of the first check it
    fails in place of its result and leaves the stack, so every entry equals
    the one-state rung's.
    """
    omega0, h = model.omega0, times[1] - times[0]
    (pop, q), _ = model.envelopes(times)
    r_z = 2.0 * p00[:, None] * pop - 1.0
    transverse = 2.0 * coh[:, None] * q  # only its square is read
    r = np.sqrt(r_z * r_z + transverse * transverse)
    rows, out = np.arange(p00.size), [None] * p00.size
    for i in rows:
        try:
            require_nondegenerate(r[i], times)
        except NumericalError as exc:
            out[i] = exc
    # a row that failed a check goes on as NaN or inf, and is dropped below
    with np.errstate(all="ignore"):
        # cos^2(theta/2) = (r + r_z) / 2r and sin^2 = (r - r_z) / 2r, the smaller
        # of the two numerators as transverse^2 / (r + |r_z|) so it keeps its digits
        big = r + np.abs(r_z)
        small = transverse * transverse / big
        del transverse  # the stack holds states x samples: free what is done with
        north, two_r = r_z >= 0.0, 2.0 * r
        c = np.where(north, big, small)
        c /= two_r
        s = np.where(north, small, big)
        s /= two_r
        del big, small, north, two_r
        np.sqrt(c, out=c)
        np.sqrt(s, out=s)
        # |<psi(t_k)|psi(t_k+1)>| is the same for both branches; the step test
        # reads every second sample, which must keep the floor too, as on the ladder
        for stride in (1, 2):
            a = s[:, :-stride:stride] * s[:, stride::stride]
            b = c[:, :-stride:stride] * c[:, stride::stride]
            step_sq = a * a + b * b + 2.0 * a * b * math.cos(omega0 * stride * h)
            k_bad = np.argmin(step_sq, axis=1)
            for i in np.flatnonzero(step_sq[rows, k_bad] < OVERLAP_FLOOR * OVERLAP_FLOOR):
                if out[i] is None:
                    k = stride * k_bad[i]
                    out[i] = DegenerateStateError(
                        "eigenbasis discontinuity (near degeneracy crossing) between "
                        f"t = {times[k]:.6g} and t = {times[k + stride]:.6g}")
        del a, b, step_sq
    live = np.flatnonzero([entry is None for entry in out])  # the state of each stack row
    if live.size < rows.size:
        r_z, r, c, s = r_z[live], r[live], c[live], s[live]
    if not live.size:
        return out

    cos_theta = r_z / r
    del r_z
    integrals = [_simpson(cos_theta[:, ::k], k * h) for k in (1, 2, 4)]
    running = np.zeros_like(cos_theta)
    np.cumsum(0.5 * h * (cos_theta[:, :-1] + cos_theta[:, 1:]), axis=1, out=running[:, 1:])
    del cos_theta
    rotation = np.exp(1j * omega0 * times)
    # eps+ = (1 + |r|) / 2 >= 1/2, so psi+ is always kept; psi- is kept where
    # its weight reaches WEIGHT_FLOOR
    eps_ends = {"plus": 0.5 * (1.0 + r[:, [0, -1]]), "minus": 0.5 * (1.0 - r[:, [0, -1]])}
    weights = {lb: [math.sqrt(abs(e0 * e1)) for e0, e1 in eps] for lb, eps in eps_ends.items()}
    minus = np.flatnonzero(np.array(weights["minus"]) >= WEIGHT_FLOOR)

    def branch(sign: float, which, near, far):
        """Endpoint overlaps and partial-sum terms of one branch on the stack rows ``which``.

        The overlap series is weighted and turned in place: each product is
        the one-state rung's, since the factors commute bit for bit.
        """
        term = far[which, :1] * far[which] * rotation
        term += near[which, :1] * near[which]
        end = term[:, -1].copy()
        weight = 0.5 * (1.0 + sign * r[which])
        weight *= weight[:, :1]
        term *= np.sqrt(np.abs(weight, out=weight), out=weight)
        del weight
        turn = np.multiply(-0.5j * omega0, times + sign * running[which])
        term *= np.exp(turn, out=turn)
        return end, term

    ends = {"minus": np.full(live.size, complex(math.nan, math.nan))}
    ends["plus"], partial = branch(1.0, np.s_[:], s, c)
    partial += 0  # the branch sum starts from 0, as Python's sum does: -0.0 becomes +0.0
    if minus.size:
        ends["minus"][minus], term = branch(-1.0, minus, c, s)
        partial[minus] += term
        del term
    del c, s, r, running

    # the connections carry rounding of about ulp(omega0 T), so a step change
    # below a few of those is noise and a tol below them is never met
    resolvable = tol > 4.0 * math.ulp(omega0 * times[-1])
    signs = {"plus": 1.0, "minus": -1.0}
    for i, state in enumerate(live):
        raw_path = _unwrapped_change(np.angle(partial[i]))
        kept = ("plus", "minus") if weights["minus"][i] >= WEIGHT_FLOOR else ("plus",)

        def connection(label: str, integral: float) -> float:
            return 0.5 * omega0 * (times[-1] + signs[label] * integral)

        def end_phase(integral: float) -> float:
            total = sum(weights[lb][i] * ends[lb][i] * cmath.exp(-1j * connection(lb, integral))
                        for lb in kept)
            if abs(total) < 1e-12:
                raise PhaseUndefinedError("branch sum has vanishing magnitude; Arg undefined")
            return cmath.phase(total)

        try:
            # the step test, and the step before it at a sixteenth (Simpson's
            # h^4): an unresolved spike in r_z / |r| near the ball center can
            # make two coarse grids agree by chance, but not three in Simpson's ratio
            phase, half, quarter = (end_phase(integral[i]) for integral in integrals)
        except PhaseUndefinedError as exc:
            out[state] = exc
            continue
        raw = raw_path + math.remainder(phase - raw_path, 2.0 * math.pi)
        step_change = max(circle_distance(phase, half), circle_distance(half, quarter) / 16.0)
        out[state] = PhaseResult(
            phase=principal_value(raw),
            phase_raw=raw,
            connection={lb: connection(lb, integrals[0][i]) if lb in kept else math.nan
                        for lb in signs},
            overlaps={lb: complex(ends[lb][i]) if lb in kept else complex(math.nan, math.nan)
                      for lb in signs},
            weights={lb: weights[lb][i] for lb in signs},
            n_samples=int(times.size),
            step_change=step_change,
            converged=bool(resolvable and step_change < tol),
            mode="literal",
        )
    return out


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
