"""Trace-distance rate, forward/backward flow cumulants, and the BLP scan.

The trace distance D(t) between an evolving state and a reference state is
split into monotone runs.  Increments over increasing runs accumulate into
the backward flow N(t), magnitudes of decrements into the forward flow
M(t), so that D(t) = D(0) + N(t) - M(t) holds along the whole trajectory
(up to segments whose net change is below a 1e-13 floor, which are assigned
to neither side).

Run boundaries are located by bracketing sign changes of sigma = dD/dt on a
dense sampling grid and bisecting to 1e-10 relative time accuracy; sigma is
evaluated from the models' analytic state derivatives.  A bracket joins two
grid samples of sigma that are nonzero and of opposite sign, so bisection
starts from the grid's own values.  All brackets of a ledger are bisected
together, one vectorised sigma evaluation per round, and the accumulation
evaluates D only at the new boundary knots, reusing the grid values.  The
ledger's meta records the bracket count and the bisection rounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .channels import PositivityReport, TimeLocalParams, positivity_check, sample_times
from .errors import ConfigError, NumericalError
from .qstate import (DensityMatrix, InitialStateSpec, PolarBloch, bloch_array, bloch_dot,
                     bloch_trace_distance, density_from_bloch)

DELTA_FLOOR = 1e-13
SIGMA_NOISE_REL = 1e-9
BISECT_REL_TOL = 1e-10
PAIR_BLOCK_SAMPLES = 1 << 14  # pair-samples per scoring chunk: 384 KiB per Bloch block


@dataclass(frozen=True)
class FlowSegment:
    """One maximal monotone run of D(t)."""

    t_lo: float
    t_hi: float
    direction: int  # +1 backward flow, -1 forward flow, 0 plateau
    delta: float


@dataclass(frozen=True)
class FlowLedger:
    """Time series of D, sigma and the flow cumulants against a reference state."""

    standard_state: DensityMatrix
    times: np.ndarray
    D: np.ndarray
    sigma: np.ndarray
    N: np.ndarray
    M: np.ndarray
    segments: tuple[FlowSegment, ...]
    model: str
    positivity: PositivityReport | None = None
    meta: dict = field(default_factory=dict)

    @property
    def N_total(self) -> float:
        return float(self.N[-1])

    @property
    def M_total(self) -> float:
        return float(self.M[-1])

    def identity_residual(self) -> float:
        """max_t |D(t) - D(0) - N(t) + M(t)|; small by construction."""
        return float(np.max(np.abs(self.D - self.D[0] - self.N + self.M)))


@dataclass(frozen=True)
class BlpResult:
    """Grid-heuristic estimate of the pair-maximised backflow."""

    value: float
    argmax_pair: tuple[DensityMatrix, DensityMatrix]
    argmax_index: int
    n_pairs: int
    t_end: float
    n_samples: int


def _d_sigma_arrays(model, rho1, rho2, times, evolve_reference: bool):
    """D, sigma = dD/dt and the Bloch vectors of rho1 at ``times``.

    The z-component of the Bloch difference is 2 Re(rho00 - rho00'), not
    z - z': the states store rho11 = 1 - rho00, so z keeps no digit of a
    population below 2^-54.
    """
    s1 = model.states(rho1, times)
    s2 = model.states(rho2, times) if evolve_reference else rho2.matrix
    bloch = bloch_array(s1)
    diff = bloch - bloch_array(s2)
    diff[..., 2] = 2.0 * (s1[..., 0, 0] - s2[..., 0, 0]).real
    del s1, s2  # free the matrices before the derivatives are built
    ddiff = model.bloch_dot_series(rho1, times)
    if evolve_reference:
        ddiff -= model.bloch_dot_series(rho2, times)
    dist = bloch_trace_distance(diff, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = np.where(dist > 0.0, bloch_dot(diff, ddiff) / (4.0 * dist), 0.0)
    return dist, sig, bloch


def sigma(t: float, model, rho0: DensityMatrix,
          standard_state: DensityMatrix | None = None) -> float:
    """Instantaneous rate dD/dt from the model's analytic state derivative.

    Positive values signal backward flow.
    """
    ref = model.steady_state() if standard_state is None else standard_state
    return float(_d_sigma_arrays(model, rho0, ref, float(t), evolve_reference=False)[1])


def _bisect_all(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray, xtol: float):
    """Bisect all brackets [a_i, b_i] of the vectorised f together.

    ``fa`` is f at the left ends; f at the two ends of a bracket must be
    nonzero and of opposite sign.  A midpoint where f is exactly 0 is the
    root; the rest halve while b - a > xtol.  Returns (roots, rounds).
    """
    a, b, fa = a.copy(), b.copy(), fa.copy()
    roots = 0.5 * (a + b)
    live = np.flatnonzero(b - a > xtol)
    rounds = 0
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = f(m)
        rounds += 1
        left = (fm < 0.0) == (fa[live] < 0.0)
        a[live[left]], fa[live[left]] = m[left], fm[left]
        b[live[~left]] = m[~left]
        roots[live] = np.where(fm == 0.0, m, 0.5 * (a[live] + b[live]))
        live = live[(fm != 0.0) & (b[live] - a[live] > xtol)]
    return roots, rounds


def _locate_boundaries(times, dist, sig, sigma_at, t_end: float):
    """Run boundaries of D, and (brackets, bisection rounds)."""
    d_span = float(np.max(dist) - np.min(dist))
    if d_span <= 1e-12 * max(1.0, float(np.max(dist))):
        return np.empty(0), (0, 0)  # D is constant: no flow in either direction
    mag = np.abs(sig)
    big = mag >= SIGMA_NOISE_REL * float(np.max(mag))  # above the noise floor
    zero, neg = sig == 0.0, sig < 0.0
    # exact grid zeros, and sign changes between nonzero neighbours; either
    # needs a neighbour above the floor
    zeros = 1 + np.flatnonzero(zero[1:-1] & (big[:-2] | big[2:]))
    pairs = np.flatnonzero(~zero[:-1] & ~zero[1:] & (neg[:-1] != neg[1:]) & (big[:-1] | big[1:]))
    roots, rounds = _bisect_all(sigma_at, times[pairs], times[pairs + 1], sig[pairs],
                                BISECT_REL_TOL * t_end)
    return np.unique(np.concatenate([times[zeros], roots])), (int(pairs.size), rounds)


def _accumulate(times, dist, bounds, dist_at, t_end: float):
    """Split [0, t_end] at the boundaries and telescope D over each run.

    D is evaluated only at the boundaries; the grid values are reused.
    """
    d_bounds = dist_at(bounds) if bounds.size else bounds
    knots, first = np.unique(np.concatenate([times, bounds]), return_index=True)
    d_knots = np.concatenate([dist, d_bounds])[first]
    edges = np.concatenate([[0.0], bounds, [t_end]])
    edge_idx = np.searchsorted(knots, edges)
    net = d_knots[edge_idx[1:]] - d_knots[edge_idx[:-1]]
    floor = DELTA_FLOOR * max(1.0, float(np.max(d_knots)))
    cls = np.where(net > floor, 1, np.where(net < -floor, -1, 0))

    mids = 0.5 * (knots[:-1] + knots[1:])
    seg_of_interval = np.searchsorted(bounds, mids)
    interval_cls = cls[seg_of_interval]
    dd = np.diff(d_knots)
    n_cum = np.concatenate([[0.0], np.cumsum(np.where(interval_cls > 0, dd, 0.0))])
    m_cum = np.concatenate([[0.0], np.cumsum(np.where(interval_cls < 0, -dd, 0.0))])

    at = np.searchsorted(knots, times)
    segments = tuple(
        FlowSegment(float(edges[s]), float(edges[s + 1]), int(cls[s]), float(net[s]))
        for s in range(cls.size)
    )
    return segments, d_knots[at], n_cum[at], m_cum[at]


def _flow_ledger(model, rho1, rho2, t_end, times, evolve_reference: bool) -> FlowLedger:
    if times is None:
        times = sample_times(model, t_end)
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or abs(times[-1] - t_end) > 1e-9 * max(t_end, 1.0):
        raise ConfigError("flow sampling grid must span [0, t_end]")
    dist, sig, bloch = _d_sigma_arrays(model, rho1, rho2, times, evolve_reference)
    bad = np.flatnonzero(~np.isfinite(dist))
    if bad.size:
        raise NumericalError(f"trace distance is not finite at t = {times[bad[0]]:.6g}")
    positivity = positivity_check(times, bloch)

    def sigma_at(ts: np.ndarray) -> np.ndarray:
        return _d_sigma_arrays(model, rho1, rho2, ts, evolve_reference)[1]

    def dist_at(ts: np.ndarray) -> np.ndarray:
        return _d_sigma_arrays(model, rho1, rho2, ts, evolve_reference)[0]

    bounds, (brackets, rounds) = _locate_boundaries(times, dist, sig, sigma_at, t_end)
    segments, d_s, n_s, m_s = _accumulate(times, dist, bounds, dist_at, t_end)
    return FlowLedger(
        standard_state=rho2,
        times=times,
        D=d_s,
        sigma=sig,
        N=n_s,
        M=m_s,
        segments=segments,
        model=model.tag,
        positivity=positivity,
        meta={"t_end": float(t_end), "evolve_reference": evolve_reference,
              "brackets": brackets, "bisect_rounds": rounds},
    )


def flows(rho0: DensityMatrix, model, t_end: float,
          standard_state: DensityMatrix | None = None,
          times: np.ndarray | None = None) -> FlowLedger:
    """Flow cumulants of one state against a fixed reference state.

    The reference defaults to the model's steady state, which is invariant
    under both dynamics, so this is the two-state flow with the second
    state pinned.
    """
    ref = model.steady_state() if standard_state is None else standard_state
    return _flow_ledger(model, rho0, ref, t_end, times, evolve_reference=False)


def pair_flows(rho1: DensityMatrix, rho2: DensityMatrix, model, t_end: float,
               times: np.ndarray | None = None) -> FlowLedger:
    """Flow cumulants of D(rho1(t), rho2(t)) with both states evolving."""
    return _flow_ledger(model, rho1, rho2, t_end, times, evolve_reference=True)


def default_state_grid(n_theta: int = 12, n_phi: int = 24,
                       radii: tuple[float, ...] = (1.0 / 3.0, 2.0 / 3.0, 1.0)
                       ) -> list[DensityMatrix]:
    """Uniform Bloch-ball grid used by the pair-maximisation heuristic."""
    states = []
    for r in radii:
        for j in range(n_theta):
            theta = math.pi * (j + 0.5) / n_theta
            for k in range(n_phi):
                phi = 2.0 * math.pi * k / n_phi
                states.append(density_from_bloch(PolarBloch(r, theta, phi).to_bloch()))
    return states


def default_pair_grid() -> list[tuple[DensityMatrix, DensityMatrix]]:
    """All unordered pairs of distinct default grid states (can be large)."""
    states = default_state_grid()
    return [(states[i], states[j]) for i in range(len(states))
            for j in range(i + 1, len(states))]


def blp_measure(model, grid=None, t_end: float | None = None,
                times: np.ndarray | None = None) -> BlpResult:
    """Maximise total backflow over a grid of initial-state pairs.

    Every pair is scored by the sampled positive increments of
    D(rho1(t), rho2(t)) with both states evolving; the best pair (the
    lowest grid index among ties) is then re-evaluated with bisected run
    boundaries.  With the pair (rho1, steady state) this reduces to
    flows(rho1, ...).N because the steady state is dynamically invariant.

    Each distinct state is evolved once: state objects are deduplicated by
    identity, then equal matrices by value.  Pairs are scored in chunks of
    ``PAIR_BLOCK_SAMPLES // n_samples`` pairs, sized to stay in L2 cache,
    through the one trace-distance formula :func:`bloch_trace_distance`.
    A non-finite state gives a NaN score, which wins the argmax, so the
    re-evaluation raises :class:`NumericalError`.
    """
    if t_end is None:
        raise ConfigError("blp_measure requires an explicit t_end")
    if grid is None:
        grid = default_pair_grid()
    grid = list(grid)
    if not grid:
        raise ConfigError("blp_measure requires a non-empty pair grid")
    if times is None:
        times = sample_times(model, t_end)
    times = np.asarray(times, dtype=float)

    # Evolve each distinct state once: the grid's state objects are told
    # apart by identity, their matrices by value.
    objs = {id(s): s for s in chain.from_iterable(grid)}
    keys: dict[bytes, int] = {}
    row: dict[int, int] = {}
    blochs: list[np.ndarray] = []
    for obj_id, s in objs.items():
        key = s.matrix.tobytes()
        if key not in keys:
            keys[key] = len(blochs)
            blochs.append(model.bloch_series(s, times))
        row[obj_id] = keys[key]
    pair_idx = np.fromiter(map(row.__getitem__, map(id, chain.from_iterable(grid))),
                           np.intp, 2 * len(grid)).reshape(-1, 2)
    stack = np.stack(blochs)  # (n_states, n_times, 3)

    # Score a chunk of pairs at a time, small enough that the gathered
    # blocks and their temporaries stay in a core's L2 cache.
    chunk = max(1, PAIR_BLOCK_SAMPLES // times.size)
    scores = np.empty(len(grid), dtype=float)
    for lo in range(0, len(grid), chunk):
        sel = pair_idx[lo:lo + chunk]
        dist = bloch_trace_distance(stack.take(sel[:, 0], axis=0), stack.take(sel[:, 1], axis=0))
        inc = np.diff(dist, axis=-1)
        np.maximum(inc, 0.0, out=inc)  # NaN stays NaN and wins the argmax
        np.sum(inc, axis=-1, out=scores[lo:lo + chunk])

    best = int(np.argmax(scores))  # ties resolve to the lowest grid index
    ledger = pair_flows(grid[best][0], grid[best][1], model, t_end, times)
    return BlpResult(
        value=ledger.N_total,
        argmax_pair=grid[best],
        argmax_index=best,
        n_pairs=len(grid),
        t_end=float(t_end),
        n_samples=int(times.size),
    )


def weak_coupling_flows(spec: InitialStateSpec, p: TimeLocalParams, t: float
                        ) -> tuple[float, float]:
    """First-order flows of the time-local model in the coupling.

    Returns (N - M, M) at time t.  N - M is the first-order change of the
    trace distance to the ground state,

        N - M = W^2 (b^2 + 2 a^2) / (8 D0) * dx(t),
        dx(t) = d|c|^2/dW^2 at W = 0 = 2 [(1 - exp(-lam t)) / lam^2 - t / lam],

    with a = 1 + r0 cos(theta0), b = r0 sin(theta0) and D0 the initial
    distance.  M is reported as -(N - M), valid while no backflow occurs
    inside [0, t].
    """
    if p.R > 0.2:
        warnings.warn(
            f"weak-coupling expansion unreliable at W/lambda = {p.R:.3g} > 0.2",
            RuntimeWarning,
            stacklevel=2,
        )
    polar = spec.to_polar()
    r0, theta0 = polar.r, polar.theta
    a = 1.0 + r0 * math.cos(theta0)
    b_sq = (r0 * math.sin(theta0)) ** 2
    d0 = float(bloch_trace_distance(spec.to_bloch().as_array(),
                                    DensityMatrix.ground().bloch().as_array()))
    if d0 < 1e-12:  # starting at the standard state: no flow at any order
        return 0.0, 0.0
    lam = p.lam
    dx = 2.0 * ((1.0 - math.exp(-lam * t)) / lam**2 - t / lam)
    nm = p.W * p.W * (b_sq + 2.0 * a * a) / (8.0 * d0) * dx
    return nm, -nm
