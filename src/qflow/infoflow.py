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

The BLP scan scores state pairs without evolving them: both models map
rho00 -> p00 P(t) and rho01 -> coh Q(t), so a pair's D(t) is fixed by the
squares of its invariants, x = (p00 - p00')^2 and y = |coh - coh'|^2, and the
shared factors P and Q.  A pair grid is a state list plus two index arrays
(:class:`PairGrid`), and each distinct (x, y) key is scored once, so the
scoring cost follows the number of distinct keys, not of pairs.  Grids with
symmetry gain: the default grid's 372,816 pairs have 59,843 distinct keys,
since rotating both states about z changes neither square.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
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
PAIR_BLOCK_SAMPLES = 1 << 14  # pair-samples per scoring chunk: 128 KiB per D block


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
    n_distinct: int  # distinct (x, y) pair keys scored


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


class PairGrid(Sequence):
    """A sequence of (rho1, rho2) pairs held as a state list and two index arrays.

    Pair k is ``(states[first[k]], states[second[k]])``; length, indexing
    and iteration behave as on the equivalent list of tuples, and a slice
    is a PairGrid over the same states.
    """

    def __init__(self, states, first, second):
        self.states = tuple(states)
        self.first = np.asarray(first, dtype=np.intp)
        self.second = np.asarray(second, dtype=np.intp)
        if self.first.ndim != 1 or self.first.shape != self.second.shape:
            raise ConfigError(f"pair index arrays must be 1-D of equal length, got "
                              f"shapes {self.first.shape} and {self.second.shape}")
        if self.first.size and (min(self.first.min(), self.second.min()) < 0
                                or max(self.first.max(), self.second.max()) >= len(self.states)):
            raise ConfigError(f"pair indices must lie in [0, {len(self.states)})")

    @classmethod
    def of(cls, pairs) -> PairGrid:
        """``pairs`` itself if it is a PairGrid, else one over its distinct state objects."""
        if isinstance(pairs, PairGrid):
            return pairs
        pairs = list(pairs)
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigError("every entry of a pair grid must be a (rho1, rho2) pair")
        objs = {id(s): s for s in chain.from_iterable(pairs)}
        row = {obj_id: k for k, obj_id in enumerate(objs)}
        idx = np.fromiter(map(row.__getitem__, map(id, chain.from_iterable(pairs))),
                          np.intp, 2 * len(pairs)).reshape(-1, 2)
        return cls(objs.values(), idx[:, 0], idx[:, 1])

    def __len__(self) -> int:
        return self.first.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return PairGrid(self.states, self.first[k], self.second[k])
        return self.states[self.first[k]], self.states[self.second[k]]

    def __iter__(self):
        pick = self.states.__getitem__
        return zip(map(pick, self.first.tolist()), map(pick, self.second.tolist()))


def default_pair_grid() -> PairGrid:
    """All unordered pairs (i < j, row-major) of distinct default grid states."""
    states = default_state_grid()
    return PairGrid(states, *np.triu_indices(len(states), 1))


def _pair_distance(x, y, p_sq, q_sq) -> np.ndarray:
    """D = sqrt(x P^2 + y |Q|^2) of pair keys (rows) at samples (columns).

    With x = dp00^2 and y = |dcoh|^2 it is half the norm of the pair's Bloch
    difference (2 Re(dcoh Q), -2 Im(dcoh Q), 2 dp00 P); dp00 from the
    populations keeps the digits that z - z' rounds away.
    """
    dist = np.multiply.outer(x, p_sq)
    dist += np.multiply.outer(y, q_sq)
    return np.sqrt(dist, out=dist)


def blp_measure(model, grid=None, t_end: float | None = None,
                times: np.ndarray | None = None) -> BlpResult:
    """Maximise total backflow over a grid of initial-state pairs.

    Every pair is scored by the sampled positive increments of
    D(rho1(t), rho2(t)) with both states evolving; the best pair (the
    lowest grid index among ties) is then re-evaluated with bisected run
    boundaries.  With the pair (rho1, steady state) this reduces to
    flows(rho1, ...).N because the steady state is dynamically invariant.

    ``grid`` is a :class:`PairGrid` (the default grid is one) or any
    sequence of pairs, which is indexed by state identity first.  A pair's
    score depends only on its key x + iy (x = dp00^2, y = |dcoh|^2), so each
    distinct key is scored once by :func:`_pair_distance`, in chunks sized
    for L2 cache, and the best pair is the first in grid order whose key
    scores highest.  Keys are compared as exact floats, so every score
    equals the pair's own.  The cost follows the distinct keys
    (``n_distinct``): a grid closed under rotations about z repeats keys,
    one without repeats pays a sort for nothing.  A NaN score (only
    non-finite factors give one) wins, and re-evaluating raises.
    """
    if t_end is None:
        raise ConfigError("blp_measure requires an explicit t_end")
    grid = default_pair_grid() if grid is None else PairGrid.of(grid)
    if not len(grid):
        raise ConfigError("blp_measure requires a non-empty pair grid")
    if times is None:
        times = sample_times(model, t_end)
    times = np.asarray(times, dtype=float)

    mats = np.array([s.matrix for s in grid.states])
    p00, coh = mats[:, 0, 0].real, mats[:, 0, 1]
    dp00 = p00[grid.first] - p00[grid.second]
    dcoh = coh[grid.first] - coh[grid.second]
    # finite states give finite or infinite keys, never NaN, so a sort
    # orders every key; np.unique's hash table costs four sorts on keys that
    # rarely repeat
    keys = np.empty(len(grid), dtype=complex)
    keys.real = dp00 * dp00
    keys.imag = dcoh.real * dcoh.real + dcoh.imag * dcoh.imag
    del dp00, dcoh
    ordered = np.sort(keys)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    del ordered
    P, Q = model.factors(times)
    p_sq, q_sq = P * P, Q.real * Q.real + Q.imag * Q.imag

    chunk = max(1, PAIR_BLOCK_SAMPLES // times.size)
    distinct_scores = np.empty(distinct.size, dtype=float)
    for lo in range(0, distinct.size, chunk):
        block = distinct[lo:lo + chunk]
        dist = _pair_distance(block.real, block.imag, p_sq, q_sq)
        inc = np.diff(dist, axis=-1)
        np.maximum(inc, 0.0, out=inc)  # NaN stays NaN and wins the argmax
        np.sum(inc, axis=-1, out=distinct_scores[lo:lo + chunk])

    # the best pair is the first in grid order whose key scores highest
    top = distinct_scores[np.argmax(distinct_scores)]  # a NaN score wins
    winners = distinct[(distinct_scores == top) | np.isnan(distinct_scores)]
    best = int(np.argmax(np.isin(keys, winners)))
    ledger = pair_flows(*grid[best], model, t_end, times)
    return BlpResult(
        value=ledger.N_total,
        argmax_pair=grid[best],
        argmax_index=best,
        n_pairs=len(grid),
        t_end=float(t_end),
        n_samples=int(times.size),
        n_distinct=int(distinct.size),
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
