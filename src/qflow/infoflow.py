"""Trace-distance rate, forward/backward flow cumulants, and the BLP scan.

The trace distance D(t) between an evolving state and a reference state is
split into monotone runs.  Increments over increasing runs accumulate into
the backward flow N(t), magnitudes of decrements into the forward flow
M(t), so that D(t) = D(0) + N(t) - M(t) holds along the whole trajectory
(up to segments whose net change is below a 1e-13 floor, which are assigned
to neither side).

Run boundaries are located by bracketing sign changes of sigma = dD/dt on a
dense sampling grid and bisecting to 1e-10 relative time accuracy.  Both
models map rho00 -> p00 P(t) and rho01 -> coh Q(t), so the difference to the
reference is (a P - b, alpha Q - beta) with constants of the state alone, and
D and sigma come from the factors (P, Q) and their rates (Pdot, Qdot).  A
bracket joins two grid samples of sigma that are nonzero and of opposite
sign, so bisection starts from the grid's own values.  A sweep row's states
share one model: :func:`row_flows` evaluates the factors and rates once on
the grid, takes each state's arithmetic from them in turn, bisects all the
row's brackets together (one ``factors_and_rates`` call per round), and
evaluates D only at the new boundary knots, reusing the grid values.
:func:`ratio_flows` does the same for one state under many models of one
class (a ratio scan): each model keeps its own grid, and the bisection and
the knots run on the stack of the models' parameters.  :func:`flows` and
:func:`pair_flows` are the one-state case.  The ledger's meta records the
bracket count and the bisection rounds.

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
from typing import NamedTuple

import numpy as np

from .channels import PositivityReport, TimeLocalParams, positivity_check, sample_times
from .errors import ConfigError, NumericalError, require_finite, sole_result
from .qstate import (DensityMatrix, InitialStateSpec, PolarBloch, bloch_trace_distance,
                     density_from_bloch)

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


def _constants(rho1: DensityMatrix, rho2: DensityMatrix, evolve_reference: bool):
    """(a, b, alpha, beta) with rho1(t) - rho2(t) = (a P - b, alpha Q - beta) in (rho00, rho01).

    A fixed reference gives (p00, ref00, coh, ref01); an evolving one
    (dp00, 0, dcoh, 0), the pair's differences, which keep the digits that
    two evolved populations would cancel.
    """
    m1, m2 = rho1.matrix, rho2.matrix
    if evolve_reference:
        return m1[0, 0].real - m2[0, 0].real, 0.0, m1[0, 1] - m2[0, 1], 0.0
    return m1[0, 0].real, m2[0, 0].real, m1[0, 1], m2[0, 1]


def _d_sigma(consts, P, Q, rates=None):
    """D, and sigma = dD/dt when ``rates`` = (Pdot, Qdot) is given, from the factors.

    ``consts`` = (a, b, alpha, beta) of :func:`_constants`, scalars or arrays
    that broadcast against the factors.  The Bloch difference is
    2 (Re drho01, Im drho01, drho00) up to the sign of y, and both sums run in
    ``bloch_dot``'s order.
    """
    a, b, alpha, beta = consts
    d01 = alpha * Q - beta
    x, y, z = 2.0 * d01.real, 2.0 * d01.imag, 2.0 * (a * P - b)
    sq = x * x
    sq += 0.0
    sq += y * y
    sq += z * z
    dist = 0.5 * np.sqrt(sq)
    if rates is None:
        return dist, None
    p_dot, q_dot = rates
    v01 = alpha * q_dot
    dot = x * (2.0 * v01.real)
    dot += 0.0
    dot += y * (2.0 * v01.imag)
    dot += z * (2.0 * (a * p_dot))
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = np.where(dist > 0.0, dot / (4.0 * dist), 0.0)
    return dist, sig


def sigma(t: float, model, rho0: DensityMatrix,
          standard_state: DensityMatrix | None = None) -> float:
    """Instantaneous rate dD/dt from the model's analytic factor rates.

    Positive values signal backward flow.
    """
    ref = model.steady_state() if standard_state is None else standard_state
    t = float(t)
    return float(_d_sigma(_constants(rho0, ref, False), *model.factors_and_rates(t))[1])


def _bisect_all(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray, xtol: float):
    """Bisect every bracket [a_i, b_i] of the family f together.

    ``f(ts, which)`` evaluates member ``which[j]`` of the family at ``ts[j]``;
    ``fa`` is f at the left ends, and f at the two ends of a bracket must be
    nonzero and of opposite sign.  A midpoint where f is exactly 0 is the
    root; the rest halve while b - a > xtol.  Returns the roots and the
    midpoint evaluations per bracket; each round makes one call of f.
    """
    a, b, fa = a.copy(), b.copy(), fa.copy()
    roots = 0.5 * (a + b)
    evals = np.zeros(a.size, dtype=int)
    live = np.flatnonzero(b - a > xtol)
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = f(m, live)
        evals[live] += 1
        left = (fm < 0.0) == (fa[live] < 0.0)
        a[live[left]], fa[live[left]] = m[left], fm[left]
        b[live[~left]] = m[~left]
        roots[live] = np.where(fm == 0.0, m, 0.5 * (a[live] + b[live]))
        live = live[(fm != 0.0) & (b[live] - a[live] > xtol)]
    return roots, evals


def _brackets(dist, sig):
    """Grid indices of the exact zeros of sigma and of the left ends of its sign changes.

    Either needs a neighbour at or above the noise floor; a D that is
    constant has neither.
    """
    d_span = float(np.max(dist) - np.min(dist))
    if d_span <= 1e-12 * max(1.0, float(np.max(dist))):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    mag = np.abs(sig)
    big = mag >= SIGMA_NOISE_REL * float(np.max(mag))
    zero, neg = sig == 0.0, sig < 0.0
    zeros = 1 + np.flatnonzero(zero[1:-1] & (big[:-2] | big[2:]))
    pairs = np.flatnonzero(~zero[:-1] & ~zero[1:] & (neg[:-1] != neg[1:]) & (big[:-1] | big[1:]))
    return zeros, pairs


def _accumulate(times, dist, bounds, d_bounds, t_end: float):
    """Split [0, t_end] at the boundaries and telescope D over each run.

    The boundaries are inserted into the sorted grid as knots with their D
    (``d_bounds``); one equal to a grid time keeps the grid's D.
    """
    pos = np.searchsorted(times, bounds)
    new = times[np.minimum(pos, times.size - 1)] != bounds
    knots, d_knots, at = times, dist, slice(None)  # at: the grid samples among the knots
    if new.any():
        pos = pos[new]
        knots = np.insert(times, pos, bounds[new])
        d_knots = np.insert(dist, pos, d_bounds[new])
        at = np.arange(times.size)
        at += np.searchsorted(pos, at, side="right")
    edges = np.concatenate([[0.0], bounds, [t_end]])
    edge_idx = np.searchsorted(knots, edges)
    net = d_knots[edge_idx[1:]] - d_knots[edge_idx[:-1]]
    floor = DELTA_FLOOR * max(1.0, float(np.max(d_knots)))
    cls = np.where(net > floor, 1, np.where(net < -floor, -1, 0))

    interval_cls = np.repeat(cls, np.diff(edge_idx))  # the run of each knot interval
    dd = np.diff(d_knots)
    n_cum = np.concatenate([[0.0], np.cumsum(np.where(interval_cls > 0, dd, 0.0))])
    m_cum = np.concatenate([[0.0], np.cumsum(np.where(interval_cls < 0, -dd, 0.0))])
    segments = tuple(
        FlowSegment(float(edges[s]), float(edges[s + 1]), int(cls[s]), float(net[s]))
        for s in range(cls.size)
    )
    return segments, n_cum[at], m_cum[at]


def _state_bloch(rho: DensityMatrix, P, Q) -> np.ndarray:
    """Bloch vectors (n, 3) of rho(t), as ``bloch_array`` reads the evolved matrices."""
    p00, coh = rho.matrix[0, 0].real, rho.matrix[0, 1] * Q
    out = np.empty(np.shape(P) + (3,))
    out[..., 0] = 2.0 * coh.real
    out[..., 1] = -2.0 * coh.imag
    out[..., 2] = p00 * P - (1.0 - p00 * P)
    return out


class _OnGrid(NamedTuple):
    """One entry of a ledger row on its model's sampling grid."""

    slot: int  # the entry's model in the row's stack of models
    times: np.ndarray
    consts: tuple
    dist: np.ndarray
    sig: np.ndarray
    positivity: PositivityReport
    zeros: np.ndarray  # grid indices of exact zeros of sigma
    pairs: np.ndarray  # left ends of the brackets


def _ledger_row(entries, t_end: float, times) -> list:
    """Flow ledgers of several (model, rho1, rho2, evolve_reference) entries.

    The entries' models are of one class; entries may share a model (a
    sweep row's states) or each carry their own (a ratio scan).  Each model
    is sampled on its own grid (``times``, or its own ``sample_times``) with
    one ``factors_and_rates`` call, which serves every entry of that
    model: an entry's D and sigma follow from its constants alone
    (:func:`_d_sigma`), and no array spans entries and samples.  Then all
    brackets of all entries are bisected together, one ``factors_and_rates``
    call per round, and one ``factors`` call gives D at every
    entry's run boundaries; with several models these calls run on the
    stack of their parameters, picked per bracket and per knot.
    Each entry gets its ledger, or the :class:`NumericalError` it raised (a
    grid above the sample cap fails every entry of its model).
    """
    require_finite("flow horizon", t_end=t_end)
    if times is not None:
        times = np.asarray(times, dtype=float)
        if times[0] != 0.0 or abs(times[-1] - t_end) > 1e-9 * max(t_end, 1.0):
            raise ConfigError("flow sampling grid must span [0, t_end]")
    groups: dict[int, list[int]] = {}  # the entries of each model, by identity
    for k, entry in enumerate(entries):
        groups.setdefault(id(entry[0]), []).append(k)
    models = [entries[mine[0]][0] for mine in groups.values()]
    if len({type(m) for m in models}) > 1:
        raise ConfigError("the models of one ledger row must be of one class")
    out: list = [None] * len(entries)
    on_grid: dict[int, _OnGrid] = {}
    for j, (model, mine) in enumerate(zip(models, groups.values())):
        try:
            grid = sample_times(model, t_end) if times is None else times
        except NumericalError as exc:
            for k in mine:
                out[k] = exc
            continue
        P, Q, rates = model.factors_and_rates(grid)
        for k in mine:
            _, rho1, rho2, evolve = entries[k]
            consts = _constants(rho1, rho2, evolve)
            dist, sig = _d_sigma(consts, P, Q, rates)
            bad = np.flatnonzero(~np.isfinite(dist))
            if bad.size:
                out[k] = NumericalError(f"trace distance is not finite at t = {grid[bad[0]]:.6g}")
                continue
            positivity = positivity_check(grid, _state_bloch(rho1, P, Q))
            on_grid[k] = _OnGrid(j, grid, consts, dist, sig, positivity, *_brackets(dist, sig))
        del P, Q, rates
    if not on_grid:
        return out

    if len(models) == 1:  # a sweep row: every bracket and knot is its one model's
        def model_at(idx):
            return models[0]
    else:  # a ratio scan: the models as one stack of parameter sets, picked by slot
        model_cls = type(models[0])
        stack = type(models[0].params).stack(m.params for m in models)

        def model_at(idx):
            return model_cls(stack[idx])

    # every bracket of the row, entry after entry, with its entry's constants and model
    rows = list(on_grid.values())
    slots = np.array([g.slot for g in rows])
    counts = [g.pairs.size for g in rows]
    owner = np.repeat(np.arange(len(rows)), counts)
    per_bracket = [np.array([g.consts[j] for g in rows])[owner] for j in range(4)]
    bracket_slots = slots[owner]
    t_lo = np.concatenate([np.empty(0), *(g.times[g.pairs] for g in rows)])
    t_hi = np.concatenate([np.empty(0), *(g.times[g.pairs + 1] for g in rows)])
    fa = np.concatenate([np.empty(0), *(g.sig[g.pairs] for g in rows)])

    def sigma_at(ts: np.ndarray, which: np.ndarray) -> np.ndarray:
        consts = tuple(c[which] for c in per_bracket)
        model = model_at(bracket_slots[which])
        return _d_sigma(consts, *model.factors_and_rates(ts))[1]

    roots, evals = _bisect_all(sigma_at, t_lo, t_hi, fa, BISECT_REL_TOL * t_end)
    cuts = np.cumsum(counts)[:-1]
    bounds = [np.unique(np.concatenate([g.times[g.zeros], r]))
              for g, r in zip(rows, np.split(roots, cuts))]
    knot_model = model_at(np.repeat(slots, [b.size for b in bounds]))
    knot_P, knot_Q = knot_model.factors(np.concatenate([np.empty(0), *bounds]))
    at = 0
    for k, g, b, e in zip(on_grid, rows, bounds, np.split(evals, cuts)):
        knots = slice(at, at + b.size)
        at = knots.stop
        d_bounds = _d_sigma(g.consts, knot_P[knots], knot_Q[knots])[0]
        segments, n_s, m_s = _accumulate(g.times, g.dist, b, d_bounds, t_end)
        model, _, rho2, evolve = entries[k]
        out[k] = FlowLedger(
            standard_state=rho2,
            times=g.times,
            D=g.dist,
            sigma=g.sig,
            N=n_s,
            M=m_s,
            segments=segments,
            model=model.tag,
            positivity=g.positivity,
            meta={"t_end": float(t_end), "evolve_reference": evolve,
                  "brackets": int(e.size), "bisect_rounds": int(e.max(initial=0))},
        )
    return out


def row_flows(rho0s, model, t_end: float, standard_state: DensityMatrix | None = None,
              times: np.ndarray | None = None) -> list:
    """:func:`flows` of every state in ``rho0s`` on one grid of one model.

    A sweep row's states share the factors: the row makes one
    ``factors_and_rates`` call on the grid and one per bisection round,
    whatever its number of states.  Each entry is the state's ledger, bit
    for bit the one :func:`flows` returns, or the :class:`NumericalError`
    that :func:`flows` would raise.
    """
    ref = model.steady_state() if standard_state is None else standard_state
    return _ledger_row([(model, rho0, ref, False) for rho0 in rho0s], t_end, times)


def ratio_flows(rho0: DensityMatrix, models, t_end: float) -> list:
    """:func:`flows` of one state under each of several models of one class.

    A ratio scan's models differ in their parameters only: each is sampled
    on its own grid, and then all their brackets share one bisection (one
    ``factors_and_rates`` call per round on the stack of their
    parameters) and one ``factors`` call gives D at all their run
    boundaries.  Each entry is the model's ledger against its steady state,
    bit for bit the one :func:`flows` returns, or the
    :class:`NumericalError` that :func:`flows` would raise.
    """
    return _ledger_row([(m, rho0, m.steady_state(), False) for m in models], t_end, None)


def flows(rho0: DensityMatrix, model, t_end: float,
          standard_state: DensityMatrix | None = None,
          times: np.ndarray | None = None) -> FlowLedger:
    """Flow cumulants of one state against a fixed reference state.

    The reference defaults to the model's steady state, which is invariant
    under both dynamics, so this is the two-state flow with the second
    state pinned.
    """
    return sole_result(row_flows([rho0], model, t_end, standard_state, times))


def pair_flows(rho1: DensityMatrix, rho2: DensityMatrix, model, t_end: float,
               times: np.ndarray | None = None) -> FlowLedger:
    """Flow cumulants of D(rho1(t), rho2(t)) with both states evolving."""
    return sole_result(_ledger_row([(model, rho1, rho2, True)], t_end, times))


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

    # the best pair is the first in grid order whose key scores highest: look
    # the keys up among the winning ones a chunk at a time, until one wins;
    # when every key ties (a Markovian model) the first chunk ends it
    top = distinct_scores[np.argmax(distinct_scores)]  # a NaN score wins
    winners = distinct[(distinct_scores == top) | np.isnan(distinct_scores)]
    for lo in range(0, keys.size, PAIR_BLOCK_SAMPLES):
        hit = np.isin(keys[lo:lo + PAIR_BLOCK_SAMPLES], winners)
        if hit.any():
            best = lo + int(np.argmax(hit))
            break
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
