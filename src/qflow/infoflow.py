"""Trace-distance rate, forward/backward flow cumulants, and the BLP scan.

Every flow is a pair flow, as in the measure of Breuer, Laine and Piilo: the
trace distance D(t) between two states that evolve under one model is split
into monotone runs.  Increments over increasing runs accumulate into the
backward flow N(t), magnitudes of decrements into the forward flow M(t), so
that D(t) = D(0) + N(t) - M(t) holds along the whole trajectory (up to
segments whose net change is below a 1e-13 floor, which are assigned to
neither side).  :func:`flows` pairs a state with the model's steady state,
which both dynamics leave invariant; :func:`pair_flows` takes both states.

Both models map rho00 -> p00 P(t) and rho01 -> coh Q(t) with |Q| = q, so a
pair's D(t) depends on the states only through the pair invariants
x = (p00 - p00')^2 and y = |coh - coh'|^2: D = sqrt(x P^2 + y q^2) and
D sigma = x P Pdot + y q qdot, with sigma = dD/dt, from the real envelopes
(P, q) and their rates (Pdot, qdot).  One kernel, :func:`_d_sigma`, gives
every D and sigma of this module: the ledger's grid, bisection and knots,
:func:`sigma` and the BLP scan.

Run boundaries are located by bracketing sign changes of sigma on a dense
sampling grid and bisecting to 1e-10 relative time accuracy.  A bracket
joins two grid samples of sigma that are nonzero and of opposite sign, so
bisection starts from the grid's own values.  A sweep row's states share one
model (:func:`row_flows`), and a ratio scan's models share one class
(:func:`ratio_flows`): entries whose grids have the same size share one grid
array and are taken in blocks of at most BLOCK_SAMPLES entry-samples, each
block one array program over (entries x samples).  A sweep row's blocks
share one ``envelopes`` call on the grid; a ratio scan makes one per block,
on the stack of the block's parameter sets.  Then the row bisects all its
brackets together (one ``envelopes`` call per round), evaluates D only at
the new boundary knots, reusing the grid values, and accumulates the runs a
block at a time.  :func:`flows` and :func:`pair_flows` are the one-entry
case.  The ledger's meta records the bracket count and the bisection rounds.

The BLP scan scores state pairs without evolving them, from the shared
envelopes and the squares of the invariants.  A pair grid is a state list
plus two index arrays (:class:`PairGrid`), and each distinct (x, y) key is
scored once, so the scoring cost follows the number of distinct keys, not
of pairs.  Grids with symmetry gain: the default grid's 372,816 pairs have
59,843 distinct keys, since rotating both states about z changes neither
square.
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
BLOCK_SAMPLES = 1 << 14  # entry- or pair-samples per block: 128 KiB per float array


@dataclass(frozen=True)
class FlowSegment:
    """One maximal monotone run of D(t)."""

    t_lo: float
    t_hi: float
    direction: int  # +1 backward flow, -1 forward flow, 0 plateau
    delta: float


@dataclass(frozen=True)
class FlowLedger:
    """Time series of D, sigma and the flow cumulants of a pair of evolving states."""

    standard_state: DensityMatrix  # the second state at t = 0 (rho2 of the pair)
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


def _invariants(states, first, second):
    """The invariants (x, y) = (dp00^2, |dcoh|^2) of the pairs (states[first], states[second]).

    ``first`` and ``second`` index ``states``; dp00 from the populations keeps
    the digits that z - z' rounds away.
    """
    mats = np.array([s.matrix for s in states])
    p00, coh = mats[:, 0, 0].real, mats[:, 0, 1]
    dp00 = p00[first] - p00[second]
    dcoh = coh[first] - coh[second]
    dp00 *= dp00
    return dp00, dcoh.real * dcoh.real + dcoh.imag * dcoh.imag


def _d_sigma(x, y, envelopes, rates=None, out=None):
    """D, and sigma = dD/dt when ``rates`` = (Pdot, qdot) is given, of pairs with invariants x, y.

    Both states of a pair evolve under one model, so their difference is
    (dp00 P, dcoh Q) in (rho00, rho01) with |Q| = q, and
    D = sqrt(x P^2 + y q^2), half the norm of the pair's Bloch difference;
    D sigma = x P Pdot + y q qdot.  ``x`` and ``y`` broadcast against the
    envelopes (P, q) and the rates; ``out``, of the broadcast shape,
    receives D when given.
    """
    P, q = envelopes
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(P)))
    dist = np.multiply(x, P * P, out=out)
    dist += y * (q * q)
    np.sqrt(dist, out=dist)
    if rates is None:
        return dist, None
    p_dot, q_dot = rates
    dot = x * (P * p_dot)
    dot += y * (q * q_dot)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = np.where(dist > 0.0, dot / dist, 0.0)
    return dist, sig


def sigma(t: float, model, rho0: DensityMatrix) -> float:
    """Instantaneous rate dD/dt against the model's steady state, from its envelope rates.

    Positive values signal backward flow.
    """
    x, y = _invariants([rho0, model.steady_state()], 0, 1)
    return float(_d_sigma(x, y, *model.envelopes(float(t)))[1])


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
    """(row, column) grid indices of sigma's exact zeros and of the left ends of its sign changes.

    ``dist`` and ``sig`` hold one entry per row.  Either needs a neighbour at
    or above the row's noise floor; a row whose D is constant has neither.
    """
    d_max = dist.max(axis=1)
    moving = (d_max - dist.min(axis=1) > 1e-12 * np.fmax(1.0, d_max))[:, None]
    mag = np.abs(sig)
    big = mag >= SIGMA_NOISE_REL * mag.max(axis=1, keepdims=True)
    zero, neg = sig == 0.0, sig < 0.0
    zeros = moving & zero[:, 1:-1] & (big[:, :-2] | big[:, 2:])
    pairs = (moving & ~zero[:, :-1] & ~zero[:, 1:] & (neg[:, :-1] != neg[:, 1:])
             & (big[:, :-1] | big[:, 1:]))
    # flat indices and divmod: np.nonzero of a 2-D mask is many times slower
    rows, cols = np.divmod(np.flatnonzero(zeros), zeros.shape[1])
    return (rows, cols + 1), np.divmod(np.flatnonzero(pairs), pairs.shape[1])


def _accumulate(times, dist, rows, bounds, d_bounds, t_end: float):
    """Split each row's [0, t_end] at its boundaries and telescope D over each run.

    ``dist`` holds a block's D, one entry per row; ``rows``, ``bounds`` and
    ``d_bounds`` list its boundaries, sorted by row and within a row by
    time, with D there.  Each row's boundaries are inserted into the grid as
    knots (one equal to a grid time keeps the grid's D), and the rows' knots
    share one (rows x knots) array, padded past each row's last knot with
    its D at t_end, so the cumulants are one ``cumsum`` per side whose row
    prefixes are what each row alone gives.  Returns each row's segments and
    the (rows x samples) N and M.
    """
    m, n = dist.shape
    pos = np.searchsorted(times, bounds)
    new = times[np.minimum(pos, n - 1)] != bounds
    per_row = np.bincount(rows, minlength=m)
    width, at, edge, d_knots = n, None, pos, dist  # at: the grid samples' flat knot indices
    if new.any():
        new_per_row = np.bincount(rows[new], minlength=m)
        width += int(new_per_row.max())
        # a grid sample's knot is its own index plus the new knots inserted before it
        at = np.bincount(rows[new] * n + pos[new], minlength=m * n).reshape(m, n).cumsum(axis=1)
        at += np.arange(n)
        # a new knot's is its insertion point plus the row's new knots before it
        rank = np.cumsum(new) - new - np.repeat(np.cumsum(new_per_row) - new_per_row, per_row)
        edge = np.where(new, pos + rank, at[rows, np.minimum(pos, n - 1)])
        at += width * np.arange(m)[:, None]
        d_knots = np.empty((m, width))
        d_knots[:] = dist[:, -1:]
        d_knots.reshape(-1)[at] = dist
        d_knots[rows[new], edge[new]] = d_bounds[new]

    # each row's edges 0, its boundaries and t_end, whose knot is the row's last column
    n_edges = per_row + 2
    stop = np.cumsum(n_edges)
    start = stop - n_edges
    inner = np.ones(stop[-1], dtype=bool)
    inner[start] = inner[stop - 1] = False
    edge_idx = np.empty(stop[-1], dtype=np.intp)
    edge_idx[start], edge_idx[stop - 1], edge_idx[inner] = 0, width - 1, edge
    edge_t = np.empty(stop[-1])
    edge_t[start], edge_t[stop - 1], edge_t[inner] = 0.0, t_end, bounds
    edge_row = np.repeat(np.arange(m), n_edges)
    d_edges = d_knots[edge_row, edge_idx]
    within = np.ones(stop[-1] - 1, dtype=bool)  # edge pairs of one row: its runs
    within[stop[:-1] - 1] = False
    net = (d_edges[1:] - d_edges[:-1])[within]
    floor = (DELTA_FLOOR * np.fmax(1.0, d_knots.max(axis=1)))[edge_row[:-1][within]]
    cls = np.where(net > floor, 1, np.where(net < -floor, -1, 0))

    interval_cls = np.repeat(cls.astype(np.int8), np.diff(edge_idx)[within]).reshape(m, width - 1)
    dd = np.diff(d_knots, axis=1)
    n_cum, m_cum = np.zeros((m, width)), np.zeros((m, width))
    np.copyto(n_cum[:, 1:], dd, where=interval_cls > 0)
    np.cumsum(n_cum[:, 1:], axis=1, out=n_cum[:, 1:])
    np.negative(dd, out=dd)
    np.copyto(m_cum[:, 1:], dd, where=interval_cls < 0)
    np.cumsum(m_cum[:, 1:], axis=1, out=m_cum[:, 1:])
    del dd, interval_cls, d_knots
    runs = list(map(FlowSegment, edge_t[:-1][within].tolist(), edge_t[1:][within].tolist(),
                    cls.tolist(), net.tolist()))
    first = np.cumsum(per_row + 1).tolist()
    segments = [tuple(runs[lo:hi]) for lo, hi in zip([0] + first, first)]
    if at is None:
        return segments, n_cum, m_cum
    return segments, n_cum.reshape(-1)[at], m_cum.reshape(-1)[at]


class _Block(NamedTuple):
    """Entries of a ledger row on one sampling grid, one per row of the arrays."""

    keys: list  # the entries' indices in the row
    times: np.ndarray
    dist: np.ndarray
    sig: np.ndarray
    positivity: list
    zeros: tuple  # (row, column) of the exact zeros of sigma
    pairs: tuple  # (row, column) of the left ends of the brackets


def _grid_block(keys, times, model, shared, entries, invariants, out):
    """D, sigma, positivity and brackets of the entries ``keys`` on their shared grid.

    ``model`` is the entries' one model, whose envelopes on the grid are
    ``shared``, or the stack of their parameters as a column (``shared`` is
    None), evaluated here; ``invariants`` holds the row's (x, y), one array
    each.  An entry whose D is not finite gets its :class:`NumericalError`
    in ``out`` and leaves the block; None when none is left.
    """
    (P, q), rates = model.envelopes(times) if shared is None else shared
    dist, sig = _d_sigma(*(v[keys, None] for v in invariants), (P, q), rates)
    del shared, rates
    finite = np.isfinite(dist)
    live = finite.all(axis=1)
    if not live.all():
        for r in np.flatnonzero(~live):
            t_bad = times[np.argmin(finite[r])]
            out[keys[r]] = NumericalError(f"trace distance is not finite at t = {t_bad:.6g}")
        keep = np.flatnonzero(live)
        if not keep.size:
            return None
        keys, dist, sig = [keys[r] for r in keep], dist[keep], sig[keep]
        P, q = (f[keep] if f.ndim == 2 else f for f in (P, q))
    # rho1(t)'s Bloch vector turned about z into the x-z plane: the same |r| and eigenvalues
    rho1s = [entries[k][1].matrix for k in keys]
    bloch = np.zeros((3,) + dist.shape)
    np.multiply(np.array([2.0 * abs(m[0, 1]) for m in rho1s])[:, None], q, out=bloch[0])
    np.multiply(np.array([2.0 * m[0, 0].real for m in rho1s])[:, None], P, out=bloch[2])
    bloch[2] -= 1.0
    del P, q
    positivity = positivity_check(times, np.moveaxis(bloch, 0, -1))
    return _Block(keys, times, dist, sig, positivity, *_brackets(dist, sig))


def _ledger_row(entries, t_end: float, times) -> list:
    """Flow ledgers of D(rho1(t), rho2(t)) for several (model, rho1, rho2) entries.

    The entries' models are of one class; entries may share a model (a
    sweep row's states) or each carry their own (a ratio scan).  Each model
    is sampled on ``times`` or its own ``sample_times``, and entries whose
    grids have the same size share one grid array.  The entries of a grid
    are taken in blocks of at most BLOCK_SAMPLES entry-samples (an entry
    whose grid alone is larger is a block of one), and each block is one
    array program over (entries x samples): envelopes (one call on the
    stack of the block's parameter sets, or, when its entries share a
    model, that model's one call on the grid, which all its blocks there
    share), one :func:`_d_sigma`, one finiteness scan, one positivity
    evaluation and one bracket scan.  An entry's D and sigma follow from its
    pair invariants alone, and its positivity from rho1 (|r| from P and q).  Then all
    brackets of all entries are bisected together, one ``envelopes``
    call per round, and one more gives D at every
    entry's run boundaries; with several models these calls run on the
    stack of their parameters, picked per bracket and per knot.  The runs
    accumulate a block at a time.
    Each entry gets its ledger, or the :class:`NumericalError` it raised (a
    grid above the sample cap fails every entry of its model).
    """
    require_finite("flow horizon", t_end=t_end)
    if times is not None:
        times = np.asarray(times, dtype=float)
        if (times.ndim != 1 or times.size < 2 or times[0] != 0.0
                or abs(times[-1] - t_end) > 1e-9 * max(t_end, 1.0)):
            raise ConfigError("flow sampling grid must span [0, t_end]")
        if np.any(np.diff(times) <= 0.0):
            raise ConfigError("flow sampling grid must be strictly increasing")
    groups: dict[int, list[int]] = {}  # the entries of each model, by identity
    for k, entry in enumerate(entries):
        groups.setdefault(id(entry[0]), []).append(k)
    models = [entries[mine[0]][0] for mine in groups.values()]
    if len({type(m) for m in models}) > 1:
        raise ConfigError("the models of one ledger row must be of one class")
    if not entries:
        return []

    if len(models) == 1:  # a sweep row: every bracket and knot is its one model's
        def model_at(idx):
            return models[0]
    else:  # a ratio scan: the models as one stack of parameter sets, picked by slot
        model_cls = type(models[0])
        stack = type(models[0].params).stack(m.params for m in models)

        def model_at(idx):
            return model_cls(stack[idx])

    out: list = [None] * len(entries)
    pair = np.arange(0, 2 * len(entries), 2)  # rho1 and rho2 of each entry, in turn
    invariants = _invariants([s for entry in entries for s in entry[1:]], pair, pair + 1)
    slot = np.zeros(len(entries), dtype=np.intp)  # each entry's model in the stack
    grids: dict[int, np.ndarray] = {}  # one grid per sample count
    sharing: dict[int, list[int]] = {}  # the entries on each grid
    for j, (model, mine) in enumerate(zip(models, groups.values())):
        try:
            grid = sample_times(model, t_end) if times is None else times
        except NumericalError as exc:
            for k in mine:
                out[k] = exc
            continue
        grids.setdefault(grid.size, grid)
        slot[mine] = j
        sharing.setdefault(grid.size, []).extend(mine)
    blocks = []
    last = None  # ((slot, size), envelopes) of the last one-model block, which the next may share
    for size, keys in sharing.items():
        keys.sort()
        per_block = max(1, BLOCK_SAMPLES // size)
        for lo in range(0, len(keys), per_block):
            mine = keys[lo:lo + per_block]
            slots = slot[mine]
            if np.any(slots != slots[0]):
                model, shared = model_at(slots[:, None]), None
            else:  # one model, whose envelopes serve all its blocks on this grid
                model = models[slots[0]]
                if last is None or last[0] != (slots[0], size):
                    last = (slots[0], size), model.envelopes(grids[size])
                shared = last[1]
            block = _grid_block(mine, grids[size], model, shared, entries, invariants, out)
            if block is not None:
                blocks.append(block)
    last = shared = None  # the grid envelopes are not needed past the grid pass
    if not blocks:
        return out

    # every ledger of the row, block after block, with its invariants and model
    keys = [k for block in blocks for k in block.keys]
    first = np.cumsum([0] + [len(block.keys) for block in blocks])  # each block's first ledger
    per_ledger = [v[keys] for v in invariants]
    ledger_slots = slot[keys]
    owner = np.concatenate([f + block.pairs[0] for f, block in zip(first, blocks)])
    t_lo = np.concatenate([block.times[block.pairs[1]] for block in blocks])
    t_hi = np.concatenate([block.times[block.pairs[1] + 1] for block in blocks])
    fa = np.concatenate([block.sig[block.pairs] for block in blocks])
    per_bracket = [v[owner] for v in per_ledger]
    bracket_slots = ledger_slots[owner]

    def sigma_at(ts: np.ndarray, which: np.ndarray) -> np.ndarray:
        return _d_sigma(*(v[which] for v in per_bracket),
                        *model_at(bracket_slots[which]).envelopes(ts))[1]

    roots, evals = _bisect_all(sigma_at, t_lo, t_hi, fa, BISECT_REL_TOL * t_end)
    brackets = np.bincount(owner, minlength=len(keys)).tolist()
    rounds = np.zeros(len(keys), dtype=int)
    np.maximum.at(rounds, owner, evals)
    rounds = rounds.tolist()

    # each ledger's run boundaries: its grid zeros of sigma and its roots, sorted and unique
    knot_owner = np.concatenate([owner, *(f + block.zeros[0] for f, block in zip(first, blocks))])
    knot_t = np.concatenate([roots, *(block.times[block.zeros[1]] for block in blocks)])
    order = np.lexsort((knot_t, knot_owner))
    knot_owner, knot_t = knot_owner[order], knot_t[order]
    distinct = np.ones(knot_t.size, dtype=bool)
    distinct[1:] = (knot_owner[1:] != knot_owner[:-1]) | (knot_t[1:] != knot_t[:-1])
    knot_owner, knot_t = knot_owner[distinct], knot_t[distinct]
    knot_d = _d_sigma(*(v[knot_owner] for v in per_ledger),
                      model_at(ledger_slots[knot_owner]).envelopes(knot_t)[0])[0]

    at = np.searchsorted(knot_owner, first)  # each block's first knot
    for block, f, lo, hi in zip(blocks, first, at[:-1], at[1:]):
        segments, n_s, m_s = _accumulate(block.times, block.dist, knot_owner[lo:hi] - f,
                                         knot_t[lo:hi], knot_d[lo:hi], t_end)
        for r, k in enumerate(block.keys):
            model, _, rho2 = entries[k]
            out[k] = FlowLedger(
                rho2,
                times=block.times,
                D=block.dist[r],
                sigma=block.sig[r],
                N=n_s[r],
                M=m_s[r],
                segments=segments[r],
                model=model.tag,
                positivity=block.positivity[r],
                meta={"t_end": float(t_end), "brackets": brackets[f + r],
                      "bisect_rounds": rounds[f + r]},
            )
    return out


def row_flows(rho0s, model, t_end: float, times: np.ndarray | None = None) -> list:
    """:func:`flows` of every state in ``rho0s`` on one grid of one model.

    A sweep row's states share the envelopes: the row makes one
    ``envelopes`` call on the grid, which serves all its blocks of up to
    BLOCK_SAMPLES state-samples, and one per bisection round, whatever its
    number of states.  Each entry is the state's ledger, bit
    for bit the one :func:`flows` returns, or the :class:`NumericalError`
    that :func:`flows` would raise.
    """
    steady = model.steady_state()
    return _ledger_row([(model, rho0, steady) for rho0 in rho0s], t_end, times)


def ratio_flows(rho0: DensityMatrix, models, t_end: float) -> list:
    """:func:`flows` of one state under each of several models of one class.

    A ratio scan's models differ in their parameters only: models whose
    grids have the same size share one grid, evaluated for a block of
    BLOCK_SAMPLES model-samples at a time by one ``envelopes`` call on the
    stack of the block's parameters; then all their brackets share one
    bisection (one call per round on the stack of their parameters) and one
    more gives D at all their run boundaries.  Each entry is the model's
    ledger, bit for bit the one :func:`flows` returns, or the
    :class:`NumericalError` that :func:`flows` would raise.
    """
    return _ledger_row([(m, rho0, m.steady_state()) for m in models], t_end, None)


def flows(rho0: DensityMatrix, model, t_end: float,
          times: np.ndarray | None = None) -> FlowLedger:
    """Flow cumulants of ``rho0`` paired with the model's steady state.

    Both dynamics leave the steady state invariant, so this is the pair
    flow of :func:`pair_flows` with the second state at rest.
    """
    return sole_result(row_flows([rho0], model, t_end, times))


def pair_flows(rho1: DensityMatrix, rho2: DensityMatrix, model, t_end: float,
               times: np.ndarray | None = None) -> FlowLedger:
    """Flow cumulants of D(rho1(t), rho2(t)) with both states evolving."""
    return sole_result(_ledger_row([(model, rho1, rho2)], t_end, times))


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
    distinct key is scored once by the ledger's kernel :func:`_d_sigma`, in
    chunks sized for L2 cache, and the best pair is the first in grid order
    whose key scores highest.  Keys are compared as exact floats, so every score
    equals the pair's own.  The cost follows the distinct keys
    (``n_distinct``): a grid closed under rotations about z repeats keys,
    one without repeats pays a sort for nothing.  A NaN score (only
    non-finite envelopes give one) wins, and re-evaluating raises.
    """
    if t_end is None:
        raise ConfigError("blp_measure requires an explicit t_end")
    grid = default_pair_grid() if grid is None else PairGrid.of(grid)
    if not len(grid):
        raise ConfigError("blp_measure requires a non-empty pair grid")
    if times is None:
        times = sample_times(model, t_end)
    times = np.asarray(times, dtype=float)

    x, y = _invariants(grid.states, grid.first, grid.second)
    # finite states give finite or infinite keys, never NaN, so a sort
    # orders every key; np.unique's hash table costs four sorts on keys that
    # rarely repeat
    keys = np.empty(len(grid), dtype=complex)
    keys.real, keys.imag = x, y
    del x, y
    ordered = np.sort(keys)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    del ordered
    envelopes, _ = model.envelopes(times)

    chunk = max(1, BLOCK_SAMPLES // times.size)
    dist = np.empty((min(chunk, distinct.size), times.size))  # D of one chunk, reused
    distinct_scores = np.empty(distinct.size, dtype=float)
    for lo in range(0, distinct.size, chunk):
        block = distinct[lo:lo + chunk, None]
        _d_sigma(block.real, block.imag, envelopes, out=dist[:block.size])
        inc = np.diff(dist[:block.size], axis=-1)
        np.maximum(inc, 0.0, out=inc)  # NaN stays NaN and wins the argmax
        np.sum(inc, axis=-1, out=distinct_scores[lo:lo + chunk])

    # the best pair is the first in grid order whose key scores highest: look
    # the keys up among the winning ones a chunk at a time, until one wins;
    # when every key ties (a Markovian model) the first chunk ends it
    top = distinct_scores[np.argmax(distinct_scores)]  # a NaN score wins
    winners = distinct[(distinct_scores == top) | np.isnan(distinct_scores)]
    for lo in range(0, keys.size, BLOCK_SAMPLES):
        hit = np.isin(keys[lo:lo + BLOCK_SAMPLES], winners)
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
