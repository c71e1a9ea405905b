"""A sweep row, and a ratio scan, as one array program.

A row's ledgers (``row_flows``) and literal phases (``gp_row``) share the
envelopes of one model; every entry must equal the one-state call bit for bit,
or carry the error the one-state call raises.  Every ledger is a pair ledger,
and ``flows`` is the pair ledger of a state and the model's steady state.
The ledger kernel works from the real envelopes (P, q) and the pair
invariants alone, so it is also checked against the evolved matrices: D
against ``qstate.trace_distance``, sigma against a difference quotient of D,
positivity against the evolved Bloch vectors.

A ratio scan's models differ in their parameters only: a model over a stack
of parameter sets evaluates each set's factors and rates, so one state's
ledgers under many models (``ratio_flows``) share one bisection, and
``critical_point`` evaluates its grid stacked.  Both must equal the
one-model calls bit for bit.

Entries on grids of one size are taken in blocks of at most
``infoflow.BLOCK_SAMPLES`` entry-samples, one ``envelopes`` call per block;
with the budget made small, rows and ratio scans split into many blocks,
and every entry must still equal the one-entry call.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qflow import analysis, channels, infoflow
from qflow.analysis import CriticalPointReport, critical_point, integrand_A_from_model
from qflow.channels import (MemoryKernelModel, MemoryKernelParams, TimeLocalModel,
                            TimeLocalParams, positivity_check)
from qflow.errors import BracketError, ConfigError, NumericalError
from qflow.geomphase import gp_route, gp_row
from qflow.infoflow import flows, pair_flows, ratio_flows, row_flows, sigma
from qflow.qstate import (DensityMatrix, InitialStateSpec, bloch_array, bloch_trace_distance,
                          eigenvalues, initial_state, trace_distance)

T = 2.0 * math.pi
EPS = np.finfo(float).eps

# both models on both sides of their thresholds (R = 1/2, C = 1/4)
MODELS = st.one_of(
    st.builds(lambda W, R: TimeLocalModel(TimeLocalParams(W, W / R, 1.0)),
              st.floats(0.3, 3.0), st.floats(0.05, 0.5) | st.floats(0.5, 5.0)),
    st.builds(lambda g0, C: MemoryKernelModel(MemoryKernelParams(g0, g0 / C, 1.0)),
              st.floats(0.1, 2.0), st.floats(0.01, 0.25) | st.floats(0.25, 1.5)),
)
# the ball's center (z = 0) and the poles (vartheta0 = 0, pi) among the states
STATES = st.builds(InitialStateSpec,
                   st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                   st.sampled_from([0.0, math.pi]) | st.floats(0.0, math.pi),
                   st.floats(0.0, 2.0 * math.pi))


def assert_same_ledger(a, b):
    for name in ("times", "D", "sigma", "N", "M"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.segments == b.segments
    assert a.positivity == b.positivity
    assert a.meta == b.meta
    assert np.array_equal(a.standard_state.matrix, b.standard_state.matrix)
    assert a.model == b.model


def assert_same_entry(entry, one_state):
    """A row entry against the one-state call: the same result, or the same error."""
    if isinstance(entry, NumericalError):
        with pytest.raises(type(entry)) as raised:
            one_state()
        assert str(raised.value) == str(entry)
        return None
    return one_state()


def not_converged(record) -> list[str]:
    return [str(w.message) for w in record if "not converged" in str(w.message)]


@settings(max_examples=60, deadline=None)
@given(model=MODELS, specs=st.lists(STATES, min_size=1, max_size=6))
def test_row_entries_equal_the_one_state_calls(model, specs):
    rho0s = [initial_state(spec) for spec in specs]
    with warnings.catch_warnings(record=True) as row_warned:
        warnings.simplefilter("always")
        ledgers = row_flows(rho0s, model, T)
        phases = gp_row(model, rho0s, T)
    assert len(ledgers) == len(phases) == len(rho0s)
    with warnings.catch_warnings(record=True) as one_warned:
        warnings.simplefilter("always")
        for rho0, ledger, phase in zip(rho0s, ledgers, phases):
            one = assert_same_entry(ledger, lambda: flows(rho0, model, T))
            if one is not None:
                assert_same_ledger(ledger, one)
            one = assert_same_entry(phase, lambda: gp_route(model, rho0, T))
            if one is not None:
                assert repr(phase) == repr(one)  # repr keeps every bit, and NaN equals NaN
    # the unconverged phases warn in state order, as one by one
    assert not_converged(row_warned) == not_converged(one_warned)


def test_a_failing_state_keeps_its_error_alone():
    # the ball's center is degenerate for the phase; its neighbours are not
    model = TimeLocalModel(TimeLocalParams(1.0, 2.0, 1.0))
    rho0s = [initial_state(InitialStateSpec(z, 0.6, 0.3)) for z in (1.0, 0.0, 0.5)]
    phases = gp_row(model, rho0s, T)
    assert isinstance(phases[1], NumericalError)
    assert [repr(p) for p in phases[::2]] == [repr(gp_route(model, r, T)) for r in rho0s[::2]]


def evolved(model, rho, t):
    return DensityMatrix(model.states(rho, t))


@settings(max_examples=60, deadline=None)
@given(model=MODELS, s1=STATES, s2=STATES, kind=st.sampled_from(["ground", "pair"]),
       frac=st.floats(0.05, 0.95))
def test_kernel_meets_the_evolved_matrices(model, s1, s2, kind, frac):
    rho1, rho2 = initial_state(s1), initial_state(s2)
    t, h = frac * T, 1e-3 * model.feature_scale()
    times = np.array([0.0, t - 2 * h, t - h, t, t + h, t + 2 * h, T])
    if kind == "pair":
        ledger = pair_flows(rho1, rho2, model, T, times)
        other = [evolved(model, rho2, s) for s in times]
    else:
        ref = model.steady_state()
        ledger = flows(rho1, model, T, times=times)
        other = [ref] * times.size
    want = [trace_distance(evolved(model, rho1, s), o) for s, o in zip(times, other)]
    assert np.max(np.abs(ledger.D - want)) <= 1e-14
    # the ledger takes |r| from the envelopes (P, q), the check from the evolved
    # matrices: eigenvalues (1 - |r|) / 2 with |r| <= 1 agree to a few ulps of 1
    bloch = model.bloch_series(rho1, times)
    want, eigs = positivity_check(times, bloch), eigenvalues(bloch)[1]
    got = ledger.positivity
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= 4 * EPS
    assert eigs[times == got.argmin_time][0] <= want.min_eigenvalue + 4 * EPS
    assert (got.ok, got.first_violation_time, got.threshold) == (
        want.ok, want.first_violation_time, want.threshold)
    d = ledger.D[1:6]
    assume(np.min(d) > 1e-3)  # away from D = 0, where D has a kink
    five_point = (d[0] - 8.0 * d[1] + 8.0 * d[3] - d[4]) / (12.0 * h)
    assert abs(ledger.sigma[3] - five_point) <= 1e-7 * max(1.0, abs(five_point))
    if kind != "pair":
        # one time: numpy's 0-d loops may round each factor in the last bit, and
        # sigma = (r . dr/dt) / (4 D) is a cancelling sum where it is small, so
        # the gap is bounded by a few ulps of its terms' magnitudes, not of sigma
        r = model.bloch_series(rho1, t) - ref.bloch().as_array()
        terms = np.abs(r * bloch_array(model.state_dot(rho1, t))).sum() / (4.0 * ledger.D[3])
        assert abs(sigma(t, model, rho1) - ledger.sigma[3]) <= 16 * EPS * terms


@settings(max_examples=60, deadline=None)
@given(model=MODELS, spec=STATES)
# one model of each class, past its threshold, so every run covers both
@example(model=TimeLocalModel(TimeLocalParams(1.0, 0.5, 1.0)),
         spec=InitialStateSpec(1.0, 1.0, 0.5))
@example(model=MemoryKernelModel(MemoryKernelParams(1.0, 2.0, 1.0)),
         spec=InitialStateSpec(0.5, 2.0, 4.0))
def test_flows_is_the_pair_flow_with_the_steady_state(model, spec):
    # the steady state is invariant, so the one-state ledger is the pair ledger
    rho0 = initial_state(spec)
    ledger = flows(rho0, model, T)
    assert ledger.standard_state is model.steady_state()
    assert_same_ledger(ledger, pair_flows(rho0, model.steady_state(), model, T))


# one class, both sides of its threshold, with a fixed coupling-side constant
RATIO_SETS = st.one_of(
    st.builds(lambda W, Rs: [TimeLocalParams(W, W, 1.0).at_ratio(R) for R in Rs],
              st.floats(0.3, 3.0),
              st.lists(st.floats(0.05, 0.5) | st.floats(0.5, 5.0), min_size=1, max_size=5)),
    st.builds(lambda g0, Cs: [MemoryKernelParams(g0, g0, 1.0).at_ratio(C) for C in Cs],
              st.floats(0.1, 2.0),
              st.lists(st.floats(0.01, 0.25) | st.floats(0.25, 1.5), min_size=1, max_size=5)),
)


def model_class(params):
    return TimeLocalModel if isinstance(params, TimeLocalParams) else MemoryKernelModel


@settings(max_examples=40, deadline=None)
@given(sets=RATIO_SETS, spec=STATES, fracs=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
def test_ratio_ledgers_equal_the_one_model_calls(sets, spec, fracs):
    cls = model_class(sets[0])
    stacked = cls(type(sets[0]).stack(sets))
    # one time per set, as a bisection round evaluates its brackets
    ts = T * np.array(fracs[:len(sets)])
    for got, one in ((stacked.factors(ts), lambda m, t: m.factors(t)),
                     (stacked.rates(ts), lambda m, t: m.rates(t))):
        for k, params in enumerate(sets):
            want = one(cls(params), ts[k:k + 1])
            assert [g[k:k + 1].tobytes() for g in got] == [w.tobytes() for w in want]

    rho0 = initial_state(spec)
    models = [cls(params) for params in sets]
    ledgers = ratio_flows(rho0, models, T)
    assert len(ledgers) == len(models)
    for model, ledger in zip(models, ledgers):
        one = assert_same_entry(ledger, lambda: flows(rho0, model, T))
        if one is not None:
            assert_same_ledger(ledger, one)


class NanAboveLambda(TimeLocalModel):
    """Time-local model whose envelopes and rates are NaN after t = 4 when lambda > 5."""

    def _envelopes_of(self, t):
        bad = (t > 4.0) & (np.asarray(self.params.lam) > 5.0)
        return tuple(tuple(np.where(bad, np.nan, f) for f in pair)
                     for pair in super()._envelopes_of(t))


def test_each_ratio_keeps_its_own_ledger_or_error():
    # R = 0.3: no bracket; R = 2, 4: brackets; R = 0.1 at W = 1: lambda = 10 > 5,
    # a NaN trace distance; R = 1e-4: a grid above the sample cap
    W = 1.0
    rho0 = initial_state(InitialStateSpec(1.0, 0.7, 0.4))
    models = [NanAboveLambda(TimeLocalParams(W, W / R, 1.0)) for R in (2.0, 0.3, 0.1, 4.0, 1e-4)]
    ledgers = ratio_flows(rho0, models, T)
    kinds = [type(ledger).__name__ for ledger in ledgers]
    assert kinds == ["FlowLedger", "FlowLedger", "NumericalError", "FlowLedger", "NumericalError"]
    assert ledgers[0].meta["brackets"] > 0 and ledgers[1].meta["brackets"] == 0
    for model, ledger in zip(models, ledgers):
        one = assert_same_entry(ledger, lambda: flows(rho0, model, T))
        if one is not None:
            assert_same_ledger(ledger, one)


class NanInBand(TimeLocalModel):
    """Time-local model whose envelopes and rates are NaN after t = 4 when 1 < lambda < 1.5.

    At W <= 3 such a model keeps the 801-sample grid of its neighbours at
    T = 2 pi, so its entry fails inside a block of good ones.
    """

    def _envelopes_of(self, t):
        lam = np.asarray(self.params.lam)
        bad = (t > 4.0) & (lam > 1.0) & (lam < 1.5)
        return tuple(tuple(np.where(bad, np.nan, f) for f in pair)
                     for pair in super()._envelopes_of(t))


# lambda up to 60 needs grids of up to ~15k samples; 1.25 is a NaN entry on the
# 801-sample grid, 5e4 a grid above the sample cap
BLOCK_LAMS = st.floats(0.1, 60.0) | st.sampled_from([1.25, 5e4])


@settings(max_examples=40, deadline=None)
@given(W=st.floats(0.3, 3.0), lams=st.lists(BLOCK_LAMS, min_size=1, max_size=12),
       specs=st.lists(STATES, min_size=1, max_size=12), budget=st.sampled_from([1, 2000, 4000]))
def test_entries_across_block_edges_equal_the_one_entry_calls(W, lams, specs, budget):
    rho0s = [initial_state(spec) for spec in specs]
    models = [NanInBand(TimeLocalParams(W, lam, 1.0)) for lam in lams]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infoflow, "BLOCK_SAMPLES", budget)
        scan = ratio_flows(rho0s[0], models, T)
        row = row_flows(rho0s, models[0], T)
    for model, ledger in zip(models, scan):
        one = assert_same_entry(ledger, lambda: flows(rho0s[0], model, T))
        if one is not None:
            assert_same_ledger(ledger, one)
    for rho0, ledger in zip(rho0s, row):
        one = assert_same_entry(ledger, lambda: flows(rho0, models[0], T))
        if one is not None:
            assert_same_ledger(ledger, one)


def spy_envelopes(monkeypatch) -> list:
    """The time arguments of every ``envelopes`` call, in call order."""
    calls = []
    envelopes = channels._DampingModel.envelopes

    def spy(self, t):
        calls.append(np.asarray(t))
        return envelopes(self, t)

    monkeypatch.setattr(channels._DampingModel, "envelopes", spy)
    return calls


def test_one_grid_envelopes_call_per_block(monkeypatch):
    # the criterion-8 ratio scan: 61 models, all on the 801-sample grid
    models = [TimeLocalModel(TimeLocalParams(0.6, 1.0, 1.0).at_ratio(R))
              for R in np.linspace(0.4, 1.0, 61)]
    grid = channels.sample_times(models[0], T)
    assert all(np.array_equal(channels.sample_times(m, T), grid) for m in models)
    rho0 = initial_state(InitialStateSpec(1.0, math.pi / 3, 0.0))
    calls = spy_envelopes(monkeypatch)
    ledgers = ratio_flows(rho0, models, T)
    on_grid = sum(1 for t in calls if np.array_equal(t, grid))
    # blocks of BLOCK_SAMPLES // 801 = 20 models: 4 calls, not 61
    assert on_grid == math.ceil(61 / (infoflow.BLOCK_SAMPLES // grid.size)) == 4
    # then one call per bisection round and one for the boundary knots
    assert len(calls) == on_grid + max(ledger.meta["bisect_rounds"] for ledger in ledgers) + 1

    # a row's states share their model's grid call, also across blocks
    rho0s = [initial_state(InitialStateSpec(z, 0.6, 0.3)) for z in (0.25, 0.5, 0.75, 1.0)]
    for budget in (infoflow.BLOCK_SAMPLES, grid.size):  # one block; one state per block
        monkeypatch.setattr(infoflow, "BLOCK_SAMPLES", budget)
        calls.clear()
        ledgers = row_flows(rho0s, models[-1], T)
        assert sum(1 for t in calls if np.array_equal(t, grid)) == 1
        assert len(calls) == 1 + max(ledger.meta["bisect_rounds"] for ledger in ledgers) + 1


def test_an_empty_row_has_no_entries():
    model = TimeLocalModel(TimeLocalParams(1.0, 2.0, 1.0))
    assert row_flows([], model, T) == []
    assert ratio_flows(initial_state(InitialStateSpec(1.0, 0.7, 0.4)), [], T) == []


def test_a_stack_is_of_one_class():
    tl, mk = TimeLocalParams(1.0, 2.0, 1.0), MemoryKernelParams(1.0, 2.0, 1.0)
    for sets in ([], [tl, mk]):
        with pytest.raises(ConfigError, match="stack needs"):
            TimeLocalParams.stack(sets)
    with pytest.raises(ConfigError, match="of one class"):
        ratio_flows(initial_state(InitialStateSpec(1.0, 0.7, 0.4)),
                    [TimeLocalModel(tl), MemoryKernelModel(mk)], T)


def one_ratio_at_a_time(T, spec, p, r_min, r_max, steps):
    """critical_point composed one ratio at a time from scalar calls and flows (the oracle)."""
    h = analysis.FD_STEP
    grid = np.linspace(r_min, r_max, steps)

    def cdiff(fn, R):
        return (fn(R + h) - fn(R - h)) / (2.0 * h)

    def f_of(R):
        return float(channels.abs_c_squared(T, p.at_ratio(R)))

    sign = np.sign(np.array([cdiff(f_of, R) for R in grid]))
    flips = np.flatnonzero((sign[:-1] < 0) & (sign[1:] > 0))
    if flips.size == 0:
        raise BracketError("no sign change")
    lo, hi = float(grid[flips[0]]), float(grid[flips[0] + 1])
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdiff(f_of, mid) < 0.0 else (lo, mid)
    r_star = 0.5 * (lo + hi)
    rho0 = initial_state(spec)
    ground = DensityMatrix.ground().bloch().as_array()

    def d_of(R):
        return float(bloch_trace_distance(TimeLocalModel(p.at_ratio(R)).bloch_series(rho0, T),
                                          ground))

    def a_of(R):
        return integrand_A_from_model(T, TimeLocalModel(p.at_ratio(R)), rho0)

    dd_raw, da_raw = cdiff(d_of, r_star), cdiff(a_of, r_star)
    dd_scale = max(abs(cdiff(d_of, R)) for R in grid[1:-1])
    da_scale = max(abs(cdiff(a_of, R)) for R in grid[1:-1])
    ledgers = [flows(rho0, TimeLocalModel(p.at_ratio(R)), T) for R in grid]
    n_grid = np.array([ledger.N_total for ledger in ledgers])
    m_grid = np.array([ledger.M_total for ledger in ledgers])
    onset_idx = int(np.flatnonzero(n_grid > analysis.ONSET_TOL)[0])
    dm_grid = (m_grid[2:] - m_grid[:-2]) / (grid[2:] - grid[:-2])
    peak = int(np.argmax(dm_grid))
    m_flat_idx = peak + int(np.flatnonzero(dm_grid[peak:] < 0.5 * dm_grid[peak])[0]) + 1
    last = steps - 1
    dm_onset = ((m_grid[min(onset_idx + 2, last)] - m_grid[min(onset_idx + 1, last)])
                / float(grid[1] - grid[0]))
    return CriticalPointReport(
        r_star=r_star, df_residual=float(abs(cdiff(f_of, r_star))),
        dd_residual=float(abs(dd_raw) / dd_scale), da_residual=float(abs(da_raw) / da_scale),
        dd_raw=float(dd_raw), da_raw=float(da_raw),
        onset_R=float(grid[onset_idx]), m_flat_R=float(grid[m_flat_idx]),
        dm_at_onset=float(dm_onset), onset_matches_m_flat=abs(m_flat_idx - onset_idx) <= 1,
        grid=(float(r_min), float(r_max), int(steps)), fd_step=h,
    )


@pytest.mark.parametrize("shift", [0.0, 0.3, -0.45], ids=["criterion-8", "up", "down"])
def test_critical_point_equals_the_one_ratio_oracle(shift):
    # the criterion-8 setting, and its range shifted by a fraction of a grid step
    steps = 61
    r_min, r_max = (0.4 + shift * 0.6 / (steps - 1), 1.0 + shift * 0.6 / (steps - 1))
    args = (T, InitialStateSpec(1.0, math.pi / 3, 0.0), TimeLocalParams(0.6, 1.0, 1.0),
            r_min, r_max, steps)
    assert repr(critical_point(*args)) == repr(one_ratio_at_a_time(*args))
