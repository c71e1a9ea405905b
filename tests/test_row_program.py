"""A sweep row as one array program.

A row's ledgers (``row_flows``) and literal phases (``gp_row``) share the
factors of one model; every entry must equal the one-state call bit for bit,
or carry the error the one-state call raises.  The ledger kernel works from
(P, Q) and the states' constants alone, so it is also checked against the
evolved matrices: D against ``qstate.trace_distance``, sigma against a
difference quotient of D, positivity against the evolved Bloch vectors.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflow.channels import (MemoryKernelModel, MemoryKernelParams, TimeLocalModel,
                            TimeLocalParams, positivity_check)
from qflow.errors import NumericalError
from qflow.geomphase import gp_route, gp_row
from qflow.infoflow import flows, pair_flows, row_flows, sigma
from qflow.qstate import DensityMatrix, InitialStateSpec, initial_state, trace_distance

T = 2.0 * math.pi

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
@given(model=MODELS, specs=st.lists(STATES, min_size=1, max_size=6),
       reference=st.none() | STATES)
def test_row_entries_equal_the_one_state_calls(model, specs, reference):
    rho0s = [initial_state(spec) for spec in specs]
    ref = None if reference is None else initial_state(reference)
    with warnings.catch_warnings(record=True) as row_warned:
        warnings.simplefilter("always")
        ledgers = row_flows(rho0s, model, T, standard_state=ref)
        phases = gp_row(model, rho0s, T)
    assert len(ledgers) == len(phases) == len(rho0s)
    with warnings.catch_warnings(record=True) as one_warned:
        warnings.simplefilter("always")
        for rho0, ledger, phase in zip(rho0s, ledgers, phases):
            one = assert_same_entry(ledger, lambda: flows(rho0, model, T, standard_state=ref))
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
@given(model=MODELS, s1=STATES, s2=STATES, kind=st.sampled_from(["ground", "reference", "pair"]),
       frac=st.floats(0.05, 0.95))
def test_kernel_meets_the_evolved_matrices(model, s1, s2, kind, frac):
    rho1, rho2 = initial_state(s1), initial_state(s2)
    t, h = frac * T, 1e-3 * model.feature_scale()
    times = np.array([0.0, t - 2 * h, t - h, t, t + h, t + 2 * h, T])
    if kind == "pair":
        ledger = pair_flows(rho1, rho2, model, T, times)
        other = [evolved(model, rho2, s) for s in times]
    else:
        ref = model.steady_state() if kind == "ground" else rho2
        ledger = flows(rho1, model, T, standard_state=ref, times=times)
        other = [ref] * times.size
    want = [trace_distance(evolved(model, rho1, s), o) for s, o in zip(times, other)]
    assert np.max(np.abs(ledger.D - want)) <= 1e-14
    assert ledger.positivity == positivity_check(times, model.bloch_series(rho1, times))
    d = ledger.D[1:6]
    assume(np.min(d) > 1e-3)  # away from D = 0, where D has a kink
    five_point = (d[0] - 8.0 * d[1] + 8.0 * d[3] - d[4]) / (12.0 * h)
    assert abs(ledger.sigma[3] - five_point) <= 1e-7 * max(1.0, abs(five_point))
    if kind != "pair":  # one time: numpy's 0-d loops may round in the last bit
        assert sigma(t, model, rho1, ref) == pytest.approx(ledger.sigma[3], rel=1e-13,
                                                           abs=1e-300)
