import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from qflow.channels import (
    MemoryKernelModel,
    MemoryKernelParams,
    TimeLocalModel,
    TimeLocalParams,
    Trajectory,
    abs_c_squared,
)
from qflow.errors import ConfigError, DegenerateStateError, NumericalError
from qflow import geomphase
from qflow.geomphase import (
    BranchData,
    PhaseUndefinedError,
    WEIGHT_FLOOR,
    _pure_integrand_factory,
    _unwrapped_arg,
    assemble_phase,
    branch_data,
    circle_distance,
    figure_value,
    gp_closed,
    gp_flow_form,
    gp_mixed,
    gp_mixed_auto,
    gp_perturbative,
    gp_pure,
    kappa1,
    kappa2,
    phase_integrand,
    principal_value,
)
from qflow.analysis import figure_preset
from qflow.infoflow import flows
from qflow.qstate import (
    DensityMatrix,
    InitialStateSpec,
    bloch_trace_distance,
    eigenbasis,
    initial_state,
)

from .conftest import ledger_phase

T = 2.0 * math.pi


def tl_model(W, lam):
    return TimeLocalModel(TimeLocalParams(W, lam, 1.0))


class TestPhaseHelpers:
    def test_principal_value_range(self):
        assert principal_value(3.0 * math.pi) == pytest.approx(math.pi)
        assert principal_value(-math.pi) == pytest.approx(math.pi)  # (-pi, pi]
        assert principal_value(0.3) == pytest.approx(0.3)
        assert principal_value(-0.3 - 4.0 * math.pi) == pytest.approx(-0.3)

    @pytest.mark.parametrize("phase", [0.3, -0.0, math.pi, math.nextafter(-math.pi, 0.0)])
    def test_principal_value_keeps_a_canonical_phase(self, phase):
        # the same float, so a cell's phase_raw and phase_mod share it
        assert principal_value(phase) is phase

    def test_figure_value_range(self):
        assert figure_value(-math.pi / 2) == pytest.approx(1.5 * math.pi)
        assert figure_value(0.2) == pytest.approx(0.2)

    # -2.4e-32 mod 2 pi rounds to 2 pi, which lies outside [0, 2 pi)
    @pytest.mark.parametrize("phase,want", [(-2.4e-32, 0.0), (-0.0, 0.0), (math.pi, math.pi),
                                            (-math.pi, math.pi)])
    def test_figure_value_edges(self, phase, want):
        assert figure_value(phase) == want

    def test_circle_distance(self):
        assert circle_distance(0.1, 0.1 + 2.0 * math.pi) < 1e-15
        assert circle_distance(-math.pi + 0.05, math.pi - 0.05) == pytest.approx(0.1)


class TestGpClosed:
    def test_values(self):
        assert gp_closed(0.0) == pytest.approx(-2.0 * math.pi)
        assert gp_closed(math.pi) == pytest.approx(0.0, abs=1e-12)
        assert gp_closed(math.pi / 3) == pytest.approx(-1.5 * math.pi)

    def test_domain(self):
        with pytest.raises(ConfigError):
            gp_closed(4.0)


class TestGpMixedClosedSystem:
    @pytest.mark.parametrize("theta0", [0.0, math.pi / 6, math.pi / 3, math.pi / 2,
                                        2 * math.pi / 3, math.pi])
    def test_matches_closed_form_mod_2pi(self, theta0):
        model = tl_model(0.0, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, 0.5 * theta0, 0.3))
        result = gp_mixed_auto(model, rho0, T)
        assert circle_distance(result.phase, gp_closed(theta0)) < 1e-5

    def test_quasi_period_additivity(self):
        model = tl_model(0.0, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, 0.4, 0.1))
        one = gp_mixed_auto(model, rho0, T)
        two = gp_mixed_auto(model, rho0, 2.0 * T)
        assert circle_distance(two.phase, 2.0 * one.phase_raw) < 1e-5

    def test_diagonal_states_always_zero_mod_2pi(self):
        # theta0 = pi family: phase is 0 mod 2 pi for every R while N varies
        spec = InitialStateSpec(0.5, math.pi / 2, math.pi / 6)
        rho0 = initial_state(spec)
        for R in (0.1, 1.0, 3.0):
            result = gp_mixed_auto(tl_model(10.0, 10.0 / R), rho0, T)
            assert circle_distance(result.phase, 0.0) < 1e-9


class TestGpMixedGeneral:
    def test_self_oracle_step_halving(self):
        model = tl_model(0.1, 1.0 / 3.0)  # W = 0.1, R = 0.3
        rho0 = initial_state(InitialStateSpec(0.5, math.pi / 4, 0.0))
        coarse = gp_mixed(model.trajectory(rho0, np.linspace(0.0, T, 2001)), "literal", T)
        fine = gp_mixed(model.trajectory(rho0, np.linspace(0.0, T, 4001)), "literal", T)
        assert coarse.converged
        assert circle_distance(coarse.phase, fine.phase) < 1e-6

    def test_pure_state_minus_branch_suppressed(self):
        model = tl_model(0.2, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, 0.4, 0.7))
        times = np.linspace(0.0, T, 4001)
        traj = model.trajectory(rho0, times)
        full = gp_mixed(traj, "literal", T)
        assert full.weights["minus"] < 1e-14
        assert math.isnan(full.connection["minus"])
        # one-branch evaluation is bitwise identical
        plus = branch_data(traj, "literal")[0]
        raw, _, _ = assemble_phase(times, (plus,))
        assert raw == full.phase_raw

    def test_degenerate_center_rejected(self):
        model = tl_model(0.0, 1.0)
        rho0 = DensityMatrix.maximally_mixed()
        with pytest.raises(DegenerateStateError):
            gp_mixed(model.trajectory(rho0, np.linspace(0.0, T, 101)), "spectral", T)

    def test_degeneracy_crossing_names_time(self):
        # z = 0.5 population state crosses the ball center under strong decay
        model = tl_model(10.0, 20.0)
        rho0 = initial_state(InitialStateSpec(0.5, 0.0, 0.0))
        with pytest.raises(DegenerateStateError, match="t ="):
            gp_mixed(model.trajectory(rho0, np.linspace(0.0, T, 2001)), "literal", T)

    def test_non_finite_state_raises_on_first_rung(self):
        # cosh in the damping kernel overflows from t = 17.88 (lambda t > 1430)
        model = tl_model(5.0, 80.0)
        rho0 = initial_state(InitialStateSpec(1.0, 1.0))
        with mock.patch.object(geomphase, "gp_mixed", wraps=geomphase.gp_mixed) as spy, \
                np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="not finite at t = 17.88"):
            gp_mixed_auto(model, rho0, 6.0 * math.pi)
        assert spy.call_count == 1

    def test_zero_sum_is_reported(self):
        # spectral mode, closed system, theta0 = pi/2: endpoint overlap is
        # cos(theta0) = 0 on both branches at T, so the branch sum vanishes
        model = tl_model(0.0, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, math.pi / 4, 0.0))
        with pytest.raises(PhaseUndefinedError):
            gp_mixed(model.trajectory(rho0, np.linspace(0.0, T, 2001)), "spectral", T)

    def test_literal_needs_omega0_metadata(self):
        model = tl_model(0.3, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, 0.4, 0.0))
        t = np.linspace(0.0, T, 101)
        bare = Trajectory(t, model.states(rho0, t), "time-local", meta={})
        with pytest.raises(ConfigError):
            gp_mixed(bare, "literal", T)

    def test_horizon_mismatch_rejected(self):
        model = tl_model(0.3, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, 0.4, 0.0))
        traj = model.trajectory(rho0, np.linspace(0.0, T, 101))
        with pytest.raises(ConfigError):
            gp_mixed(traj, "literal", 0.5 * T)

    def test_gauge_invariance(self, rng):
        model = tl_model(0.5, 1.0)
        rho0 = initial_state(InitialStateSpec(0.7, 0.6, 1.1))
        times = np.linspace(0.0, T, 2001)
        branches = branch_data(model.trajectory(rho0, times), "literal")
        raw0, _, _ = assemble_phase(times, branches)
        for _ in range(3):
            a0, a1, b1 = rng.normal(size=3)
            alpha = a0 + a1 * np.sin(2.0 * math.pi * times / T + b1)
            regauged = tuple(
                BranchData(br.label, br.eps, br.vectors * np.exp(1j * alpha)[:, None])
                for br in branches
            )
            raw, _, _ = assemble_phase(times, regauged)
            assert circle_distance(raw, raw0) < 1e-8


def phase_case(memory, coupling, ratio, z, vt, vp):
    """A drawn model and initial state; C above 1/4 gives non-positive states too."""
    if memory:  # gamma0 = coupling, C = ratio
        model = MemoryKernelModel(MemoryKernelParams(coupling, coupling / ratio, 1.0))
    else:  # W = coupling, R = ratio
        model = tl_model(coupling, coupling / ratio)
    return model, initial_state(InitialStateSpec(z, vt, vp))


class TestEigenbasisProperty:
    """branch_data on a trajectory equals eigenbasis state by state."""

    @settings(max_examples=60, deadline=None)
    @given(memory=st.booleans(), coupling=st.floats(0.05, 5.0), ratio=st.floats(0.05, 3.0),
           z=st.floats(0.1, 1.0), vt=st.floats(0.05, 0.5 * math.pi - 0.05),
           vp=st.floats(0.0, 2.0 * math.pi), periods=st.floats(0.2, 3.0))
    # lambda = 80: the undamped kernel overflows past t = 17.9 (ROADMAP item 1)
    @example(memory=False, coupling=5.0, ratio=0.0625, z=1.0, vt=1.0, vp=0.0, periods=3.0)
    def test_branch_data_matches_eigenbasis(self, memory, coupling, ratio, z, vt, vp, periods):
        model, rho0 = phase_case(memory, coupling, ratio, z, vt, vp)
        times = np.linspace(0.0, periods * T, 97)
        traj = model.trajectory(rho0, times)
        finite = np.isfinite(traj.bloch()).all(axis=1)
        if not finite.all():  # no eigenbasis to compare: the first such state is named
            for mode in ("spectral", "literal"):
                with pytest.raises(NumericalError,
                                   match=f"not finite at t = {times[np.argmin(finite)]:.6g}"):
                    branch_data(traj, mode)
            return
        try:
            branches = {mode: branch_data(traj, mode) for mode in ("spectral", "literal")}
        except DegenerateStateError:
            assume(False)
        azimuth = traj.meta["omega0"] * times + traj.meta["phi0"]
        for k in range(times.size):
            bloch = traj.density(k).bloch().as_array()
            for mode, phase in (("spectral", None), ("literal", azimuth[k])):
                _, eps_plus, eps_minus, _, _, v_plus, v_minus = eigenbasis(bloch, mode, phase)
                plus, minus = branches[mode]
                assert plus.eps[k] == pytest.approx(eps_plus, abs=1e-15)
                assert minus.eps[k] == pytest.approx(eps_minus, abs=1e-15)
                assert np.max(np.abs(plus.vectors[k] - v_plus)) < 1e-14
                assert np.max(np.abs(minus.vectors[k] - v_minus)) < 1e-14
        # the spectral branch vectors are eigenvectors of the sampled matrices
        for br in branches["spectral"]:
            rho_v = np.einsum("nij,nj->ni", traj.states, br.vectors)
            assert np.max(np.abs(rho_v - br.eps[:, None] * br.vectors)) < 1e-10


# both models, both modes, z in (0, 1] and one or two quasi-periods
PHASE_CASES = dict(
    memory=st.booleans(), mode=st.sampled_from(("literal", "spectral")),
    coupling=st.floats(0.05, 5.0), ratio=st.floats(0.05, 3.0),
    z=st.floats(0.0, 1.0, exclude_min=True), vt=st.floats(0.05, 0.5 * math.pi - 0.05),
    vp=st.floats(0.0, 2.0 * math.pi), periods=st.integers(1, 2),
)


def reference_vectors(traj, mode):
    """(v_plus, v_minus) of every sample, stacked with np.stack from the Bloch angles."""
    b = traj.bloch()
    half = 0.5 * np.arctan2(np.hypot(b[:, 0], b[:, 1]), b[:, 2])
    c, s = np.cos(half), np.sin(half)
    if mode == "literal":
        c, s = s, c
        phase = traj.meta["omega0"] * traj.times + traj.meta["phi0"]
    else:
        phase = np.arctan2(b[:, 1], b[:, 0])
    ph = np.exp(1j * phase)
    return np.stack([c + 0j, s * ph], axis=-1), np.stack([-s + 0j, c * ph], axis=-1)


def reference_assemble(branches):
    """(raw, connection, overlaps) of assemble_phase, component sums by np.sum(axis=1)."""
    total = np.zeros(branches[0].eps.size, dtype=complex)
    connection, overlaps = {}, {}
    for br in branches:
        if math.sqrt(abs(br.eps[0] * br.eps[-1])) < WEIGHT_FLOOR:
            connection[br.label], overlaps[br.label] = math.nan, complex(math.nan, math.nan)
            continue
        steps = np.sum(np.conj(br.vectors[:-1]) * br.vectors[1:], axis=1)
        conn = np.concatenate([[0.0], np.cumsum(np.angle(steps))])
        endpoint = np.sum(np.conj(br.vectors[0]) * br.vectors, axis=1)
        total += np.sqrt(np.abs(br.eps[0] * br.eps)) * endpoint * np.exp(-1j * conn)
        connection[br.label] = float(conn[-1])
        overlaps[br.label] = complex(endpoint[-1])
    series = np.unwrap(np.angle(total))
    return float(series[-1] - series[0]), connection, overlaps


def same_values(a: dict, b: dict) -> bool:
    """Bitwise-equal floats per key; NaN (a suppressed branch) equals NaN."""
    return a.keys() == b.keys() and np.array_equal(list(a.values()), list(b.values()),
                                                   equal_nan=True)


class TestLadderOracle:
    """The ladder's result and the array assembly equal their from-scratch forms bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(**PHASE_CASES)
    def test_refined_rungs_equal_rebuilt_trajectory(self, memory, mode, coupling, ratio,
                                                    z, vt, vp, periods):
        model, rho0 = phase_case(memory, coupling, ratio, z, vt, vp)
        horizon = periods * T
        try:
            result = gp_mixed_auto(model, rho0, horizon, mode=mode)
        except NumericalError:
            assume(False)
        rebuilt = gp_mixed(model.trajectory(rho0, np.linspace(0.0, horizon, result.n_samples)),
                           mode=mode, T=horizon)
        before = gp_mixed(model.trajectory(rho0, np.linspace(0.0, horizon,
                                                             (result.n_samples + 1) // 2)),
                          mode=mode, T=horizon)
        assert result.phase_raw == rebuilt.phase_raw
        # the ladder's step test also reads the step before, at a quarter (h^2)
        assert result.step_change == max(rebuilt.step_change, before.step_change / 4.0)
        assert same_values(result.connection, rebuilt.connection)
        assert same_values(result.overlaps, rebuilt.overlaps)

    def test_an_unresolved_crossing_is_not_accepted(self):
        # near the ball center the change doubles with each rung while the grid
        # misses the crossing (4.6e-7 at 2001 samples, -9.2e-7 against the
        # resolved -2.353e-5), so the ladder must go on or report it unconverged
        model, rho0 = phase_case(False, 1.0, 1.0, 1e-8, 1.0, 0.0)
        closed = gp_flow_form(model, rho0, T)
        assert closed.phase == pytest.approx(-2.353e-5, abs=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ladder = gp_mixed_auto(model, rho0, T)
        assert not ladder.converged or circle_distance(ladder.phase, closed.phase) < 1e-6

    def test_nan_state_raises_naming_its_time(self):
        model, rho0 = phase_case(False, 0.3, 0.5, 0.8, 0.6, 0.2)
        fine = model.trajectory(rho0, np.linspace(0.0, T, 801))
        states = fine.states.copy()
        states[301] = np.nan
        broken = Trajectory(fine.times, states, fine.model, fine.meta)
        with pytest.raises(NumericalError, match=f"not finite at t = {fine.times[301]:.6g}"):
            gp_mixed(broken)

    @settings(max_examples=60, deadline=None)
    @given(**PHASE_CASES)
    def test_assemble_phase_equals_stacked_sums(self, memory, mode, coupling, ratio,
                                                z, vt, vp, periods):
        model, rho0 = phase_case(memory, coupling, ratio, z, vt, vp)
        times = np.linspace(0.0, periods * T, 2001)
        traj = model.trajectory(rho0, times)
        try:
            branches = branch_data(traj, mode)
            raw, _, details = assemble_phase(times, branches)
        except NumericalError:
            assume(False)
        stacked = tuple(BranchData(br.label, br.eps, v)
                        for br, v in zip(branches, reference_vectors(traj, mode)))
        for br, ref in zip(branches, stacked):
            assert np.array_equal(br.vectors, ref.vectors)
        ref_raw, ref_connection, ref_overlaps = reference_assemble(stacked)
        assert raw == ref_raw
        assert same_values(details["connection"], ref_connection)
        assert same_values(details["overlaps"], ref_overlaps)


class TestSimpson:
    """The flow form's Simpson helper is scipy's odd-count rule, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(1, 8000), stride=st.sampled_from([1, 2, 4]),
           n_states=st.integers(1, 4), dx=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
    @example(half=1, stride=1, n_states=1, dx=1.0, seed=0)
    @example(half=8000, stride=4, n_states=2, dx=2.0 * math.pi / 64000, seed=1)
    def test_equals_scipy(self, half, stride, n_states, dx, seed):
        # 2 half + 1 samples (3 to 16,001), read at a stride as the rung reads them
        base = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_states, stride * 2 * half + 1))
        y = base[:, ::stride]
        assert y.shape[-1] == 2 * half + 1
        got = geomphase._simpson(y, stride * dx)
        want = simpson(y, dx=stride * dx, axis=-1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 4, 2000])
    def test_even_count_raises(self, n):
        # scipy applies an end correction to an even count; the helper must not skip it silently
        with pytest.raises(ConfigError, match="odd sample count"):
            geomphase._simpson(np.ones((1, n)), 0.1)


class TestPhaseIntegrandProperty:
    """Three routes to the pure-state phase integrand agree pointwise."""

    @settings(max_examples=60, deadline=None)
    @given(theta0=st.floats(0.3, 3.0), R=st.floats(0.05, 5.0), W=st.floats(0.1, 3.0),
           frac=st.floats(0.01, 1.0))
    def test_bloch_ledger_and_pure_routes_agree(self, theta0, R, W, frac):
        p = TimeLocalParams(W, W / R, 1.0)
        spec = InitialStateSpec(1.0, 0.5 * theta0, 0.4)
        model = TimeLocalModel(p)
        rho0 = initial_state(spec)
        t = frac * T
        pure = _pure_integrand_factory(spec, p)(t)
        b = model.bloch_series(rho0, t)
        ground = DensityMatrix.ground().bloch().as_array()
        from_bloch = phase_integrand(bloch_trace_distance(b, ground), b[2], p.omega0)
        ledger = flows(rho0, model, t)  # the ledger ends at t
        polar = spec.to_polar()
        r_z = (1.0 + polar.r * math.cos(polar.theta)) * float(abs_c_squared(t, p)) - 1.0
        from_ledger = phase_integrand(ledger.D[0] + ledger.N[-1] - ledger.M[-1], r_z, p.omega0)
        assert from_bloch == pytest.approx(pure, abs=1e-12)
        # the ledger carries its identity residual (below 1e-8 even in fig5)
        assert from_ledger == pytest.approx(pure, abs=1e-8)

    def test_error_policy(self):
        # radicand = 4 D^2 - 2 r_z - 1: 1 - 0 - 1 = 0 is the ball center,
        # 0.25 - 0 - 1 < 0 pairs a distance with a z it cannot have
        with pytest.raises(DegenerateStateError):
            phase_integrand(np.array([0.6, 0.5]), np.array([0.0, 0.0]), 1.0)
        with pytest.raises(NumericalError) as info:
            phase_integrand(0.25, 0.0, 1.0)
        assert not isinstance(info.value, DegenerateStateError)


class TestGpPure:
    def test_closed_system_values(self):
        p = TimeLocalParams(0.0, 1.0, 1.0)
        assert gp_pure(InitialStateSpec(1.0, math.pi / 4, 0.0), p) == pytest.approx(
            -math.pi, abs=1e-8
        )
        assert gp_pure(InitialStateSpec(1.0, 0.0, 0.0), p) == pytest.approx(
            -2.0 * math.pi, abs=1e-8
        )

    def test_matches_gp_mixed(self):
        p = TimeLocalParams(0.1, 1.0, 1.0)
        spec = InitialStateSpec(1.0, math.pi / 4, 0.0)
        quadrature = gp_pure(spec, p)
        sampled = gp_mixed_auto(TimeLocalModel(p), initial_state(spec), T)
        assert circle_distance(quadrature, sampled.phase_raw) < 1e-6

    def test_rejects_mixed_states(self):
        with pytest.raises(ConfigError):
            gp_pure(InitialStateSpec(0.5, 0.3, 0.0), TimeLocalParams(0.1, 1.0, 1.0))

    def test_multiple_periods(self):
        p = TimeLocalParams(0.0, 1.0, 1.0)
        spec = InitialStateSpec(1.0, math.pi / 4, 0.0)
        assert gp_pure(spec, p, n=3) == pytest.approx(-3.0 * math.pi, abs=1e-8)


class TestGpFlowForm:
    def test_closed_system(self):
        model = tl_model(0.0, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, math.pi / 6, 0.0))  # theta0 = pi/3
        result = gp_flow_form(model, rho0, T)
        assert result.converged and result.mode == "literal"
        assert circle_distance(result.phase, gp_closed(math.pi / 3)) < 1e-9

    def test_radicand_equals_r_squared(self):
        p = TimeLocalParams(0.4, 1.0, 1.0)
        spec = InitialStateSpec(1.0, math.pi / 3, 0.2)
        model = TimeLocalModel(p)
        ledger = flows(initial_state(spec), model, T)
        d_eff = ledger.D[0] + ledger.N - ledger.M
        polar = spec.to_polar()
        a = 1.0 + polar.r * math.cos(polar.theta)
        x = np.asarray(abs_c_squared(ledger.times, p))
        r_z = a * x - 1.0
        radicand = 4.0 * d_eff**2 - 2.0 * r_z - 1.0
        r_sq = np.sum(model.bloch_series(initial_state(spec), ledger.times) ** 2, axis=-1)
        assert np.max(np.abs(radicand - r_sq)) < 1e-10

    def test_identity_with_gp_pure(self):
        # z = 1 at W = 10 on both sides of the fig5 phase maximum (R = 1.07);
        # the psi+ connection is the pure-state integral itself
        spec = InitialStateSpec(1.0, math.pi / 8, math.pi / 3)
        for R in (1.07, 2.0, 4.62):
            p = TimeLocalParams(10.0, 10.0 / R, 1.0)
            result = gp_flow_form(TimeLocalModel(p), initial_state(spec), T)
            pure = gp_pure(spec, p)
            assert result.weights["minus"] < WEIGHT_FLOOR
            assert abs(result.connection["plus"] + pure) < 1e-8
            assert circle_distance(result.phase, pure) < 1e-8

    def test_bad_horizon_and_tol_rejected(self):
        model, rho0 = tl_model(0.3, 1.0), initial_state(InitialStateSpec(1.0, math.pi / 3))
        for horizon, tol in ((0.0, 1e-6), (-T, 1e-6), (math.nan, 1e-6), (T, 0.0),
                             (T, math.nan)):
            with pytest.raises(ConfigError):
                gp_flow_form(model, rho0, horizon, tol)

    def test_ledger_relation(self):
        # the paper's relation for mixed states and both models: the ledger's
        # D(0) + N - M in phase_integrand gives the phase to within the
        # ledger's identity residual and the Simpson error of its own grid.
        # fig5 starts at row 3: at row 0 (lambda = 200) |c|^2 underflows to 0
        # from t = 3.7, a jump both Simpson sums straddle differently (3.8e-7;
        # ROADMAP item 1, test_channels' strict xfail at fig5 row 0)
        for name, rows in (("fig4", range(0, 40, 6)), ("fig5", range(3, 40, 6)),
                           ("fig8", range(0, 24, 4))):
            preset = figure_preset(name)
            for value in preset.values()[list(rows)]:
                model = preset.model_at(value)
                for _, state in preset.states():
                    rho0 = initial_state(state)
                    via_ledger = ledger_phase(flows(rho0, model, T), model, rho0)
                    assert circle_distance(via_ledger, gp_flow_form(model, rho0, T).phase) < 5e-8

    @pytest.mark.parametrize("model,rho0,horizon,error", [
        # a population state crosses the ball center between two samples
        (tl_model(10.0, 20.0), initial_state(InitialStateSpec(0.5, 0.0, 0.0)), T,
         DegenerateStateError),
        (tl_model(0.3, 1.0), DensityMatrix.maximally_mixed(), T, DegenerateStateError),
        # cosh in the damping kernel overflows from t = 17.88
        (tl_model(5.0, 80.0), initial_state(InitialStateSpec(1.0, 1.0)), 3.0 * T,
         NumericalError),
    ])
    def test_failures_match_the_ladder(self, model, rho0, horizon, error):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as ladder:
                gp_mixed_auto(model, rho0, horizon)
            with pytest.raises(error) as closed:
                gp_flow_form(model, rho0, horizon)
        assert type(closed.value) is type(ladder.value)
        assert str(closed.value) == str(ladder.value)

    def test_unconverged_warns(self):
        with pytest.warns(RuntimeWarning, match="not converged to 1e-15 after 7 doublings") as rec:
            result = gp_flow_form(tl_model(10.0, 10.0), initial_state(InitialStateSpec(1.0, 0.4)),
                                  T, 1e-15)
        assert not result.converged and result.n_samples == 256001
        assert [w.filename for w in rec] == [__file__]  # the route's caller


def partial_sum_oracle(model, rho0, result, horizon):
    """np.unwrap of the branch sum's partial sums in complex arithmetic, on ``result``'s grid.

    The series is the closed form's term by term: w+ (s0 s + c0 c e^{i omega0 t})
    e^{-i omega0 (t + I) / 2} plus, where its end weight reaches WEIGHT_FLOOR,
    w- (c0 c + s0 s e^{i omega0 t}) e^{-i omega0 (t - I) / 2}, with I the
    trapezoid integral of r_z / |r|.  Returns the phase_raw this path gives
    (the end phase recomputed from ``result``'s connections, overlaps and
    weights, moved by whole turns to within pi of the unwrapped path), the
    largest |step| of the path's Arg and the smallest |S|.
    """
    times = np.linspace(0.0, horizon, result.n_samples)
    omega0 = model.omega0
    (pop, q), _ = model.envelopes(times)
    p00, coh = rho0.matrix[0, 0].real, abs(rho0.matrix[0, 1])
    r_z = 2.0 * p00 * pop - 1.0
    transverse = 2.0 * coh * q
    r = np.sqrt(r_z * r_z + transverse * transverse)
    big = r + np.abs(r_z)
    small = transverse * transverse / big
    c = np.sqrt(np.where(r_z >= 0.0, big, small) / (2.0 * r))
    s = np.sqrt(np.where(r_z >= 0.0, small, big) / (2.0 * r))
    cos_theta = r_z / r
    running = np.concatenate([[0.0], np.cumsum(0.5 * (times[1] - times[0])
                                               * (cos_theta[:-1] + cos_theta[1:]))])
    rotation = np.exp(1j * omega0 * times)
    total = np.zeros(times.size, dtype=complex)
    for label, sign, near, far in (("plus", 1.0, s, c), ("minus", -1.0, c, s)):
        if math.isnan(result.connection[label]):
            continue
        eps = 0.5 * (1.0 + sign * r)
        total += (np.sqrt(np.abs(eps[0] * eps)) * (near[0] * near + far[0] * far * rotation)
                  * np.exp(-0.5j * omega0 * (times + sign * running)))
    path = np.unwrap(np.angle(total))
    raw_path = path[-1] - path[0]
    phase = cmath.phase(sum(result.weights[lb] * result.overlaps[lb]
                            * cmath.exp(-1j * result.connection[lb])
                            for lb in ("plus", "minus") if not math.isnan(result.connection[lb])))
    raw = raw_path + math.remainder(phase - raw_path, 2.0 * math.pi)
    return raw, float(np.max(np.abs(np.diff(path)))), float(np.min(np.abs(total)))


ATAN_HALF = math.atan(0.5)  # Arg of 1 + i / 2


def turns_ulp(result, raw):
    """One ulp of the larger of phase_raw ``raw``, the turns it adds to the principal value and pi.

    Both routes move the end phase by whole turns to within pi of their own
    unwrapped path, and round the difference (up to 6 pi here) once.
    """
    return math.ulp(max(abs(raw), abs(raw - result.phase), math.pi))


class TestUnwrappedArg:
    """The winding count of the closed form's branch sum on synthetic (R, J) paths."""

    @staticmethod
    def unwrap(re, im):
        return np.unwrap(np.angle(np.asarray(re) + 1j * np.asarray(im)))[-1]

    @settings(max_examples=100, deadline=None)
    @given(start=st.floats(-math.pi, math.pi), steps=st.lists(st.floats(-1.5, 1.5), min_size=1,
                                                              max_size=60),
           radius=st.lists(st.floats(0.01, 10.0), min_size=61, max_size=61))
    def test_equals_numpy_where_steps_are_small(self, start, steps, radius):
        # Arg moves by less than pi / 2 per step, and no sample lies on the real axis
        angle = start + np.concatenate([[0.0], np.cumsum(steps)])
        mod = np.array(radius[:angle.size])
        re, im = mod * np.cos(angle), mod * np.sin(angle)
        assume(np.abs(im).min() > 1e-9)
        got = _unwrapped_arg(re[None], im[None])
        assert got.shape == (1,)
        assert abs(got[0] - self.unwrap(re, im)) < 1e-12

    @pytest.mark.parametrize("re,im,want", [
        # crossings of the negative axis, from above (+2 pi) and from below
        ([1.0, -1.0, -1.0], [1.0, 0.5, -0.5], math.pi + ATAN_HALF),
        ([1.0, -1.0, -1.0], [-1.0, -0.5, 0.5], -math.pi - ATAN_HALF),
        ([-1.0, -1.0, -1.0, -1.0], [0.5, -0.5, 0.5, -0.5], math.pi + ATAN_HALF),
        # a zero J on the negative axis: crossed whatever its sign ...
        ([-1.0, -1.0, -1.0], [0.5, 0.0, -0.5], math.pi + ATAN_HALF),
        ([-1.0, -1.0, -1.0], [0.5, -0.0, -0.5], math.pi + ATAN_HALF),
        ([-1.0, -1.0, -1.0], [-0.5, 0.0, 0.5], -math.pi - ATAN_HALF),
        # ... touched and left on the same side, and ended on from either side
        ([-1.0, -1.0, -1.0], [0.5, -0.0, 0.5], math.pi - ATAN_HALF),
        ([-1.0, -1.0, -1.0], [-0.5, 0.0, -0.5], ATAN_HALF - math.pi),
        ([-1.0, -1.0], [0.5, -0.0], math.pi),
        ([-1.0, -1.0], [-0.5, 0.0], -math.pi),
        # the positive axis turns nothing
        ([1.0, 1.0, 1.0], [0.5, -0.5, 0.5], ATAN_HALF),
        # through the origin: a real path of either zero, and diagonal ones
        ([1.0, 0.5, 0.0, -0.5, -1.0], [0.0, -0.0, 0.0, -0.0, 0.0], math.pi),
        ([1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0], [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0],
         math.pi),
        ([1.0, 0.5, 0.0, -0.5, -1.0], [1.0, 0.5, 0.0, -0.5, -1.0], -0.75 * math.pi),
        ([-0.5, 0.5], [0.5, -0.5], -0.25 * math.pi),
        # a path that leaves the real axis only after the origin
        ([1.0, 0.0, -1.0, -1.0], [0.0, 0.0, -0.0, -0.5], ATAN_HALF - math.pi),
    ])
    def test_paths(self, re, im, want):
        got = _unwrapped_arg(np.array([re]), np.array([im]))
        assert got[0] == pytest.approx(want, abs=1e-15)

    def test_rows_wind_on_their_own(self):
        angle = np.linspace(0.0, 1.0, 400)[None] * np.array([[7.0], [-7.0], [0.5], [13.0]])
        got = _unwrapped_arg(np.cos(angle), np.sin(angle))
        assert got == pytest.approx([7.0, -7.0, 0.5, 13.0], abs=1e-12)


class TestPhaseRawOracle:
    """gp_flow_form's phase_raw equals the unwrapped complex partial-sum path to 1 ulp."""

    @settings(max_examples=60, deadline=None)
    @given(memory=st.booleans(), coupling=st.floats(0.05, 5.0),
           # R = 1/2 (time-local) and C = 1/4 (memory kernel) part damped from
           # oscillating envelopes: the ratio is a factor below or above its threshold
           factor=st.floats(0.1, 0.9) | st.floats(1.1, 10.0),
           z=st.floats(0.0, 1.0, exclude_min=True), vt=st.floats(0.0, 0.5 * math.pi),
           vp=st.floats(0.0, 2.0 * math.pi), periods=st.integers(1, 3))
    def test_equals_the_complex_path(self, memory, coupling, factor, z, vt, vp, periods):
        model, rho0 = phase_case(memory, coupling, factor * (0.25 if memory else 0.5), z, vt, vp)
        horizon = periods * T
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = gp_flow_form(model, rho0, horizon)
        except NumericalError:
            assume(False)
        want, step, _ = partial_sum_oracle(model, rho0, result, horizon)
        assume(step < 0.5 * math.pi)  # np.unwrap follows the path
        assert abs(result.phase_raw - want) <= turns_ulp(result, want)

    @pytest.mark.parametrize("name", ["fig1", "fig4", "fig5", "fig7", "fig8"])
    def test_phase_presets(self, name):
        # every second row: the path's largest Arg step is at most 0.12 (fig1)
        # and its smallest |S| at least 0.013, far from the count's ties
        preset = figure_preset(name)
        for value in preset.values()[::2]:
            model = preset.model_at(value)
            for label, state in preset.states():
                rho0 = initial_state(state)
                try:
                    result = gp_flow_form(model, rho0, T)
                except NumericalError:
                    continue
                want, step, low = partial_sum_oracle(model, rho0, result, T)
                assert step < 0.12 and low > 0.013, (value, label)
                assert abs(result.phase_raw - want) <= turns_ulp(result, want), (value, label)

    def test_a_real_branch_sum_has_no_winding(self):
        # W = 0 on the equator: S(t) = cos(omega0 t / 2) is real but for
        # rounding (|Im S| < 6e-16) and passes the origin at every odd multiple
        # of pi / omega0; its rounding would wind it either way, and phase_raw
        # is the principal value pi
        model = tl_model(0.0, 1.0)
        result = gp_flow_form(model, initial_state(InitialStateSpec(0.5, math.pi / 4, 0.0)),
                              3.0 * T)
        assert result.phase_raw == pytest.approx(math.pi, abs=1e-15)


class TestRouteAgreement:
    """The closed form and the doubling ladder give the same literal-mode phase."""

    @pytest.mark.filterwarnings("ignore:phase not converged:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(**{k: v for k, v in PHASE_CASES.items() if k != "mode"})
    @example(memory=False, coupling=1.0, ratio=1.0, z=1e-8, vt=1.0, vp=0.0, periods=1)
    # |r| = 9.99999999e-10 at t = 0, within rounding of DEGENERACY_EPS: both
    # routes must take it from the same |r| (eps+ - eps- reads 1.0000000272e-9)
    @example(memory=False, coupling=1.0, ratio=1.0, z=1e-9, vt=0.75, vp=0.0, periods=1)
    @example(memory=False, coupling=1.0, ratio=1.0, z=1e-9, vt=1.5, vp=0.0, periods=1)
    @example(memory=True, coupling=3.432829135853394, ratio=0.8473309351539028,
             z=0.07305136958955949, vt=0.00027773445664509567, vp=1.2643245051967966,
             periods=2)
    def test_agrees_with_the_ladder(self, memory, coupling, ratio, z, vt, vp, periods):
        model, rho0 = phase_case(memory, coupling, ratio, z, vt, vp)
        horizon = periods * T
        try:
            ladder = gp_mixed_auto(model, rho0, horizon)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as closed:
                gp_flow_form(model, rho0, horizon)
            assert type(closed.value) is type(exc)
            return
        closed = gp_flow_form(model, rho0, horizon)
        # an unconverged closed form (r_z / |r| steps across near the ball
        # center) adds its own last step change
        own = 1e-9 + (0.0 if closed.converged else closed.step_change)
        if circle_distance(closed.phase, ladder.phase) > ladder.step_change + own:
            # the ladder's step change estimates its error and does not bound it,
            # so where the routes differ by more the ladder at a tighter tol is
            # the oracle
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ladder = gp_mixed_auto(model, rho0, horizon, tol=1e-9)
        assert circle_distance(closed.phase, ladder.phase) <= ladder.step_change + own
        # the weights are square roots, so compare eps(0) eps(T)
        assert np.square(list(closed.weights.values())) == pytest.approx(
            np.square(list(ladder.weights.values())), abs=1e-12)

    @pytest.mark.parametrize("name,every", [("fig1", 3), ("fig4", 3), ("fig5", 3),
                                            ("fig7", 3), ("fig8", 1)])
    def test_presets(self, name, every):
        preset = figure_preset(name)
        for value in preset.values()[::every]:
            model = preset.model_at(value)
            for label, state in preset.states():
                rho0 = initial_state(state)
                try:
                    ladder = gp_mixed_auto(model, rho0, T)
                except NumericalError as exc:
                    with pytest.raises(NumericalError) as closed:
                        gp_flow_form(model, rho0, T)
                    assert type(closed.value) is type(exc), (value, label)
                    continue
                closed = gp_flow_form(model, rho0, T)
                assert circle_distance(closed.phase, ladder.phase) < 5e-7, (value, label)
                assert abs(closed.phase_raw - ladder.phase_raw) < 5e-7, (value, label)


class TestPerturbative:
    def test_kappa_values(self):
        # direct evaluation of the closed forms
        assert kappa1(1.0, T) == pytest.approx(1.0 - math.exp(-T) - T, abs=1e-14)
        assert kappa1(1.0, T) == pytest.approx(-5.285, abs=5e-4)
        assert kappa1(2.5, 4.0) < 0.0
        # kappa2 is the running integral of kappa1
        from scipy.integrate import quad

        val, _ = quad(lambda t: kappa1(1.3, t), 0.0, 5.0)
        assert kappa2(1.3, 5.0) == pytest.approx(val, abs=1e-10)

    def test_dx_dw2_is_twice_kappa1(self):
        # the derivative of |c|^2 in W^2 at W = 0 is 2 kappa1, not kappa1
        lam = 1.0
        w = 1e-4
        for t in (1.0, 3.0, T):
            fd = (float(abs_c_squared(t, TimeLocalParams(w, lam, 1.0))) - 1.0) / w**2
            assert fd == pytest.approx(2.0 * kappa1(lam, t), rel=1e-4)

    def test_zeroth_order_limit(self):
        spec = InitialStateSpec(0.5, math.pi / 4, math.pi / 3)
        terms = gp_perturbative(spec, TimeLocalParams(0.0, 1.0, 1.0))
        assert terms.total == terms.phi0

    def test_first_order_slope_matches_finite_difference(self):
        spec = InitialStateSpec(0.7, 0.5, 0.9)
        lam = 1.3
        w = 0.01
        n_s = 32769
        pert = gp_perturbative(spec, TimeLocalParams(w, lam, 1.0))
        rho0 = initial_state(spec)
        phi_w = gp_mixed(
            tl_model(w, lam).trajectory(rho0, np.linspace(0.0, T, n_s)), "literal", T
        ).phase_raw
        fd_slope = (phi_w - pert.phi0) / w**2
        formula_slope = (pert.total - pert.phi0) / w**2
        # agreement up to the O(W^2) contamination of the finite difference
        assert fd_slope == pytest.approx(formula_slope, rel=5e-3)

    def test_residual_shrinks_sixteen_fold(self):
        spec = InitialStateSpec(0.5, math.pi / 4, math.pi / 3)
        errs = {}
        for w in (0.04, 0.02):
            p = TimeLocalParams(w, 1.0, 1.0)
            pert = gp_perturbative(spec, p)
            phase = gp_mixed(
                TimeLocalModel(p).trajectory(initial_state(spec), np.linspace(0.0, T, 16385)),
                "literal", T,
            ).phase_raw
            errs[w] = circle_distance(phase, pert.total)
        assert 8.0 <= errs[0.04] / errs[0.02] <= 32.0

    def test_rejects_center_state(self):
        with pytest.raises(ConfigError, match="gp_mixed"):
            gp_perturbative(InitialStateSpec(0.0, 0.3, 0.0), TimeLocalParams(0.02, 1.0, 1.0))

    def test_zeroth_order_phase_is_pi_on_the_equator(self):
        # theta0 = pi/2: the free evolution's zeroth-order phase is pi on the circle
        spec = InitialStateSpec(0.5, math.pi / 4, 0.0)
        terms = gp_perturbative(spec, TimeLocalParams(0.0, 1.0, 1.0))
        assert circle_distance(terms.phi0, math.pi) < 1e-4


class TestModesDiffer:
    def test_literal_and_spectral_disagree_for_time_local(self):
        # the picture mismatch: the matrix azimuth advances at omega0/2 while
        # the closed-form convention assumes omega0; both are exposed
        model = tl_model(0.2, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, math.pi / 6, 0.0))
        lit = gp_mixed_auto(model, rho0, T, mode="literal")
        spe = gp_mixed_auto(model, rho0, T, mode="spectral")
        assert circle_distance(lit.phase, spe.phase) > 0.1

    def test_integrand_consistency_via_simpson(self):
        # -integral of the literal integrand over the ledger grid = gp_pure
        p = TimeLocalParams(0.25, 1.0, 1.0)
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        times = np.linspace(0.0, T, 4001)
        polar = spec.to_polar()
        a = 1.0 + polar.r * math.cos(polar.theta)
        b_sq = (polar.r * math.sin(polar.theta)) ** 2
        x = np.asarray(abs_c_squared(times, p))
        r_z = a * x - 1.0
        r = np.sqrt(r_z**2 + b_sq * x)
        integrand = 0.5 * (1.0 + r_z / r)
        assert -simpson(integrand, x=times) == pytest.approx(gp_pure(spec, p), abs=1e-7)
