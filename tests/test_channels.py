import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qflow.channels import (
    POLE_TOL,
    MemoryKernelModel,
    MemoryKernelParams,
    TimeLocalModel,
    TimeLocalParams,
    Trajectory,
    abs_c_squared,
    amplitude,
    decay_rates,
    first_amplitude_zero,
    lorentzian_density,
    master_equation_rhs,
    ode_oracle_memory_kernel_path,
    ode_oracle_time_local_path,
    positivity_check,
    sample_times,
    _damping_kernel,
    xi,
)
from qflow.errors import ConfigError, NumericalError, PoleError, StepSizeError
from qflow.qstate import DensityMatrix, InitialStateSpec, initial_state

T_PERIOD = 2.0 * math.pi
EQUATOR = InitialStateSpec(1.0, math.pi / 4, math.pi / 3)  # theta0 = pi/2


def reference_c_squared(t: float, W: float, lam: float) -> float:
    """Direct trig/hyperbolic evaluation, independent of the library helpers."""
    om_sq = lam * lam - 4.0 * W * W
    if om_sq >= 0.0:
        om = math.sqrt(om_sq)
        g = math.cosh(0.5 * om * t) + (
            0.5 * lam * t if om == 0.0 else lam / om * math.sinh(0.5 * om * t)
        )
    else:
        om = math.sqrt(-om_sq)
        g = math.cos(0.5 * om * t) + lam / om * math.sin(0.5 * om * t)
    return math.exp(-lam * t) * g * g


class TestLorentzian:
    def test_peak(self):
        p = TimeLocalParams(0.7, 1.3, 1.0)
        assert lorentzian_density(1.0, p) == pytest.approx(0.49 / (math.pi * 1.3), rel=1e-14)

    def test_tails_vanish(self):
        p = TimeLocalParams(0.7, 1.3, 1.0)
        assert lorentzian_density(1e8, p) < 1e-15
        assert lorentzian_density(-1e8, p) < 1e-15

    def test_total_weight_is_w_squared(self):
        # adaptive quadrature vs the residue identity int J = W^2
        p = TimeLocalParams(0.8, 2.0, 1.0)
        val, err = quad(lambda w: lorentzian_density(w, p), -np.inf, np.inf)
        assert val == pytest.approx(p.W**2, abs=1e-9)


class TestAmplitude:
    def test_initial_conditions(self):
        p = TimeLocalParams(0.6, 1.0, 1.0)
        gamma_t, delta_t = decay_rates(0.0, p)
        assert complex(amplitude(0.0, p)) == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert float(gamma_t) == pytest.approx(0.0, abs=1e-14)
        assert float(delta_t) == pytest.approx(0.5 * p.omega0, abs=1e-14)
        # cdot(0) = -i omega0 / 2
        assert complex(TimeLocalModel(p).rates(0.0)[1]) == pytest.approx(-0.5j, abs=1e-14)

    def test_zero_coupling_keeps_unit_modulus(self):
        p = TimeLocalParams(0.0, 1.7, 1.0)
        t = np.linspace(0.0, 40.0, 500)
        assert np.max(np.abs(np.abs(amplitude(t, p)) - 1.0)) < 1e-12

    def test_r_equals_one_sample_value(self):
        # |c(1)|^2 at W = lambda = omega0 = 1 against a from-scratch evaluation
        p = TimeLocalParams(1.0, 1.0, 1.0)
        expected = math.exp(-1.0) * (math.cos(math.sqrt(3) / 2)
                                     + math.sin(math.sqrt(3) / 2) / math.sqrt(3)) ** 2
        assert expected == pytest.approx(0.435, abs=5e-4)  # headline value
        assert float(abs_c_squared(1.0, p)) == pytest.approx(expected, abs=1e-13)

    def test_matches_reference_across_regimes(self):
        for W, lam in ((0.3, 2.0), (0.5, 1.0), (1.0, 1.0), (2.0, 0.5)):
            p = TimeLocalParams(W, lam, 1.0)
            for t in (0.1, 0.7, 1.9, 4.2):
                assert float(abs_c_squared(t, p)) == pytest.approx(
                    reference_c_squared(t, W, lam), abs=1e-12
                )

    def test_branch_point_continuity(self):
        # R = 1/2 +- 1e-8 and R = 1/2 exactly agree to 1e-6 over a period
        lam = 1.0
        t = np.linspace(0.0, T_PERIOD, 257)
        below = amplitude(t, TimeLocalParams(lam * (0.5 - 1e-8), lam, 1.0))
        above = amplitude(t, TimeLocalParams(lam * (0.5 + 1e-8), lam, 1.0))
        at = amplitude(t, TimeLocalParams(0.5 * lam, lam, 1.0))
        assert np.max(np.abs(below - above)) < 1e-6
        assert np.max(np.abs(at - below)) < 1e-6

    def test_pole_raises(self):
        p = TimeLocalParams(2.0, 1.0, 1.0)
        t0 = first_amplitude_zero(p)
        with pytest.raises(PoleError):
            decay_rates(t0, p)

    def test_first_zero_only_above_half(self):
        assert first_amplitude_zero(TimeLocalParams(0.3, 1.0, 1.0)) is None
        t0 = first_amplitude_zero(TimeLocalParams(2.0, 1.0, 1.0))
        assert abs(complex(amplitude(t0, TimeLocalParams(2.0, 1.0, 1.0)))) < 1e-12

    def test_modulus_monotone_iff_markovian(self):
        t = np.linspace(0.0, 3.0 * T_PERIOD, 4001)
        for R in (0.1, 0.3, 0.5):
            p = TimeLocalParams(R, 1.0, 1.0)
            assert np.all(np.asarray(TimeLocalModel(p).rates(t)[0]) <= 1e-15)
        p = TimeLocalParams(2.0, 1.0, 1.0)
        dx = np.asarray(TimeLocalModel(p).rates(t)[0])
        assert np.any(dx > 1e-6) and np.any(dx < -1e-6)

    def test_derivative_matches_finite_difference(self):
        p = TimeLocalParams(0.8, 1.1, 1.0)
        h = 1e-6
        for t in (0.3, 1.2, 2.9):
            fd = (float(abs_c_squared(t + h, p)) - float(abs_c_squared(t - h, p))) / (2 * h)
            assert float(TimeLocalModel(p).rates(t)[0]) == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(W=st.floats(0.01, 20.0), R=st.floats(0.02, 5.0), u=st.floats(0.0, 1.0))
    def test_abs_c_squared_is_the_squared_modulus(self, W, R, u):
        # up to lambda t = 700 exp(-lambda t) is a normal double; products
        # that fall below 1e-300 near a zero of c are compared absolutely
        p = TimeLocalParams(W, W / R, 1.0)
        t = u * min(700.0 / p.lam, 4.0 * T_PERIOD)
        assert float(abs_c_squared(t, p)) == pytest.approx(
            abs(complex(amplitude(t, p))) ** 2, rel=1e-13, abs=1e-300)

    @pytest.mark.xfail(strict=True, reason="exp(-lambda t) is subnormal past lambda t = 708, "
                       "so |c|^2 = exp(-lambda t) g^2 loses its digits, and reads 0 "
                       "from t = 3.73 on")
    def test_abs_c_squared_at_fig5_row_0(self):
        # W = 10, lambda = 200 (R = 0.05): at t = 3.7 |c|^2 reads 0.0246819
        # against 0.0246183, at 5T/8 it reads 0 against 0.0196078
        p = TimeLocalParams(10.0, 200.0, 1.0)
        t = np.array([3.7, 5.0 * T_PERIOD / 8.0])
        np.testing.assert_allclose(abs_c_squared(t, p), np.abs(amplitude(t, p)) ** 2,
                                   rtol=1e-13)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="cosh(Omega t / 2) in the undamped envelope g overflows: at "
                       "W = 5, lambda = 100 the states are NaN from t = 14.33 on "
                       "(ROADMAP item 1)")
    def test_trajectory_finite_where_the_envelope_overflows(self):
        # a draw of test_branch_data_matches_eigenbasis (W = 5, R = 0.05, three
        # quasi-periods on 97 samples) that raises NumericalError on 24 NaN states
        model = TimeLocalModel(TimeLocalParams(5.0, 100.0, 1.0))
        traj = model.trajectory(initial_state(EQUATOR), np.linspace(0.0, 3.0 * T_PERIOD, 97))
        assert np.isfinite(traj.states).all()

    def test_decay_rates_are_the_log_derivative(self):
        # Gamma = -Re(cdot / c) and Delta = -Im(cdot / c)
        p = TimeLocalParams(0.45, 1.0, 1.0)
        t = np.linspace(0.0, T_PERIOD, 201)
        gamma_t, delta_t = decay_rates(t, p)
        ratio = TimeLocalModel(p).rates(t)[1] / amplitude(t, p)
        assert np.max(np.abs(gamma_t + ratio.real)) < 1e-12
        assert np.max(np.abs(delta_t + ratio.imag)) < 1e-12

    def test_decay_rate_pole_names_the_first_zero(self):
        p = TimeLocalParams(2.0, 1.0, 1.0)
        t0 = first_amplitude_zero(p)
        t1 = t0 + 2.0 * math.pi / abs(p.Omega.imag)  # the second zero of c
        assert abs(complex(amplitude(t1, p))) < 1e-12
        with pytest.raises(PoleError, match=f"t = {t0!r}$"):
            decay_rates(np.array([0.0, 0.5 * t0, t0, t1]), p)


class TestXi:
    def test_at_zero_time(self):
        for C in (0.0, 0.1, 0.25, 1.0):
            assert float(xi(C, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_zero_dissipation(self):
        tau = np.linspace(0.0, 30.0, 200)
        assert np.max(np.abs(np.asarray(xi(0.0, tau)) - 1.0)) < 1e-12

    def test_critical_quarter_series(self):
        # Omega -> 0 limit: xi = exp(-tau/2) (1 + tau/2); cross-check at Omega = 1e-6
        tau = np.linspace(0.0, 10.0, 101)
        closed = np.exp(-0.5 * tau) * (1.0 + 0.5 * tau)
        assert np.max(np.abs(np.asarray(xi(0.25, tau)) - closed)) < 1e-12
        c_near = (1.0 - 1e-12) / 4.0  # Omega = 1e-6
        assert np.max(np.abs(np.asarray(xi(c_near, tau)) - closed)) < 1e-9

    def test_rejects_negative_c(self):
        with pytest.raises(ConfigError):
            xi(-0.1, 1.0)


class TestTimeLocalPropagation:
    def test_identity_at_zero(self):
        rho0 = initial_state(EQUATOR)
        p = TimeLocalParams(0.7, 1.0, 1.0)
        assert DensityMatrix(TimeLocalModel(p).states(rho0, 0.0)).isclose(rho0, 1e-15)

    def test_relaxes_to_ground(self):
        p = TimeLocalParams(0.3, 1.0, 1.0)  # R < 1/2
        rho = DensityMatrix(TimeLocalModel(p).states(initial_state(EQUATOR), 300.0))
        assert rho.isclose(DensityMatrix.ground(), 1e-10)
        b = rho.bloch()
        assert (b.x, b.y, b.z) == pytest.approx((0.0, 0.0, -1.0), abs=1e-10)

    def test_trace_and_hermiticity_preserved(self):
        p = TimeLocalParams(1.0, 0.25, 1.0)  # R = 4
        model = TimeLocalModel(p)
        states = model.states(initial_state(EQUATOR), np.linspace(0.0, T_PERIOD, 500))
        assert np.max(np.abs(states[:, 0, 0] + states[:, 1, 1] - 1.0)) < 1e-12
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) < 1e-12

    def test_positivity_preserved(self):
        p = TimeLocalParams(2.0, 1.0, 1.0)
        model = TimeLocalModel(p)
        traj = model.trajectory(initial_state(EQUATOR), np.linspace(0.0, 2 * T_PERIOD, 2001))
        assert positivity_check(traj.times, traj.bloch()).ok

    def test_against_ode_oracle_r1(self):
        p = TimeLocalParams(0.3, 0.3, 1.0)  # R = 1, first c-zero beyond one period
        rho0 = initial_state(EQUATOR)
        oracle = ode_oracle_time_local_path(rho0, T_PERIOD, p)
        ana = TimeLocalModel(p).states(rho0, oracle.times)
        assert np.max(np.abs(oracle.states - ana)) < 1e-6

    def test_arbitrary_initial_state_accepted(self, rng):
        # the closed form is re-derived from the matrix, not restricted to the family
        from .conftest import density_of, random_bloch_array

        p = TimeLocalParams(0.4, 1.0, 1.0)
        rho0 = density_of(random_bloch_array(rng, 1)[0])
        out = DensityMatrix(TimeLocalModel(p).states(rho0, 1.3))
        x = float(abs_c_squared(1.3, p))
        assert out.matrix[0, 0].real == pytest.approx(rho0.matrix[0, 0].real * x, abs=1e-14)


class TestTimeLocalOracle:
    def test_zero_coupling_keeps_populations(self):
        p = TimeLocalParams(0.0, 1.0, 1.0)
        rho0 = initial_state(InitialStateSpec(0.8, 0.6, 0.2))
        traj = ode_oracle_time_local_path(rho0, T_PERIOD, p)
        pops = traj.states[:, 0, 0].real
        assert np.max(np.abs(pops - pops[0])) < 1e-10
        # coherence modulus also constant, phase advances
        coh = traj.states[:, 0, 1]
        assert np.max(np.abs(np.abs(coh) - np.abs(coh[0]))) < 1e-10

    def test_weak_coupling_matches_closed_form(self):
        p = TimeLocalParams(0.1, 1.0, 1.0)  # R = 0.1
        rho0 = initial_state(EQUATOR)
        traj = ode_oracle_time_local_path(rho0, T_PERIOD, p)
        ana = TimeLocalModel(p).states(rho0, traj.times)
        assert np.max(np.abs(traj.states - ana)) < 1e-6

    def test_closed_form_satisfies_master_equation(self):
        # symbolic-numeric residual: substitute the closed form into the RHS
        p = TimeLocalParams(0.45, 1.0, 1.0)
        rho0 = initial_state(InitialStateSpec(0.9, 0.5, 1.1))
        model = TimeLocalModel(p)
        for t in (0.2, 1.0, 2.5, 5.0):
            state = model.states(rho0, t)
            lhs = model.state_dot(rho0, t)
            gamma_t, delta_t = decay_rates(t, p)
            rhs = master_equation_rhs(state, gamma_t, delta_t)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_pole_inside_horizon_rejected(self):
        p = TimeLocalParams(2.0, 1.0, 1.0)
        with pytest.raises(PoleError):
            ode_oracle_time_local_path(initial_state(EQUATOR), T_PERIOD, p)

    def test_coarse_step_rejected(self):
        p = TimeLocalParams(0.4, 1.0, 1.0)
        with pytest.raises(StepSizeError):
            ode_oracle_time_local_path(initial_state(EQUATOR), T_PERIOD, p, dt=2.0)


class TestMemoryKernelPropagation:
    def test_identity_at_zero(self):
        rho0 = initial_state(EQUATOR)
        p = MemoryKernelParams(0.1, 1.0, 1.0)
        assert DensityMatrix(MemoryKernelModel(p).states(rho0, 0.0)).isclose(rho0, 1e-15)

    def test_against_oracle_smooth_regime(self):
        p = MemoryKernelParams(0.1, 1.0, 1.0)  # C = 0.1
        rho0 = initial_state(EQUATOR)
        oracle = ode_oracle_memory_kernel_path(rho0, 3.0, p)
        ana = MemoryKernelModel(p).states(rho0, oracle.times)
        assert np.max(np.abs(oracle.states - ana)) < 1e-6

    def test_against_oracle_oscillatory_regime(self):
        p = MemoryKernelParams(1.0, 1.0, 1.0)  # C = 1
        rho0 = initial_state(EQUATOR)
        oracle = ode_oracle_memory_kernel_path(rho0, T_PERIOD, p)
        ana = MemoryKernelModel(p).states(rho0, oracle.times)
        assert np.max(np.abs(oracle.states - ana)) < 1e-5

    def test_zero_dissipation_is_free_rotation(self):
        p = MemoryKernelParams(0.0, 1.0, 1.0)
        rho0 = initial_state(EQUATOR)
        traj = ode_oracle_memory_kernel_path(rho0, 2.0, p)
        pops = traj.states[:, 0, 0].real
        assert np.max(np.abs(pops - pops[0])) < 1e-12
        expected = rho0.matrix[0, 1] * np.exp(-1j * traj.times)
        assert np.max(np.abs(traj.states[:, 0, 1] - expected)) < 1e-10

    def test_trace_preserved(self):
        p = MemoryKernelParams(1.0, 1.0, 1.0)
        states = MemoryKernelModel(p).states(
            initial_state(EQUATOR), np.linspace(0.0, 20.0, 800)
        )
        assert np.max(np.abs(states[:, 0, 0] + states[:, 1, 1] - 1.0)) < 1e-12

    def test_c_one_goes_negative(self):
        # populations cross zero where xi(1, tau) does: tau = 4 pi / (3 sqrt(3))
        p = MemoryKernelParams(1.0, 1.0, 1.0)
        model = MemoryKernelModel(p)
        traj = model.trajectory(DensityMatrix.excited(), np.linspace(0.0, 20.0, 4001))
        report = positivity_check(traj.times, traj.bloch())
        assert not report.ok
        assert report.first_violation_time == pytest.approx(
            4.0 * math.pi / (3.0 * math.sqrt(3.0)), abs=0.02
        )
        assert report.min_eigenvalue < -1e-3

    def test_small_c_population_probes_stay_positive(self):
        for C in (0.05, 0.1, 0.2):
            p = MemoryKernelParams(C, 1.0, 1.0)
            model = MemoryKernelModel(p)
            for rho0 in (DensityMatrix.excited(), DensityMatrix.ground()):
                traj = model.trajectory(rho0, np.linspace(0.0, 20.0, 4001))
                assert positivity_check(traj.times, traj.bloch()).ok

    def test_c_02_coherent_probe_violation_is_real(self):
        # Coherences relax with xi(C/2, tau) and outlive the populations, so a
        # maximally coherent state leaves the Bloch ball at late times even for
        # C < 1/4.  The independent integrator reproduces the same violation,
        # so this is a property of the equation, not of the closed form.
        p = MemoryKernelParams(0.2, 1.0, 1.0)
        rho0 = initial_state(EQUATOR)
        traj = MemoryKernelModel(p).trajectory(rho0, np.linspace(0.0, 20.0, 4001))
        report = positivity_check(traj.times, traj.bloch())
        assert not report.ok
        assert report.first_violation_time == pytest.approx(17.58, abs=0.1)
        oracle = ode_oracle_memory_kernel_path(rho0, 20.0, p)
        assert not positivity_check(oracle.times, oracle.bloch()).ok


class TestStackedPositivity:
    # few distinct components, so argmin ties and |r| > 1 + 2e-9 violations are common
    COMPONENT = (st.sampled_from([0.0, 0.5, -0.5, 1.0, 1.0 + 1e-9, 1.0 + 1e-8])
                 | st.floats(-1.2, 1.2))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5), n=st.integers(1, 9))
    def test_stacked_reports_equal_the_one_trajectory_calls(self, data, k, n):
        bloch = np.array(data.draw(st.lists(self.COMPONENT, min_size=3 * k * n,
                                            max_size=3 * k * n))).reshape(k, n, 3)
        times = np.cumsum(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        stacked = positivity_check(times, bloch)
        assert stacked == [positivity_check(times, one) for one in bloch]

    def test_ties_and_first_violation_per_entry(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        ok_row = [[0, 0, 0.5], [0, 0, 0.9], [0, 0, 0.2], [0, 0, 0.9]]  # tie at t = 1, 3
        bad_row = [[0, 0, 0.5], [1.0, 0.5, 0], [0, 0, 1.0], [0.5, 1.0, 0]]  # tie at t = 1, 3
        stacked = positivity_check(times, np.array([ok_row, bad_row], dtype=float))
        assert [(r.ok, r.argmin_time, r.first_violation_time) for r in stacked] == [
            (True, 1.0, None), (False, 1.0, 1.0)]
        assert stacked == [positivity_check(times, np.array(row, dtype=float))
                           for row in (ok_row, bad_row)]


class TestTrajectoryType:
    def test_requires_zero_start(self):
        states = np.broadcast_to(np.eye(2, dtype=complex) * 0.5, (3, 2, 2))
        with pytest.raises(ConfigError):
            Trajectory(np.array([0.1, 0.2, 0.3]), states, "x")

    def test_requires_increasing_times(self):
        states = np.broadcast_to(np.eye(2, dtype=complex) * 0.5, (3, 2, 2))
        with pytest.raises(ConfigError):
            Trajectory(np.array([0.0, 0.2, 0.2]), states, "x")

    def test_sample_grid_is_odd(self):
        model = TimeLocalModel(TimeLocalParams(0.5, 1.0, 1.0))
        assert sample_times(model, T_PERIOD).size % 2 == 1

    def test_grid_above_the_cap_raises(self):
        # W = 10, R = 0.005: 40 samples per 1 / lambda over one period
        model = TimeLocalModel(TimeLocalParams(10.0, 2000.0, 1.0))
        with pytest.raises(NumericalError, match="needs 502656 samples"):
            sample_times(model, T_PERIOD)

    def test_accessors(self):
        model = TimeLocalModel(TimeLocalParams(0.5, 1.0, 1.0))
        rho0 = initial_state(EQUATOR)
        traj = model.trajectory(rho0, np.linspace(0.0, 1.0, 11))
        assert len(traj) == 11
        assert traj.initial().isclose(rho0, 1e-14)
        assert traj.final().isclose(DensityMatrix(model.states(rho0, 1.0)), 1e-14)


class TestParamValidation:
    def test_time_local(self):
        with pytest.raises(ConfigError):
            TimeLocalParams(-0.1, 1.0)
        with pytest.raises(ConfigError):
            TimeLocalParams(0.1, 0.0)
        assert TimeLocalParams(1.0, 2.0).R == 0.5
        assert TimeLocalParams(1.0, 1.0).Omega == pytest.approx(cmath.sqrt(-3))

    def test_memory_kernel(self):
        with pytest.raises(ConfigError):
            MemoryKernelParams(-1.0, 1.0)
        with pytest.raises(ConfigError):
            MemoryKernelParams(0.1, 0.0)
        p = MemoryKernelParams(0.5, 2.0)
        assert p.C == 0.25
        assert p.tau_R == 0.5
        assert float(p.tau(3.0)) == 6.0


_INITIAL_AND_TIME = dict(
    z=st.floats(0.0, 1.0), vt=st.floats(0.0, math.pi),
    vp=st.floats(0.0, 2.0 * math.pi), t=st.floats(0.01, 10.0),
)


def assert_state_dot_matches_difference(model, rho0, t):
    h = 1e-5 * model.feature_scale()
    fd = (model.states(rho0, t + h) - model.states(rho0, t - h)) / (2.0 * h)
    err = np.max(np.abs(model.state_dot(rho0, t) - fd))
    assert err < 1e-7 / model.feature_scale()


class TestStateDot:
    """Analytic state derivatives against a centered difference of the states."""

    @settings(max_examples=100, deadline=None)
    @given(R=st.floats(0.05, 0.5) | st.floats(0.5, 3.0), W=st.floats(0.1, 2.0),
           **_INITIAL_AND_TIME)
    def test_time_local(self, R, W, z, vt, vp, t):
        model = TimeLocalModel(TimeLocalParams(W, W / R, 1.0))
        assert_state_dot_matches_difference(model, initial_state(InitialStateSpec(z, vt, vp)), t)

    @settings(max_examples=100, deadline=None)
    @given(C=st.floats(0.01, 0.25) | st.floats(0.25, 1.5), gamma=st.floats(0.2, 2.0),
           **_INITIAL_AND_TIME)
    def test_memory_kernel(self, C, gamma, z, vt, vp, t):
        model = MemoryKernelModel(MemoryKernelParams(C * gamma, gamma, 1.0))
        assert_state_dot_matches_difference(model, initial_state(InitialStateSpec(z, vt, vp)), t)


def assert_shared_evaluation_equal(model, t):
    """``factors_and_rates`` equals ``factors`` and ``rates``, element for element."""
    P, Q, (p_dot, q_dot) = model.factors_and_rates(t)
    want = (*model.factors(t), *model.rates(t))
    assert [a.tobytes() for a in (P, Q, p_dot, q_dot)] == [w.tobytes() for w in want]


# ratios at, and within a hair of, the thresholds R = 1/2 and C = 1/4, where
# |Om t / 2| crosses the sinhc series cutoff on [0, 20]
NEAR_THRESHOLD = st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-9, -1e-9])
TIMES = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40).map(np.array)


class TestSharedKernelEvaluation:
    """One kernel evaluation gives the factors and rates the separate calls give."""

    @pytest.mark.parametrize("make", [
        lambda: TimeLocalModel(TimeLocalParams(1.0, 2.0 / (1.0 + 1e-12), 1.0)),
        lambda: MemoryKernelModel(MemoryKernelParams(0.25 * (1.0 + 1e-12), 1.0, 1.0)),
    ], ids=["time-local", "memory-kernel"])
    def test_across_the_series_cutoff(self, make):
        model = make()
        t = np.linspace(0.0, 20.0, 2001)
        u = 0.5 * abs(model.params.Omega) * t  # gamma = 1: tau = t
        assert u[1] < 1e-6 < u[-1]  # both branches of the sinhc are taken
        assert_shared_evaluation_equal(model, t)
        assert_shared_evaluation_equal(model, 7.5)

    @settings(max_examples=60, deadline=None)
    @given(W=st.floats(0.1, 3.0), R=st.floats(0.05, 3.0) | NEAR_THRESHOLD.map(
        lambda d: 0.5 * (1.0 + d)), t=TIMES)
    def test_time_local(self, W, R, t):
        assert_shared_evaluation_equal(TimeLocalModel(TimeLocalParams(W, W / R, 1.3)), t)

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(0.2, 2.0), C=st.floats(0.01, 1.5) | NEAR_THRESHOLD.map(
        lambda d: 0.25 * (1.0 + d)), t=TIMES)
    def test_memory_kernel(self, gamma, C, t):
        assert_shared_evaluation_equal(
            MemoryKernelModel(MemoryKernelParams(C * gamma, gamma, 0.8)), t)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), W=st.floats(0.1, 3.0),
           ratios=st.lists(st.floats(0.05, 3.0) | NEAR_THRESHOLD.map(lambda d: 0.5 * (1.0 + d)),
                           min_size=1, max_size=8))
    def test_time_local_stack(self, data, W, ratios):
        # one time per set, as a bisection round over several models evaluates them
        t = data.draw(st.lists(st.floats(0.0, 20.0), min_size=len(ratios),
                               max_size=len(ratios)).map(np.array))
        stack = TimeLocalParams.stack(TimeLocalParams(W, W / R, 1.0) for R in ratios)
        assert_shared_evaluation_equal(TimeLocalModel(stack), t)


EPS = np.finfo(float).eps


def complex_kernel(t, rate, w_sq):
    """The damping kernel in complex arithmetic, with no branch split: the oracle.

    Returns (g, gdot, sinhc) and the magnitudes of the terms each sum adds:
    |cosh| + |rate t sinhc / 2| for g, |rate cosh / 2| + |Om^2 t sinhc / 4| for gdot.
    """
    t = np.asarray(t, dtype=float)
    omega_sq = rate * rate - 4.0 * w_sq
    u = 0.5 * np.sqrt(np.asarray(omega_sq, dtype=complex)) * t
    small = np.abs(u) < 1e-6
    safe = np.where(small, 1.0, u)
    u_sq = u * u
    sc = np.where(small, 1.0 + u_sq / 6.0 + u_sq * u_sq / 120.0, np.sinh(safe) / safe)
    ch = np.cosh(u)
    g_terms = (ch, 0.5 * rate * t * sc)
    gdot_terms = (0.5 * rate * ch, 0.25 * omega_sq * t * sc)
    return ((sum(g_terms).real, sum(gdot_terms).real, sc.real),
            (sum(np.abs(x) for x in g_terms), sum(np.abs(x) for x in gdot_terms), np.abs(sc)))


def assert_kernel_matches_the_complex_one(t, rate, w_sq):
    got = _damping_kernel(t, rate, w_sq)
    want, scale = complex_kernel(t, rate, w_sq)
    for name, g, w, s in zip(("g", "gdot", "sinhc"), got, want, scale):
        assert np.shape(g) == np.shape(w), name
        # a few ulps of the terms: g and gdot cancel near their zeros
        assert np.all(np.abs(g - w) <= 4.0 * EPS * s), name


# Om^2 = rate^2 d: exactly 0, within a hair of 0, and well clear of it either way
OMEGA_SIGN = (st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-6, -1e-6])
              | st.floats(-4.0, 1.0))


class TestRealKernel:
    """The real kernel against the complex one it replaced, on both sides of Om^2 = 0."""

    @settings(max_examples=200, deadline=None)
    @given(rate=st.floats(0.05, 5.0), d=OMEGA_SIGN, t=st.floats(0.0, 20.0),
           u=st.floats(1e-8, 1e-4))
    def test_scalars(self, rate, d, t, u):
        w_sq = 0.25 * rate * rate * (1.0 - d)
        assert_kernel_matches_the_complex_one(t, rate, w_sq)
        if d != 0.0:  # a time where |Om t / 2| = u, across the series cutoff
            assert_kernel_matches_the_complex_one(2.0 * u / (rate * math.sqrt(abs(d))),
                                                  rate, w_sq)

    @settings(max_examples=100, deadline=None)
    @given(rate=st.floats(0.05, 5.0), d=OMEGA_SIGN, t=TIMES)
    def test_one_set_on_a_grid(self, rate, d, t):
        assert_kernel_matches_the_complex_one(t, rate, 0.25 * rate * rate * (1.0 - d))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_stacks(self, data, n):
        # one time per set, as a bisection round evaluates them; both regimes in one stack
        draw = lambda s: np.array(data.draw(st.lists(s, min_size=n, max_size=n)))  # noqa: E731
        rate, d, t = draw(st.floats(0.05, 5.0)), draw(OMEGA_SIGN), draw(st.floats(0.0, 20.0))
        assert_kernel_matches_the_complex_one(t, rate, 0.25 * rate * rate * (1.0 - d))
        # and all sets at one time, as a ratio scan evaluates them
        assert_kernel_matches_the_complex_one(float(t[0]), rate, 0.25 * rate * rate * (1.0 - d))

    def test_thresholds_are_exact(self):
        # Om = 0 (R = 1/2, C = 1/4): sinhc = 1 and g = 1 + rate t / 2 exactly
        t = np.linspace(0.0, 20.0, 201)
        g, gdot, sc = _damping_kernel(t, 1.0, 0.25)
        assert np.all(sc == 1.0)
        assert np.all(g == 1.0 + 0.5 * t)
        assert np.all(gdot == 0.5)


def complex_factors_and_rates(model, t):
    """(P, Q, Pdot, Qdot) of the complex closed forms with the complex kernel."""
    p = model.params
    if isinstance(model, TimeLocalModel):
        (g, gdot, sc), _ = complex_kernel(t, p.lam, p.W * p.W)
        half = 0.5 * (p.lam + 1j * p.omega0)
        return (np.exp(-p.lam * t) * g * g, np.exp(-half * t) * g,
                -2.0 * p.W * p.W * t * np.exp(-p.lam * t) * g * sc,
                np.exp(-half * t) * (gdot - half * g))
    tau = p.tau(t)
    (g1, _, sc1), _ = complex_kernel(tau, 1.0, p.C)
    (g2, _, sc2), _ = complex_kernel(tau, 1.0, 0.5 * p.C)
    xi2 = np.exp(-0.5 * tau) * g2
    dxi2 = p.gamma * (-(0.5 * p.C) * tau * np.exp(-0.5 * tau) * sc2)
    return (np.exp(-0.5 * tau) * g1, np.exp(-1j * p.omega0 * t) * xi2,
            p.gamma * (-p.C * tau * np.exp(-0.5 * tau) * sc1),
            np.exp(-1j * p.omega0 * t) * (dxi2 - 1j * p.omega0 * xi2))


# rates up to 60 on TIMES: |Om| t / 2 stays below 710, where cosh overflows (ROADMAP item 1)
MODEL_CASES = st.one_of(
    st.builds(lambda W, R, w0: TimeLocalModel(TimeLocalParams(W, W / R, w0)),
              st.floats(0.1, 3.0), st.floats(0.05, 3.0) | NEAR_THRESHOLD.map(
                  lambda d: 0.5 * (1.0 + d)), st.floats(0.5, 2.0)),
    st.builds(lambda g0, C, w0: MemoryKernelModel(MemoryKernelParams(g0, g0 / C, w0)),
              st.floats(0.1, 2.0), st.floats(0.05, 1.5) | NEAR_THRESHOLD.map(
                  lambda d: 0.25 * (1.0 + d)), st.floats(0.5, 2.0)),
)


class TestEnvelopes:
    """The factors are the real envelopes turned by exp(-i omega_eff t)."""

    @settings(max_examples=100, deadline=None)
    @given(model=MODEL_CASES, t=TIMES)
    def test_factors_turn_the_envelopes(self, model, t):
        omega_eff = (0.5 if isinstance(model, TimeLocalModel) else 1.0) * model.omega0
        (P, q), (p_dot, q_dot) = model.envelopes(t)
        P_f, Q, (p_dot_f, q_dot_f) = model.factors_and_rates(t)
        turn = np.exp(-1j * omega_eff * t)
        assert [a.tobytes() for a in (P_f, p_dot_f)] == [a.tobytes() for a in (P, p_dot)]
        assert np.array_equal(Q, turn * q)
        assert np.array_equal(q_dot_f, turn * (q_dot - 1j * omega_eff * q))

    @settings(max_examples=100, deadline=None)
    @given(model=MODEL_CASES, t=TIMES)
    def test_match_the_complex_closed_forms(self, model, t):
        # the envelopes' products round differently from the complex ones: a few
        # ulps of |P|, |Q| <= 1 and of the rates' scale
        got = model.factors_and_rates(t)
        got = (got[0], got[1], *got[2])
        want = complex_factors_and_rates(model, t)
        rate_scale = 1.0 + model.omega0 + (model.params.lam if isinstance(model, TimeLocalModel)
                                           else model.params.gamma)
        for name, g, w, s in zip(("P", "Q", "Pdot", "Qdot"), got, want,
                                 (1.0, 1.0, rate_scale, rate_scale)):
            assert np.max(np.abs(g - w), initial=0.0) <= 8.0 * EPS * s, name

    @settings(max_examples=100, deadline=None)
    @given(W=st.floats(0.6, 3.0), k=st.integers(0, 2),
           offsets=st.lists(st.floats(-1e-11, 1e-11) | st.floats(-1e-3, 1e-3), min_size=1,
                            max_size=6))
    def test_decay_rate_poles_stay_where_they_were(self, W, k, offsets):
        # times at and around the zeros of c (R = W / 1 > 1/2): decay_rates raises
        # exactly where the complex kernel's |g| is below POLE_TOL
        p = TimeLocalParams(W, 1.0, 1.0)
        zero = first_amplitude_zero(p) + k * 2.0 * math.pi / abs(p.Omega.imag)
        t = np.abs(zero + np.array(offsets))
        (g, _, _), _ = complex_kernel(t, p.lam, p.W * p.W)
        if np.any(np.abs(g) < POLE_TOL):
            with pytest.raises(PoleError):
                decay_rates(t, p)
        else:
            decay_rates(t, p)
