import math

import numpy as np
import pytest

from qflow.channels import (
    MemoryKernelModel,
    MemoryKernelParams,
    TimeLocalModel,
    TimeLocalParams,
    sample_times,
)
from qflow.errors import ConfigError
from qflow.infoflow import (
    blp_measure,
    default_state_grid,
    flows,
    pair_flows,
    sigma,
    weak_coupling_flows,
)
from qflow.qstate import DensityMatrix, InitialStateSpec, initial_state

T = 2.0 * math.pi
EQUATOR = InitialStateSpec(1.0, math.pi / 4, math.pi / 3)


def tl_model(W, lam):
    return TimeLocalModel(TimeLocalParams(W, lam, 1.0))


class TestSigma:
    def test_zero_coupling_gives_zero_rate(self):
        model = tl_model(0.0, 1.0)
        rho0 = initial_state(EQUATOR)
        for t in (0.0, 0.4, 2.2, 6.0):
            assert abs(sigma(t, model, rho0)) < 1e-12

    def test_markovian_rate_is_negative(self):
        model = tl_model(0.1, 1.0)  # R = 0.1
        rho0 = initial_state(EQUATOR)
        for t in (0.3, 1.0, 3.0, 6.0):
            assert sigma(t, model, rho0) < 0.0

    def test_sign_flips_in_backflow_regime(self):
        model = tl_model(1.0, 0.5)  # R = 2
        rho0 = initial_state(EQUATOR)
        vals = [sigma(t, model, rho0) for t in np.linspace(0.1, T, 200)]
        assert min(vals) < 0.0 < max(vals)

    def test_analytic_matches_finite_difference(self):
        model = tl_model(0.7, 1.3)
        rho0 = initial_state(InitialStateSpec(0.8, 0.5, 0.2))
        ref = model.steady_state().bloch().as_array()
        h = 1e-6
        for t in (0.5, 1.7, 4.0):
            def dist(at):
                return 0.5 * float(np.linalg.norm(model.bloch_series(rho0, at) - ref))
            fd = (dist(t + h) - dist(t - h)) / (2.0 * h)
            assert sigma(t, model, rho0) == pytest.approx(fd, abs=1e-6)


class TestFlows:
    def test_zero_coupling_no_flow(self):
        ledger = flows(initial_state(EQUATOR), tl_model(0.0, 1.0), T)
        assert ledger.N_total == 0.0
        assert ledger.M_total == 0.0
        assert ledger.identity_residual() < 1e-12

    def test_markovian_has_no_backflow(self):
        for R in (0.05, 0.2, 0.35, 0.5):
            ledger = flows(initial_state(EQUATOR), tl_model(1.0, 1.0 / R), T)
            assert ledger.N_total < 1e-10
            assert ledger.M_total > 0.01

    def test_backflow_at_r2(self):
        ledger = flows(initial_state(InitialStateSpec(1.0, math.pi / 4, 0.0)),
                       tl_model(1.0, 0.5), T)
        assert ledger.N_total > 0.01
        assert ledger.identity_residual() < 1e-8

    def test_cumulants_nonnegative_and_monotone(self):
        for model in (tl_model(1.0, 0.5), MemoryKernelModel(MemoryKernelParams(1.0, 1.0, 1.0))):
            ledger = flows(initial_state(EQUATOR), model, T)
            assert np.all(ledger.N >= -1e-12)
            assert np.all(ledger.M >= -1e-12)
            assert np.all(np.diff(ledger.N) >= -1e-12)
            assert np.all(np.diff(ledger.M) >= -1e-12)

    def test_identity_along_whole_series(self):
        ledger = flows(initial_state(EQUATOR), tl_model(1.0, 0.2), T)  # R = 5
        assert ledger.identity_residual() < 1e-8

    def test_refinement_stability(self):
        # N and M are Richardson-stable once run boundaries are bisected
        model = tl_model(1.0, 0.5)
        rho0 = initial_state(EQUATOR)
        base = sample_times(model, T)
        fine = np.linspace(0.0, T, 2 * (base.size - 1) + 1)
        a = flows(rho0, model, T, times=base)
        b = flows(rho0, model, T, times=fine)
        assert a.N_total == pytest.approx(b.N_total, abs=1e-8)
        assert a.M_total == pytest.approx(b.M_total, abs=1e-8)

    def test_memory_kernel_ledger_is_stamped(self):
        p = MemoryKernelParams(1.0, 1.0, 1.0)  # C = 1: not positive
        ledger = flows(DensityMatrix.excited(), MemoryKernelModel(p), 10.0)
        assert ledger.positivity is not None
        assert not ledger.positivity.ok
        assert ledger.identity_residual() < 1e-8

    def test_bad_grid_rejected(self):
        model = tl_model(0.5, 1.0)
        with pytest.raises(ConfigError):
            flows(initial_state(EQUATOR), model, T, times=np.linspace(0.0, 1.0, 11))


class TestBlp:
    def test_reduces_to_standard_state_flow(self):
        model = tl_model(1.0, 1.0)
        rho1 = initial_state(EQUATOR)
        ledger = flows(rho1, model, T)
        result = blp_measure(model, [(rho1, model.steady_state())], t_end=T)
        assert result.value == ledger.N_total  # bitwise: same engine, same grid

    def test_markovian_grid_is_zero(self):
        states = default_state_grid(3, 6, (1.0,))
        grid = [(states[i], states[j]) for i in range(len(states))
                for j in range(i + 1, len(states))]
        result = blp_measure(tl_model(1.0, 4.0), grid, t_end=T)  # R = 0.25
        assert result.value == 0.0

    def test_non_markovian_grid_is_positive(self):
        states = default_state_grid(3, 6, (1.0,))
        grid = [(states[i], states[j]) for i in range(len(states))
                for j in range(i + 1, len(states))]
        result = blp_measure(tl_model(1.0, 1.0), grid, t_end=T)  # R = 1
        assert result.value > 0.01
        assert result.n_pairs == len(grid)

    def test_grid_refinement_convergence(self):
        def pairs(n_theta, n_phi):
            states = default_state_grid(n_theta, n_phi, (1.0,))
            return [(states[i], states[j]) for i in range(len(states))
                    for j in range(i + 1, len(states))]

        model = tl_model(1.0, 1.0)
        coarse = blp_measure(model, pairs(6, 12), t_end=T)
        fine = blp_measure(model, pairs(12, 24), t_end=T)
        assert abs(fine.value - coarse.value) / fine.value < 0.05

    def test_requires_pairs_and_horizon(self):
        model = tl_model(1.0, 1.0)
        with pytest.raises(ConfigError):
            blp_measure(model, [], t_end=T)
        with pytest.raises(ConfigError):
            blp_measure(model, [(DensityMatrix.excited(), DensityMatrix.ground())])

    def test_pair_flows_evolves_both(self):
        # antipodal pure pair: D(t) = |c(t)| for the equatorial pair
        from qflow.channels import amplitude

        model = tl_model(1.0, 1.0)
        plus = initial_state(InitialStateSpec(1.0, math.pi / 4, 0.0))
        minus = initial_state(InitialStateSpec(1.0, math.pi / 4, math.pi))
        ledger = pair_flows(plus, minus, model, T)
        expected = np.abs(amplitude(ledger.times, model.params))
        assert np.max(np.abs(ledger.D - expected)) < 1e-12


class TestWeakCouplingFlows:
    def test_zero_coupling(self):
        nm, m = weak_coupling_flows(EQUATOR, TimeLocalParams(0.0, 1.0, 1.0), T)
        assert nm == 0.0 and m == 0.0

    def test_short_time_limit(self):
        nm, _ = weak_coupling_flows(EQUATOR, TimeLocalParams(0.05, 1.0, 1.0), 1e-4)
        assert abs(nm) < 1e-10

    def test_matches_exact_flow_to_fourth_order(self):
        spec = InitialStateSpec(1.0, math.pi / 4, math.pi / 3)
        p = TimeLocalParams(0.05, 1.0, 1.0)
        _, m_weak = weak_coupling_flows(spec, p, T)
        ledger = flows(initial_state(spec), TimeLocalModel(p), T)
        assert ledger.N_total < 1e-12
        assert abs(m_weak - ledger.M_total) < 40.0 * p.W**4

    def test_halving_w_quarters_the_flow(self):
        spec = InitialStateSpec(0.5, math.pi / 4, math.pi / 3)
        nm1, _ = weak_coupling_flows(spec, TimeLocalParams(0.04, 1.0, 1.0), T)
        nm2, _ = weak_coupling_flows(spec, TimeLocalParams(0.02, 1.0, 1.0), T)
        assert nm1 / nm2 == pytest.approx(4.0, rel=1e-12)  # exact in the expansion

    def test_exact_flow_quarters_within_ten_percent(self):
        spec = InitialStateSpec(0.5, math.pi / 4, math.pi / 3)
        m = {}
        for W in (0.04, 0.02):
            ledger = flows(initial_state(spec), tl_model(W, 1.0), T)
            m[W] = ledger.N_total - ledger.M_total
        assert m[0.04] / m[0.02] == pytest.approx(4.0, rel=0.1)

    def test_warns_outside_weak_regime(self):
        with pytest.warns(RuntimeWarning):
            weak_coupling_flows(EQUATOR, TimeLocalParams(0.5, 1.0, 1.0), T)

    def test_standard_state_input_gives_zero(self):
        ground = InitialStateSpec(1.0, math.pi / 2, 0.0)  # theta0 = pi
        nm, m = weak_coupling_flows(ground, TimeLocalParams(0.05, 1.0, 1.0), T)
        assert nm == 0.0 and m == 0.0
