import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.channels import (
    MemoryKernelModel,
    MemoryKernelParams,
    TimeLocalModel,
    TimeLocalParams,
    amplitude_derivative,
    first_amplitude_zero,
    sample_times,
)
from qflow.errors import ConfigError
from qflow.infoflow import (
    BISECT_REL_TOL,
    _bisect_all,
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


def scalar_bisect(f, a, b, xtol):
    """Reference bisection of one bracket: (root, midpoint evaluations, fake)."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a, 0, False
    if fb == 0.0:
        return b, 0, False
    if (fa < 0.0) == (fb < 0.0):
        return 0.5 * (a + b), 0, True
    steps = 0
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        steps += 1
        if fm == 0.0:
            return m, steps, False
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b), steps, False


def wavy(t):
    return np.sin(3.0 * t) + 0.3 * np.cos(7.0 * t)


def assert_batched_matches_scalar(f, brackets, xtol):
    a = np.array([lo for lo, _ in brackets], dtype=float)
    b = np.array([hi for _, hi in brackets], dtype=float)
    calls = []

    def counted(ts):
        calls.append(ts.size)
        return f(ts)

    roots, rounds, fake = _bisect_all(counted, a, b, xtol)
    ref = [scalar_bisect(f, float(lo), float(hi), xtol) for lo, hi in zip(a, b)]
    assert np.array_equal(roots, np.array([r for r, _, _ in ref]))
    assert fake == sum(fk for _, _, fk in ref)
    assert rounds == max(n for _, n, _ in ref)
    # one call for both ends of every bracket, then one per round
    assert len(calls) == 1 + rounds and calls[0] == 2 * a.size
    assert a.tolist() == [lo for lo, _ in brackets]  # inputs left untouched


class TestBatchedBisection:
    def test_every_branch_matches_scalar(self):
        def line(t):
            return t - 0.5

        brackets = [
            (0.5, 1.0),  # f(a) == 0
            (0.0, 0.5),  # f(b) == 0
            (0.6, 0.9),  # same sign: fake bracket, midpoint
            (0.0, 1.0),  # exact zero at the first midpoint
            (0.1, 0.7),  # ordinary bracket
            (0.4999999999, 0.5000000001),  # narrower than xtol from the start
        ]
        assert_batched_matches_scalar(line, brackets, 1e-9)
        # f(a) == f(b) == 0: the lower end wins
        assert_batched_matches_scalar(lambda t: t * (t - 1.0), [(0.0, 1.0)], 1e-9)
        _, _, fake = _bisect_all(line, np.array([0.6]), np.array([0.9]), 1e-9)
        assert fake == 1

    def test_no_brackets_makes_no_call(self):
        def fail(ts):
            raise AssertionError("called")

        roots, rounds, fake = _bisect_all(fail, np.empty(0), np.empty(0), 1e-9)
        assert roots.size == 0 and rounds == 0 and fake == 0

    @settings(max_examples=100, deadline=None)
    @given(f=st.sampled_from([lambda t: t - 0.5, wavy]),
           brackets=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 2.0)),
                             min_size=1, max_size=12),
           xtol=st.sampled_from([1e-10, 1e-6, 0.3]))
    def test_drawn_brackets_match_scalar(self, f, brackets, xtol):
        assert_batched_matches_scalar(f, [(lo, lo + w) for lo, w in brackets], xtol)


def closed_form_boundaries(p: TimeLocalParams, t_end: float):
    """(times, is_zero_of_c) of the extrema of |c|^2 inside (0, t_end)."""
    period = 2.0 * math.pi / abs(p.Omega.imag)
    ks = np.arange(0, int(t_end / period) + 2)
    times = np.concatenate([ks[1:] * period, first_amplitude_zero(p) + ks * period])
    is_zero = np.arange(times.size) >= ks.size - 1
    keep = times < t_end
    order = np.argsort(times[keep])
    return times[keep][order], is_zero[keep][order]


def assert_boundaries_match(ledger, p, extra_tol_at_zeros, lam_t_max):
    located = np.array([seg.t_lo for seg in ledger.segments[1:]])
    closed, is_zero = closed_form_boundaries(p, T)
    tol = 2.0 * BISECT_REL_TOL * T + np.where(is_zero, extra_tol_at_zeros, 0.0)
    if located.size:
        nearest = np.argmin(np.abs(located[:, None] - closed[None, :]), axis=1)
        assert np.all(np.abs(located - closed[nearest]) <= tol[nearest])
        assert np.unique(nearest).size == located.size
    if p.lam * T <= lam_t_max:
        assert located.size == closed.size


class TestClosedFormBoundaries:
    """Time-local runs against the ground state end where |c|^2 is extremal.

    D to the ground state is |c| sqrt(|rho01|^2 + rho00(0)^2 |c|^2), increasing
    in |c|^2, and d|c|^2/dt vanishes at t = 2 pi k / w and at the zeros
    t0 + 2 pi k / w of c (w = |Im Omega|).  Late oscillations of sigma fall
    under the SIGMA_NOISE_REL floor and are dropped on purpose, so the counts
    are compared only up to a lambda T where they stay above it: 20 when D
    decays like |c|, 10 when it decays like |c|^2.
    """

    @settings(max_examples=100, deadline=None)
    @given(W=st.floats(0.3, 10.0), R=st.floats(0.6, 5.0), z=st.floats(0.1, 1.0),
           vt=st.floats(0.05, 0.5 * math.pi - 0.05), vp=st.floats(1e-6, 2.0 * math.pi))
    def test_coherent_states(self, W, R, z, vt, vp):
        # |rho01| >= 0.005: D decays like |c| and sigma keeps its sign up to
        # the bisection tolerance at every boundary.  varphi0 stays clear of
        # the underflow shown by test_underflowing_coherence_adds_no_boundary.
        p = TimeLocalParams(W, W / R, 1.0)
        ledger = flows(initial_state(InitialStateSpec(z, vt, vp)), TimeLocalModel(p), T)
        assert_boundaries_match(ledger, p, 0.0, 20.0)

    @pytest.mark.xfail(strict=True, reason="sigma(0) = 5e-324 instead of 0 brackets a "
                       "zero-length plateau at t = 0")
    def test_underflowing_coherence_adds_no_boundary(self):
        # Im rho01 ~ 1e-311 makes the products in sigma(0) underflow, so the
        # exact cancellation that gives sigma(0) = 0 fails
        p = TimeLocalParams(1.0, 1.0, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, 1.25, 2.225073858507e-311))
        assert_boundaries_match(flows(rho0, TimeLocalModel(p), T), p, 0.0, 20.0)

    @settings(max_examples=100, deadline=None)
    @given(W=st.floats(0.3, 10.0), R=st.floats(0.6, 5.0), p00=st.floats(0.01, 1.0))
    def test_population_states(self, W, R, p00):
        # rho01 = 0: D = rho00(t) is resolved only down to half an ulp of 1,
        # because rho11 is stored as 1 - rho00.  Near a zero of c, where
        # rho00 ~ p00 |c'|^2 (t - t0)^2, sigma reads exactly 0 inside a band
        # of half-width sqrt(2^-53 / p00) / |c'(t0)| and bisection stops there.
        p = TimeLocalParams(W, W / R, 1.0)
        rho0 = DensityMatrix(np.diag([p00, 1.0 - p00]).astype(complex))
        ledger = flows(rho0, TimeLocalModel(p), T)
        closed, _ = closed_form_boundaries(p, T)
        band = math.sqrt(np.finfo(float).eps / 2.0 / p00) / np.abs(amplitude_derivative(closed, p))
        assert_boundaries_match(ledger, p, band, 10.0)


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
