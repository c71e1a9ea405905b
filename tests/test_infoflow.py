import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflow import infoflow
from qflow.channels import (
    MemoryKernelModel,
    MemoryKernelParams,
    TimeLocalModel,
    TimeLocalParams,
    first_amplitude_zero,
    sample_times,
)
from qflow.errors import ConfigError, NumericalError
from qflow.infoflow import (
    BISECT_REL_TOL,
    BLOCK_SAMPLES,
    PairGrid,
    bisect_all,
    blp_measure,
    default_pair_grid,
    default_state_grid,
    flows,
    pair_flows,
    sigma,
    weak_coupling_flows,
)
from qflow.qstate import (DensityMatrix, InitialStateSpec, PolarBloch, bloch_array,
                          bloch_trace_distance, density_from_bloch, initial_state)

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

    def test_grid_ending_within_tolerance_of_the_horizon(self):
        # a caller's grid may end up to 1e-9 relative short of t_end or past
        # it; the last run ends at t_end with D at the last sample
        model, rho0 = tl_model(1.0, 0.5), initial_state(EQUATOR)
        exact = flows(rho0, model, T, times=np.linspace(0.0, T, 801))
        for end in (T * (1.0 - 1e-12), T * (1.0 + 1e-12)):
            ledger = flows(rho0, model, T, times=np.linspace(0.0, end, 801))
            assert ledger.segments[-1].t_hi == T
            assert len(ledger.segments) == len(exact.segments)
            assert ledger.N_total == pytest.approx(exact.N_total, abs=1e-12)
            assert ledger.M_total == pytest.approx(exact.M_total, abs=1e-12)

    def test_bad_grid_rejected(self):
        model = tl_model(0.5, 1.0)
        with pytest.raises(ConfigError):
            flows(initial_state(EQUATOR), model, T, times=np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("times", [np.empty(0), np.linspace(0.0, T, 4).reshape(2, 2)],
                             ids=["empty", "2-d"])
    def test_malformed_grid_rejected(self, times):
        with pytest.raises(ConfigError, match="span"):
            flows(initial_state(EQUATOR), tl_model(0.5, 1.0), T, times=times)

    @pytest.mark.parametrize("at", [[201, 200], [201, 201]], ids=["swapped", "repeated"])
    def test_grid_out_of_order_rejected(self, at):
        times = np.linspace(0.0, T, 801)
        times[[200, 201]] = times[at]
        with pytest.raises(ConfigError, match="strictly increasing"):
            flows(initial_state(EQUATOR), tl_model(1.0, 0.5), T, times=times)

    def test_non_finite_distance_raises(self):
        # cosh in the damping kernel overflows from t = 17.88 (lambda t > 1430)
        rho0 = initial_state(InitialStateSpec(1.0, 1.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="not finite at t = 17.88"):
            flows(rho0, tl_model(5.0, 80.0), 6.0 * math.pi)

    @settings(max_examples=60, deadline=None)
    @given(memory=st.booleans(), coupling=st.floats(0.3, 10.0), ratio=st.floats(0.05, 5.0),
           z=st.floats(0.1, 1.0), vt=st.floats(0.0, 0.5 * math.pi),
           vp=st.floats(0.0, 2.0 * math.pi))
    def test_brackets_join_opposite_signed_grid_samples(self, memory, coupling, ratio,
                                                         z, vt, vp):
        # bisection reads only the grid's sign at the left end, so every
        # bracket must join neighbouring grid samples of sigma that are
        # nonzero and of opposite sign
        if memory:
            model = MemoryKernelModel(MemoryKernelParams(coupling, coupling / ratio, 1.0))
        else:
            model = tl_model(coupling, coupling / ratio)
        rho0 = initial_state(InitialStateSpec(z, vt, vp))
        with mock.patch.object(infoflow, "bisect_all", wraps=infoflow.bisect_all) as spy:
            ledger = flows(rho0, model, T)
        brackets = 0
        for (_, a, b, fa, _), _ in spy.call_args_list:  # no call when D is constant
            i = np.searchsorted(ledger.times, a)
            assert np.array_equal(ledger.times[i], a)
            assert np.array_equal(ledger.times[i + 1], b)
            assert np.array_equal(fa, ledger.sigma[i])
            fb = ledger.sigma[i + 1]
            assert np.all((fa != 0.0) & (fb != 0.0) & ((fa < 0.0) != (fb < 0.0)))
            brackets += a.size
        assert ledger.meta["brackets"] == brackets


def scalar_bisect(f, a, fa, b, xtol):
    """Reference bisection of one bracket from f(a): (root, midpoint evaluations)."""
    steps = 0
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        steps += 1
        if fm == 0.0:
            return m, steps
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b), steps


def wavy(t):
    return np.sin(3.0 * t) + 0.3 * np.cos(7.0 * t)


def assert_batched_matches_scalar(f, brackets, xtol):
    a = np.array([lo for lo, _ in brackets], dtype=float)
    b = np.array([hi for _, hi in brackets], dtype=float)
    fa = f(a)  # the grid's values at the left ends
    assert np.all(np.sign(fa) * np.sign(f(b)) < 0.0)  # the brackets a ledger forms
    calls = []

    def counted(ts, which):
        calls.append(ts.size)
        assert np.all((a[which] < ts) & (ts < b[which]))  # which names each point's bracket
        return f(ts)

    roots, evals = bisect_all(counted, a, b, fa, xtol)
    ref = [scalar_bisect(f, lo, flo, hi, xtol) for lo, flo, hi in zip(a, fa, b)]
    assert np.array_equal(roots, np.array([r for r, _ in ref]))
    assert evals.tolist() == [n for _, n in ref]  # midpoint evaluations per bracket
    assert len(calls) == max(n for _, n in ref)  # one call per round, none for the ends
    assert a.tolist() == [lo for lo, _ in brackets]  # inputs left untouched
    assert fa.tolist() == f(a).tolist()


class TestBatchedBisection:
    def test_every_branch_matches_scalar(self):
        def line(t):
            return t - 0.5

        brackets = [
            (0.0, 1.0),  # exact zero at the first midpoint
            (0.1, 0.7),  # ordinary bracket
            (0.4999999999, 0.5000000001),  # narrower than xtol from the start
        ]
        assert_batched_matches_scalar(line, brackets, 1e-9)

    def test_no_brackets_makes_no_call(self):
        def fail(ts, which):
            raise AssertionError("called")

        roots, evals = bisect_all(fail, np.empty(0), np.empty(0), np.empty(0), 1e-9)
        assert roots.size == 0 and evals.size == 0

    @settings(max_examples=100, deadline=None)
    @given(brackets=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 2.0)),
                             min_size=1, max_size=12),
           xtol=st.sampled_from([1e-10, 1e-6, 0.3]))
    def test_drawn_brackets_match_scalar(self, brackets, xtol):
        kept = [(lo, lo + w) for lo, w in brackets if wavy(lo) * wavy(lo + w) < 0.0]
        assume(kept)
        assert_batched_matches_scalar(wavy, kept, xtol)


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
        # the bisection tolerance at every boundary.  A varphi0 whose products
        # underflow is test_underflowing_coherence_adds_no_boundary's case.
        p = TimeLocalParams(W, W / R, 1.0)
        ledger = flows(initial_state(InitialStateSpec(z, vt, vp)), TimeLocalModel(p), T)
        assert_boundaries_match(ledger, p, 0.0, 20.0)

    def test_underflowing_coherence_adds_no_boundary(self):
        # Im rho01 ~ 1e-311 underflows the products of the complex sigma(0),
        # which read 5e-324 and bracketed a zero-length plateau at t = 0; the
        # real envelopes give sigma(0) = 0 exactly, since qdot(0) = Pdot(0) = 0
        p = TimeLocalParams(1.0, 1.0, 1.0)
        rho0 = initial_state(InitialStateSpec(1.0, 1.25, 2.225073858507e-311))
        assert_boundaries_match(flows(rho0, TimeLocalModel(p), T), p, 0.0, 20.0)

    @settings(max_examples=100, deadline=None)
    @given(W=st.floats(0.3, 10.0), R=st.floats(0.6, 5.0), p00=st.floats(0.01, 1.0))
    def test_population_states(self, W, R, p00):
        # rho01 = 0: D = rho00(t), taken from rho00 itself, keeps its digits
        # down to the zeros of c, so those boundaries meet the bisection
        # tolerance too; late runs decay like |c|^2 and fall under the noise
        # floor from lambda T of about 18, so counts are compared up to 10.
        p = TimeLocalParams(W, W / R, 1.0)
        rho0 = DensityMatrix(np.diag([p00, 1.0 - p00]).astype(complex))
        assert_boundaries_match(flows(rho0, TimeLocalModel(p), T), p, 0.0, 10.0)


def pair_invariants(grid):
    """(dp00^2, |dcoh|^2) of each pair, one pair at a time."""
    out = []
    for s1, s2 in grid:
        dp00 = s1.matrix[0, 0].real - s2.matrix[0, 0].real
        dcoh = s1.matrix[0, 1] - s2.matrix[0, 1]
        out.append((dp00 * dp00, dcoh.real * dcoh.real + dcoh.imag * dcoh.imag))
    return out


def pairwise_scores(model, grid, times):
    """Reference scorer: one pair at a time from its invariants, summing positive increments.

    It reads P and |Q| = |q| from the envelopes as ``blp_measure`` does, so the
    scores are bit-equal and ties resolve alike; |Q|^2 from the complex factors
    differs in the last bit and can flip a tie in exact arithmetic.
    """
    (P, q), _ = model.envelopes(times)
    p_sq, q_sq = P * P, q * q
    scores = []
    for dp00_sq, dcoh_sq in pair_invariants(grid):
        dist = np.sqrt(dp00_sq * p_sq + dcoh_sq * q_sq)
        inc = np.diff(dist)
        scores.append(np.sum(np.where(inc > 0.0, inc, 0.0)))
    return np.array(scores)


def bloch_pairwise_scores(model, grid, times):
    """Oracle scorer: evolve both states of each pair and take the Bloch trace distance."""
    scores = []
    for s1, s2 in grid:
        dist = bloch_trace_distance(model.bloch_series(s1, times), model.bloch_series(s2, times))
        inc = np.diff(dist)
        scores.append(np.sum(np.where(inc > 0.0, inc, 0.0)))
    return np.array(scores)


def assert_blp_matches_pairwise(model, grid, times):
    result = blp_measure(model, grid, t_end=times[-1], times=times)
    best = int(np.argmax(pairwise_scores(model, grid, times)))
    assert result.argmax_index == best  # ties resolve to the lowest grid index
    assert result.argmax_pair == grid[best]
    assert result.value == pair_flows(*grid[best], model, times[-1], times).N_total
    assert result.n_pairs == len(grid)
    assert result.n_distinct == len(set(pair_invariants(grid)))
    return result


class PopulationsOnly(TimeLocalModel):
    """Time-local model with q = 0: a pair's D depends on dp00 alone, so dp00^2 ties keys."""

    def _envelopes_of(self, t):
        (P, q), (p_dot, q_dot) = super()._envelopes_of(t)
        return (P, np.zeros_like(q)), (p_dot, np.zeros_like(q_dot))


@contextmanager
def spy_scoring():
    """(x, D) of each kernel call that ``blp_measure`` makes before its ledger: its scoring."""
    scored, kernel, ledger = [], infoflow._d_sigma, []

    def spy(x, *args, **kwargs):
        dist, sig = kernel(x, *args, **kwargs)
        if not ledger:
            scored.append((x, dist.copy()))  # the scan reuses its D buffer
        return dist, sig

    def pair_flows_spy(*args, **kwargs):
        ledger.append(args)
        return real_pair_flows(*args, **kwargs)

    real_pair_flows = infoflow.pair_flows
    with mock.patch.object(infoflow, "_d_sigma", spy), \
            mock.patch.object(infoflow, "pair_flows", pair_flows_spy):
        yield scored


class NanAfter(TimeLocalModel):
    """Time-local model whose envelopes and rates are NaN after ``t_bad``."""

    t_bad = 4.0

    def _envelopes_of(self, t):
        return tuple(tuple(np.where(t > self.t_bad, np.nan, f) for f in pair)
                     for pair in super()._envelopes_of(t))


BLP_TIMES = np.linspace(0.0, T, 201)
BLP_CHUNK = BLOCK_SAMPLES // BLP_TIMES.size
BLP_POOL = default_state_grid(2, 3, (0.5, 1.0))
BLP_POOL += [DensityMatrix(s.matrix) for s in BLP_POOL[:4]]  # equal, distinct objects
WIDE_POOL = default_state_grid(3, 8, (0.5, 1.0))  # 1128 pairs, 248 distinct keys


def all_pairs(states):
    return [(states[i], states[j]) for i in range(len(states))
            for j in range(i + 1, len(states))]


BLOCH_BALL = st.builds(PolarBloch, st.floats(0.0, 1.0), st.floats(0.0, math.pi),
                       st.floats(0.0, 2.0 * math.pi))


class TestPairDistance:
    """The one kernel of the ledger and the BLP scan against the evolved pair."""

    @settings(max_examples=60, deadline=None)
    @given(b1=BLOCH_BALL, b2=BLOCH_BALL, memory=st.booleans(),
           ratio=st.sampled_from([0.1, 0.4, 0.6, 2.0, 10.0]))
    def test_matches_the_evolved_bloch_distance(self, b1, b2, memory, ratio):
        # R = ratio on both sides of 1/2; C = ratio / 2 on both sides of 1/4
        model = (MemoryKernelModel(MemoryKernelParams(ratio / 2.0, 1.0, 1.0)) if memory
                 else tl_model(1.0, 1.0 / ratio))
        rho1, rho2 = (density_from_bloch(b.to_bloch()) for b in (b1, b2))
        times = sample_times(model, T)
        (x, y), = pair_invariants([(rho1, rho2)])
        dist, sig = infoflow._d_sigma(x, y, *model.envelopes(times))
        r = model.bloch_series(rho1, times) - model.bloch_series(rho2, times)
        assert np.max(np.abs(dist - bloch_trace_distance(r, np.zeros(3)))) <= 1e-15
        # sigma = (r . dr/dt) / (4 D) where D is not small; both routes round the
        # two states' Bloch vectors (|r| <= 1) and rates at their own ulps
        r1_dot, r2_dot = (bloch_array(model.state_dot(rho, times)) for rho in (rho1, rho2))
        away = dist > 1e-6
        want = (r * (r1_dot - r2_dot)).sum(axis=-1)[away] / (4.0 * dist[away])
        scale = 1.0 + (np.abs(r1_dot) + np.abs(r2_dot)).sum(axis=-1)[away]
        assert np.all(np.abs(sig[away] - want) <= 1e-14 * scale / dist[away])


class TestPairGrid:
    def test_default_grid_is_the_nested_pair_list(self):
        def packed(pairs):
            return b"".join(a.matrix.tobytes() + b.matrix.tobytes() for a, b in pairs)

        grid = default_pair_grid()
        old = all_pairs(default_state_grid())
        assert len(grid) == len(old) == 372_816
        assert packed(grid) == packed(old)

    def test_of_keeps_a_grid_and_indexes_a_list(self):
        a, b, c = BLP_POOL[0], BLP_POOL[-4], BLP_POOL[5]  # b equals a, distinct object
        pairs = [(a, c), (b, c), (c, b), (a, a), (c, a)]
        grid = PairGrid.of(pairs)
        assert PairGrid.of(grid) is grid
        assert len(grid) == len(pairs)
        assert grid.states == (a, c, b)
        assert list(grid) == pairs  # the same objects, in order
        assert [grid[k] for k in range(-len(pairs), len(pairs))] == pairs + pairs
        assert isinstance(grid[1:4], PairGrid) and list(grid[1:4]) == pairs[1:4]
        with pytest.raises(IndexError):
            grid[len(pairs)]

    def test_index_arrays_of_unequal_length_raise(self):
        with pytest.raises(ConfigError, match="equal length"):
            PairGrid(BLP_POOL, [0, 1], [2])

    def test_an_entry_that_is_not_a_pair_raises(self):
        a, b, c = BLP_POOL[:3]
        with pytest.raises(ConfigError, match="pair"):
            PairGrid.of([(a, b, c), (b,)])

    @pytest.mark.parametrize("bad", [-1, len(BLP_POOL)])
    def test_index_outside_the_states_raises(self, bad):
        with pytest.raises(ConfigError, match=rf"\[0, {len(BLP_POOL)}\)"):
            PairGrid(BLP_POOL, [0, 1], [2, bad])


class TestBlp:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), size=st.sampled_from([1, 2, BLP_CHUNK - 1, BLP_CHUNK, BLP_CHUNK + 1]),
           ratio=st.sampled_from([0.25, 1.0, 2.0]))
    def test_scorer_matches_pairwise_reference(self, data, size, ratio):
        index = st.integers(0, len(BLP_POOL) - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=size, max_size=size))
        grid = [(BLP_POOL[i], BLP_POOL[j]) for i, j in pairs]
        assert_blp_matches_pairwise(tl_model(1.0, 1.0 / ratio), grid, BLP_TIMES)

    def test_repeated_self_and_equal_pairs(self):
        a, b, c = BLP_POOL[0], BLP_POOL[-4], BLP_POOL[5]  # b equals a, distinct object
        grid = [(a, a), (a, b), (c, a), (b, c), (c, a), (c, b)]  # ties: (c, a) == (b, c)
        assert assert_blp_matches_pairwise(tl_model(1.0, 0.5), grid, BLP_TIMES).argmax_index == 2

    @pytest.mark.parametrize("at", [BLP_CHUNK - 1, BLP_CHUNK, 2 * BLP_CHUNK])
    def test_best_pair_at_a_chunk_edge(self, at):
        a, c = BLP_POOL[0], BLP_POOL[5]
        grid = [(a, a)] * at + [(a, c)]  # self pairs score 0
        result = blp_measure(tl_model(1.0, 0.5), grid, t_end=T, times=BLP_TIMES)
        assert result.argmax_index == at

    @pytest.mark.parametrize("ratio", [0.25, 2.0])
    def test_chunk_edges_over_distinct_keys(self, ratio):
        result = assert_blp_matches_pairwise(tl_model(1.0, 1.0 / ratio), all_pairs(WIDE_POOL),
                                             BLP_TIMES)
        assert result.n_distinct > 2 * BLP_CHUNK

    def test_each_distinct_key_is_scored_once(self):
        grid = all_pairs(WIDE_POOL) + all_pairs(BLP_POOL)
        with spy_scoring() as scored:
            result = blp_measure(tl_model(1.0, 0.5), grid, t_end=T, times=BLP_TIMES)
        assert sum(x.size for x, _ in scored) == result.n_distinct
        assert result.n_distinct == len(set(pair_invariants(grid))) < len(grid)

    @pytest.mark.parametrize("memory", [False, True])
    def test_winning_score_is_the_ledger_sum(self, memory):
        # one kernel: the winning key's sampled D is its pair_flows ledger's D
        model = (MemoryKernelModel(MemoryKernelParams(1.0, 1.0, 1.0)) if memory
                 else tl_model(1.0, 0.5))
        with spy_scoring() as scored:
            result = blp_measure(model, all_pairs(WIDE_POOL), t_end=T, times=BLP_TIMES)
        rows = np.concatenate([dist for _, dist in scored])
        scores = np.sum(np.maximum(np.diff(rows, axis=-1), 0.0), axis=-1)
        ledger = pair_flows(*result.argmax_pair, model, T, BLP_TIMES)
        assert np.max(scores) == np.sum(np.maximum(np.diff(ledger.D), 0.0))
        assert rows[np.argmax(scores)].tobytes() == ledger.D.tobytes()

    def test_no_state_is_evolved_before_the_ledger(self):
        model = tl_model(1.0, 0.5)
        a, b, c = BLP_POOL[0], BLP_POOL[-4], BLP_POOL[5]
        grid = [(a, c), (b, c), (c, b), (a, b), (a, a)]
        before_ledger = []
        real_pair_flows = infoflow.pair_flows

        def ledger(*args, **kwargs):
            before_ledger.append((states.call_count, envelopes.call_count))
            return real_pair_flows(*args, **kwargs)

        with mock.patch.object(model, "envelopes", wraps=model.envelopes) as envelopes, \
                mock.patch.object(model, "states", wraps=model.states) as states, \
                mock.patch.object(infoflow, "pair_flows", side_effect=ledger):
            blp_measure(model, grid, t_end=T, times=BLP_TIMES)
        assert before_ledger == [(0, 1)]  # scoring reads the envelopes once, evolves nothing

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), memory=st.booleans(), ratio=st.sampled_from([0.3, 0.7, 2.0]))
    def test_value_matches_the_bloch_form_pick(self, data, memory, ratio):
        model = (MemoryKernelModel(MemoryKernelParams(ratio / 2.0, 1.0, 1.0)) if memory
                 else tl_model(1.0, 1.0 / ratio))
        index = st.integers(0, len(BLP_POOL) - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
        grid = [(BLP_POOL[i], BLP_POOL[j]) for i, j in pairs]
        result = blp_measure(model, grid, t_end=T, times=BLP_TIMES)
        oracle = grid[int(np.argmax(bloch_pairwise_scores(model, grid, BLP_TIMES)))]
        assert abs(result.value - pair_flows(*oracle, model, T, BLP_TIMES).N_total) <= 1e-12

    def test_non_finite_states_raise(self):
        model = NanAfter(TimeLocalParams(1.0, 0.5, 1.0))
        grid = all_pairs(default_state_grid(2, 3, (1.0,)))
        with pytest.raises(NumericalError, match="not finite at t = 4.021"):
            blp_measure(model, grid, t_end=T, times=BLP_TIMES)

    def test_reduces_to_standard_state_flow(self):
        model = tl_model(1.0, 1.0)
        rho1 = initial_state(EQUATOR)
        ledger = flows(rho1, model, T)
        result = blp_measure(model, [(rho1, model.steady_state())], t_end=T)
        assert result.value == ledger.N_total  # bitwise: same engine, same grid

    def test_markovian_grid_is_zero(self):
        grid = all_pairs(default_state_grid(3, 6, (1.0,)))
        result = blp_measure(tl_model(1.0, 4.0), grid, t_end=T)  # R = 0.25
        assert result.value == 0.0
        assert result.argmax_index == 0  # every pair ties

    def test_markovian_default_grid_picks_the_first_pair(self):
        # at R = 0.3 every score is 0, so all 59,843 distinct keys win
        result = blp_measure(tl_model(1.0, 1.0 / 0.3), t_end=T, times=BLP_TIMES)
        assert result.argmax_index == 0 and result.value == 0.0
        first = default_pair_grid()[0]
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(result.argmax_pair, first))

    def test_tied_keys_beyond_the_first_chunk(self):
        # two distinct keys with one dp00^2 tie when D depends on dp00 alone;
        # the first of them sits past the first lookup chunk
        north = initial_state(InitialStateSpec(1.0, 0.3, 0.0))
        south, turned = (initial_state(InitialStateSpec(1.0, 1.2, phi)) for phi in (0.0, 1.5))
        states = [north, south, turned]
        first = np.array([0] * (BLOCK_SAMPLES + 5) + [0, 0, 0])
        second = np.array([0] * (BLOCK_SAMPLES + 5) + [2, 1, 2])

        model = PopulationsOnly(TimeLocalParams(1.0, 0.5, 1.0))
        result = blp_measure(model, PairGrid(states, first, second), t_end=T, times=BLP_TIMES)
        assert result.argmax_index == BLOCK_SAMPLES + 5
        assert result.n_distinct == 3

    def test_non_markovian_grid_is_positive(self):
        grid = all_pairs(default_state_grid(3, 6, (1.0,)))
        result = blp_measure(tl_model(1.0, 1.0), grid, t_end=T)  # R = 1
        assert result.value > 0.01
        assert result.n_pairs == len(grid)

    def test_grid_refinement_convergence(self):
        model = tl_model(1.0, 1.0)
        coarse = blp_measure(model, all_pairs(default_state_grid(6, 12, (1.0,))), t_end=T)
        fine = blp_measure(model, all_pairs(default_state_grid(12, 24, (1.0,))), t_end=T)
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
