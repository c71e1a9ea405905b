"""The damping kernel against independent 50-digit evaluations (tests/oracles.py).

``abs_c_squared``, ``xi`` and both models' ``envelopes`` (P, q and their
rates) are drawn on both sides of R = 1/2 and C = 1/4, at exactly 1/2 and
1/4 and within the sinhc series' reach of them, for lambda t (gamma t) up
to 700.  The bounds are absolute, since next to a zero of c the relative
error of a float64 evaluation is large while the absolute one is not, and
grow with lambda t: its rounding alone moves exp(-lambda t) by lambda t
ulps, so |c|^2 is off by up to ~5e-14 at lambda t = 500.  Past
lambda t = 745, where exp(-lambda t) underflows, the two strict xfails of
test_channels.py stand.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflow.channels import (MemoryKernelModel, MemoryKernelParams, TimeLocalModel,
                            TimeLocalParams, abs_c_squared, xi)

from . import oracles

MAX_DECAY = 700.0  # largest lambda t (gamma t) drawn
ULPS = 8  # the bound on P and q, in ulps of 1 per unit of lambda t (at least 1);
# on their rates, per unit of the model's largest rate constant too
TIMES = 9


def ratios(critical: float):
    """Ratios on both sides of ``critical``, at it, and within 1e-7 and 1e-13 of it.

    The sinhc series serves |Om| t / 2 < 1e-6: at the critical ratio, and
    next to it (1e-13) on short horizons.
    """
    near = st.tuples(st.sampled_from([1e-7, 1e-13]), st.floats(-1.0, 1.0))
    return (st.just(critical)
            | st.floats(0.04 * critical, 0.98 * critical)
            | st.floats(1.02 * critical, 10.0 * critical)
            | near.map(lambda d: critical * (1.0 + d[0] * d[1])))


def horizon(rate: float) -> np.ndarray:
    """TIMES samples of [0, t_end] with rate t_end <= MAX_DECAY and at most four periods."""
    return np.linspace(0.0, min(MAX_DECAY / rate, 8.0 * math.pi), TIMES)


def bound(decay: np.ndarray) -> np.ndarray:
    """ULPS ulps of 1 per unit of the decay exponent lambda t (gamma t), at least 1."""
    return ULPS * np.finfo(float).eps * np.fmax(1.0, decay)


def assert_close(got, want, atol, where):
    err = np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))
    assert np.all(err <= atol), (where, np.max(err / atol))


def check_envelopes(model, ts, oracle, decay_rate, rate_scale):
    (P, q), (p_dot, q_dot) = model.envelopes(ts)
    want = [oracle(t) for t in ts]
    atol = bound(decay_rate * ts)
    for k, name in enumerate(("P", "q")):
        assert_close((P, q)[k], [w[0][k] for w in want], atol, name)
        assert_close((p_dot, q_dot)[k], [w[1][k] for w in want], rate_scale * atol,
                     name + "dot")
    return P


@settings(max_examples=120, deadline=None)
@given(W=st.floats(0.01, 10.0), R=ratios(0.5))
@example(W=10.0, R=0.05)  # fig5 row 0, to lambda t = 700
@example(W=1.0, R=0.5)
def test_time_local_envelopes(W, R):
    p = TimeLocalParams(W, W / R)
    ts = horizon(p.lam)
    P = check_envelopes(TimeLocalModel(p), ts,
                        lambda t: oracles.time_local_envelopes(t, p.W, p.lam, p.omega0),
                        p.lam, max(1.0, p.W, p.lam))
    assert np.array_equal(abs_c_squared(ts, p), P)
    want = [abs(complex(oracles.amplitude(t, p.W, p.lam))) ** 2 for t in ts]
    assert_close(abs_c_squared(ts, p), want, bound(p.lam * ts), "|c|^2")


@settings(max_examples=120, deadline=None)
@given(gamma=st.floats(0.05, 20.0), C=ratios(0.25))
@example(gamma=1.0, C=0.25)
def test_memory_kernel_envelopes(gamma, C):
    p = MemoryKernelParams(C * gamma, gamma)
    ts = horizon(p.gamma)
    check_envelopes(MemoryKernelModel(p), ts,
                    lambda t: oracles.memory_kernel_envelopes(t, p.gamma0, p.gamma),
                    p.gamma, max(1.0, p.gamma, p.gamma0))


@settings(max_examples=120, deadline=None)
@given(C=ratios(0.25))
def test_xi(C):
    taus = np.concatenate(([0.0], np.geomspace(0.01, MAX_DECAY, TIMES - 1)))
    assert_close(xi(C, taus), [float(oracles.xi(C, tau)) for tau in taus], bound(taus), "xi")
