"""Independent 50-digit evaluations of the damping kernel, by mpmath.

Time-local model (Lorentzian bath):

    c(t) = exp(-(lambda + i w0) t / 2) (cosh(Om t / 2) + (lambda / Om) sinh(Om t / 2)),
    Om = sqrt(lambda^2 - 4 W^2),

with P = |c|^2 and the real envelope q = c(t) exp(i w0 t / 2).  Memory-kernel
model:

    xi(C, tau) = exp(-tau / 2) (cosh(Om tau / 2) + sinh(Om tau / 2) / Om),
    Om = sqrt(1 - 4 C),

with P = xi(C, gamma t) and q = xi(C / 2, gamma t).  Each formula is written
as printed, in complex arithmetic, so one expression covers both sides of
R = 1/2 and C = 1/4; only Om = 0 takes its limit, (lambda / Om) sinh(Om t / 2)
-> lambda t / 2.  The rates are numerical derivatives at the same precision.
Nothing here shares code, a case split or a series with ``qflow.channels``.
"""

import mpmath

MP = mpmath.MPContext()
MP.dps = 50


def _damped(rate, om, t):
    """cosh(om t / 2) + (rate / om) sinh(om t / 2), and its limit rate t / 2 + 1 at om = 0."""
    if om == 0:
        return 1 + rate * t / 2
    return MP.cosh(om * t / 2) + rate / om * MP.sinh(om * t / 2)


def amplitude(t, W, lam, omega0=1.0):
    """The complex excited-state amplitude c(t), to 50 digits."""
    t, W, lam, omega0 = (MP.mpf(v) for v in (t, W, lam, omega0))
    om = MP.sqrt(lam * lam - 4 * W * W)
    return MP.exp(-MP.mpc(lam, omega0) * t / 2) * _damped(lam, om, t)


def xi(C, tau):
    """The memory-kernel relaxation factor xi(C, tau), to 50 digits."""
    C, tau = MP.mpf(C), MP.mpf(tau)
    return MP.re(MP.exp(-tau / 2) * _damped(1, MP.sqrt(1 - 4 * C), tau))


def _with_rates(fs, t):
    """((f(t) for f in fs), (f'(t) for f in fs)) as floats."""
    t = MP.mpf(t)
    return (tuple(float(f(t)) for f in fs),
            tuple(float(MP.diff(f, t)) for f in fs))


def time_local_envelopes(t, W, lam, omega0=1.0):
    """((P, q), (Pdot, qdot)) of the time-local model at one time t, as floats."""
    def P(s):
        return abs(amplitude(s, W, lam, omega0)) ** 2

    def q(s):
        return MP.re(amplitude(s, W, lam, omega0) * MP.expj(MP.mpf(omega0) * s / 2))

    return _with_rates((P, q), t)


def memory_kernel_envelopes(t, gamma0, gamma):
    """((P, q), (Pdot, qdot)) of the memory-kernel model at one time t, as floats."""
    C, gamma = MP.mpf(gamma0) / MP.mpf(gamma), MP.mpf(gamma)

    def P(s):
        return xi(C, gamma * s)

    def q(s):
        return xi(C / 2, gamma * s)

    return _with_rates((P, q), t)
