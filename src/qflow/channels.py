"""The two exactly solvable dissipative models and their independent oracles.

Time-local model (Lorentzian bath, zero temperature):

    J(w)   = W^2 lambda / pi / ((w0 - w)^2 + lambda^2)
    c(t)   = exp(-(lambda + i w0) t / 2) (cosh(Om t/2) + (lambda/Om) sinh(Om t/2))
    Om     = sqrt(lambda^2 - 4 W^2)   (imaginary for R > 1/2: cos and sin of |Om| t/2)
    rho(t) : populations scale with |c|^2, coherences with c(t)

Memory-kernel model (exponential kernel, dissipation rate gamma0, inverse
memory time gamma, C = gamma0/gamma, tau = gamma t):

    xi(C, tau) = exp(-tau/2) (cosh(Om tau/2) + (1/Om) sinh(Om tau/2)),  Om = sqrt(1 - 4C)
    rho(t)     : populations scale with xi(C, tau), coherences with
                 exp(-i w0 t) xi(C/2, tau)

Both models share one form, rho00 = p00 P(t) and rho01 = coh Q(t), with
Q = q exp(-i omega_eff t) for a real envelope q (omega_eff = w0/2 for the
time-local model, w0 for the memory kernel).  Each model class owns the only
copy of its envelopes ((P, q), (Pdot, qdot)); the factors (P, Q), their
rates and the scalar helpers ``amplitude``, ``abs_c_squared`` and ``xi`` are
built from them.  Both envelopes come from one real kernel: xi(C, tau) is
the Lorentzian envelope at lambda = 1, W^2 = C.
Both closed forms are cross-checked against hand-rolled
fixed-step RK4 integrations.  The time-local oracle takes its decay rates
from :func:`decay_rates`, so it checks that the closed form solves the
master equation its rates define.  The memory-kernel oracle integrates the
integro-differential equation without any closed-form function, so it is an
independent check of the shared kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericalError, PoleError, StepSizeError, require_finite
from .qstate import (POSITIVITY_TOL, SIGMA_MINUS, SIGMA_PLUS, DensityMatrix, bloch_array,
                     eigenvalues)

POLE_TOL = 1e-12
ORACLE_CONVERGENCE_TOL = 1e-8
ORACLE_MAX_HALVINGS = 10
# sample_times: at least MIN_SAMPLES, SAMPLES_PER_FEATURE per feature scale,
# and a grid above MAX_SAMPLES is a NumericalError
MIN_SAMPLES = 801
SAMPLES_PER_FEATURE = 40
MAX_SAMPLES = 200001
_SINHC_SERIES_CUTOFF = 1e-6


class _Stackable:
    """Stacks of parameter sets: one object of a parameter class whose fields are arrays.

    A model over a stack evaluates element k of ``factors(t)`` and
    ``rates(t)`` at set k, with t broadcasting against the stack, so the
    formulas stay written once.  Indexing a stack picks sets.  The scalar
    helpers (``Omega``, ``feature_scale`` and the like) do not apply to it.
    """

    @classmethod
    def stack(cls, sets):
        """One object over the validated parameter sets ``sets``, all of this class."""
        sets = list(sets)
        if not sets or any(type(s) is not cls for s in sets):
            raise ConfigError(f"a stack needs one or more {cls.__name__} sets, all of that class")
        return cls._of_fields({f.name: np.array([getattr(s, f.name) for s in sets], dtype=float)
                               for f in fields(cls)})

    def __getitem__(self, idx):
        return self._of_fields({f.name: getattr(self, f.name)[idx] for f in fields(self)})

    @classmethod
    def _of_fields(cls, columns: dict):
        out = object.__new__(cls)  # each set was validated when it was made
        for name, column in columns.items():
            object.__setattr__(out, name, column)
        return out


@dataclass(frozen=True)
class TimeLocalParams(_Stackable):
    """Constants of the time-local model: coupling W, spectral width, frequency."""

    W: float
    lam: float
    omega0: float = 1.0

    def __post_init__(self) -> None:
        require_finite("TimeLocalParams", W=self.W, lam=self.lam, omega0=self.omega0)
        if self.W < 0.0:
            raise ConfigError(f"coupling W={self.W} must be >= 0")
        if self.lam <= 0.0:
            raise ConfigError(f"spectral width lambda={self.lam} must be > 0")
        if self.omega0 <= 0.0:
            raise ConfigError(f"transition frequency omega0={self.omega0} must be > 0")

    @property
    def R(self) -> float:
        return self.W / self.lam

    def at_ratio(self, R: float) -> TimeLocalParams:
        """The parameters at ratio R = W / lambda: W fixed, lambda = W / R."""
        return TimeLocalParams(self.W, self.W / R, self.omega0)

    @property
    def Omega(self) -> complex:
        return cmath.sqrt(complex(self.lam * self.lam - 4.0 * self.W * self.W))

    def quasi_period(self) -> float:
        return 2.0 * math.pi / self.omega0

    def timescale(self) -> float:
        return min(self.quasi_period(), 1.0 / self.lam)

    def feature_scale(self) -> float:
        """Shortest scale on which the dynamics has structure (sampling aid)."""
        scale = self.timescale()
        om = self.Omega
        if abs(om.imag) > 0.0:
            scale = min(scale, math.pi / abs(om.imag))
        return scale


@dataclass(frozen=True)
class MemoryKernelParams(_Stackable):
    """Constants of the exponential-memory model."""

    gamma0: float
    gamma: float
    omega0: float = 1.0

    def __post_init__(self) -> None:
        require_finite("MemoryKernelParams", gamma0=self.gamma0, gamma=self.gamma,
                       omega0=self.omega0)
        if self.gamma0 < 0.0:
            raise ConfigError(f"dissipation rate gamma0={self.gamma0} must be >= 0")
        if self.gamma <= 0.0:
            raise ConfigError(f"inverse memory time gamma={self.gamma} must be > 0")
        if self.omega0 <= 0.0:
            raise ConfigError(f"transition frequency omega0={self.omega0} must be > 0")

    @property
    def C(self) -> float:
        return self.gamma0 / self.gamma

    def at_ratio(self, C: float) -> MemoryKernelParams:
        """The parameters at ratio C = gamma0 / gamma: gamma0 fixed, gamma = gamma0 / C."""
        return MemoryKernelParams(self.gamma0, self.gamma0 / C, self.omega0)

    @property
    def tau_R(self) -> float:
        return 1.0 / self.gamma

    @property
    def Omega(self) -> complex:
        return cmath.sqrt(complex(1.0 - 4.0 * self.C))

    def tau(self, t):
        return self.gamma * np.asarray(t, dtype=float)

    def quasi_period(self) -> float:
        return 2.0 * math.pi / self.omega0

    def timescale(self) -> float:
        return min(self.quasi_period(), self.tau_R)

    def feature_scale(self) -> float:
        scale = self.timescale()
        om = self.Omega
        if abs(om.imag) > 0.0:
            # oscillation period of xi in t units
            scale = min(scale, math.pi / (self.gamma * abs(om.imag)))
        return scale


@dataclass(frozen=True)
class Trajectory:
    """Ordered (t, state) samples of one dynamical run."""

    times: np.ndarray
    states: np.ndarray
    model: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if t.ndim != 1 or s.shape != (t.size, 2, 2):
            raise ConfigError("trajectory arrays must be (n,) times and (n, 2, 2) states")
        if t.size == 0 or t[0] != 0.0:
            raise ConfigError("trajectory must start at t = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ConfigError("trajectory times must be strictly increasing")
        t.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return int(self.times.size)

    def density(self, i: int) -> DensityMatrix:
        return DensityMatrix(self.states[i])

    def initial(self) -> DensityMatrix:
        return self.density(0)

    def final(self) -> DensityMatrix:
        return self.density(len(self) - 1)

    def bloch(self) -> np.ndarray:
        """Bloch vectors of all samples, shape (n, 3)."""
        return bloch_array(self.states)


def _damping_kernel(t, rate, w_sq):
    """Return (g, gdot, sinhc(Om t / 2)), all real, with Om^2 = rate^2 - 4 w_sq.

    ``rate`` and ``w_sq`` are scalars or arrays that broadcast against t.
    Om^2 > 0 takes cosh and sinh of u = |Om| t / 2, Om^2 < 0 cos and sin (per
    set of a stack); below the cutoff sinhc is a series in the signed
    x^2 = Om^2 t^2 / 4, so R = 1/2 and C = 1/4 stay exact.

    g is the envelope both models share: c = exp(-(lambda + i w0) t / 2) g at
    (rate, w_sq) = (lambda, W^2), and xi(C, tau) = exp(-tau / 2) g at
    (1, C) with t = tau.
    """
    t = np.asarray(t, dtype=float)
    omega_sq = rate * rate - 4.0 * w_sq
    u = 0.5 * np.sqrt(np.abs(omega_sq)) * t
    grow = omega_sq > 0.0
    if np.ndim(grow):  # a stack: each set in its own regime
        ch, sh = np.empty_like(u), np.empty_like(u)
        np.cos(u, out=ch, where=~grow)
        np.sin(u, out=sh, where=~grow)
        np.cosh(u, out=ch, where=grow)
        np.sinh(u, out=sh, where=grow)
    elif grow:
        ch, sh = np.cosh(u), np.sinh(u)
    else:
        ch, sh = np.cos(u), np.sin(u)
    small = u < _SINHC_SERIES_CUTOFF
    sc = np.divide(sh, u, out=np.empty_like(u), where=~small)
    if small.any():
        x_sq = np.copysign(u * u, omega_sq)[small]
        sc[small] = 1.0 + x_sq / 6.0 + x_sq * x_sq / 120.0
    g = ch + 0.5 * rate * t * sc
    gdot = 0.5 * rate * ch + 0.25 * omega_sq * t * sc
    return g, gdot, sc


def lorentzian_density(omega, p: TimeLocalParams):
    """Bath spectral density J(w) = W^2 lambda / pi / ((w0 - w)^2 + lambda^2)."""
    omega = np.asarray(omega, dtype=float)
    det = p.omega0 - omega
    return (p.W * p.W * p.lam / math.pi) / (det * det + p.lam * p.lam)


def amplitude(t, p: TimeLocalParams):
    """Complex excited-state amplitude c(t); accepts scalars or arrays."""
    return TimeLocalModel(p).factors(t)[1]


def abs_c_squared(t, p: TimeLocalParams):
    """|c(t)|^2 = exp(-lambda t) g(t)^2; ``p`` may be a stack (``TimeLocalParams.stack``)."""
    return TimeLocalModel(p).envelopes(t)[0][0]


def decay_rates(t, p: TimeLocalParams):
    """Decay rate Gamma(t) = lambda/2 - gdot/g and shift Delta = omega0/2, elementwise.

    Gamma = -Re(cdot/c) and Delta = -Im(cdot/c) are the rates of the
    time-local master equation.  Gamma diverges at zeros of c (possible only
    for R > 1/2); a :class:`PoleError` names the first such t instead of
    returning infinities.
    """
    t = np.asarray(t, dtype=float)
    g, gdot, _ = _damping_kernel(t, p.lam, p.W * p.W)
    poles = np.flatnonzero(np.abs(g) < POLE_TOL)
    if poles.size:
        raise PoleError(f"decay rate pole: c(t) = 0 at t = {float(t.flat[poles[0]])!r}")
    return 0.5 * p.lam - gdot / g, np.full(t.shape, 0.5 * p.omega0)


def first_amplitude_zero(p: TimeLocalParams) -> float | None:
    """Time of the first zero of c(t), or None when R <= 1/2 (no zeros)."""
    om = p.Omega
    if abs(om.imag) == 0.0:
        return None
    w = abs(om.imag)
    return 2.0 * (math.pi - math.atan2(w, p.lam)) / w


def xi(C: float, tau):
    """Population relaxation factor of the exponential-memory model."""
    out = MemoryKernelModel(MemoryKernelParams(C, 1.0)).envelopes(tau)[0][0]
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Analytic propagation: both models share rho00 = p00 P(t), rho01 = coh Q(t)
# ---------------------------------------------------------------------------

def _assemble(rho0: DensityMatrix, pop, coh_factor, trace: float) -> np.ndarray:
    """Matrices with rho00 = p00 pop, rho11 = trace - rho00, rho01 = coh coh_factor.

    States pass (P, Q) with trace 1; state derivatives pass (Pdot, Qdot)
    with trace 0.
    """
    p00 = rho0.matrix[0, 0].real
    coh = rho0.matrix[0, 1] * coh_factor
    out = np.empty(np.shape(pop) + (2, 2), dtype=complex)
    out[..., 0, 0] = p00 * pop
    out[..., 1, 1] = trace - p00 * pop
    out[..., 0, 1] = coh
    out[..., 1, 0] = np.conj(coh)
    return out


_GROUND = DensityMatrix.ground()  # immutable, so every model hands out this one


class _DampingModel:
    """A damping model bound to one parameter set.

    Subclasses own the only copy of their formulas: ``_envelopes_of(t)``
    returns the real envelopes ((P, q), (Pdot, qdot)), elementwise in t, and
    ``omega_eff`` is the turn of Q = q exp(-i omega_eff t).  ``envelopes``,
    ``factors`` (P, Q), ``rates`` (Pdot, Qdot) and ``factors_and_rates``
    (both from one evaluation) are defined here on top of them; callers that
    read only P and |Q| take the envelopes.  States and state derivatives
    are assembled from the factors and rates.  ``states``, ``state_dot`` and
    ``trajectory`` are defined here once and bound into each subclass's
    ``__dict__`` by one assignment, because ``perfbench/tracer.py`` wraps
    them per model class there.

    The envelopes do not depend on the initial state, so callers that
    evaluate many states on one grid (a sweep row's ledgers and literal
    phases) evaluate them once and take each state's arithmetic from them.
    A model over a parameter stack
    (``TimeLocalModel(TimeLocalParams.stack(sets))``) is many models at
    once: callers that evaluate many parameter sets at one time each (a
    bisection round over several models, a ratio scan at one horizon) make
    one call for all of them.
    """

    tag = ""

    def __init__(self, params):
        self.params = params

    @property
    def omega0(self) -> float:
        return self.params.omega0

    def steady_state(self) -> DensityMatrix:
        return _GROUND

    def feature_scale(self) -> float:
        return self.params.feature_scale()

    def envelopes(self, t):
        """((P, q), (Pdot, qdot)) at the times t."""
        return self._envelopes_of(np.asarray(t, dtype=float))

    def factors(self, t):
        """(P, Q) at the times t."""
        t = np.asarray(t, dtype=float)
        (P, q), _ = self._envelopes_of(t)
        return P, np.exp(-1j * self.omega_eff * t) * q

    def rates(self, t):
        """(Pdot, Qdot) at the times t."""
        return self.factors_and_rates(t)[2]

    def factors_and_rates(self, t):
        """(P, Q, (Pdot, Qdot)) from one evaluation, equal to ``factors`` and ``rates``."""
        t = np.asarray(t, dtype=float)
        (P, q), (p_dot, q_dot) = self._envelopes_of(t)
        turn = np.exp(-1j * self.omega_eff * t)
        return P, turn * q, (p_dot, turn * (q_dot - 1j * self.omega_eff * q))

    def bloch_series(self, rho0: DensityMatrix, times) -> np.ndarray:
        return bloch_array(self.states(rho0, times))

    def states(self, rho0: DensityMatrix, times) -> np.ndarray:
        return _assemble(rho0, *self.factors(times), 1.0)

    def state_dot(self, rho0: DensityMatrix, times) -> np.ndarray:
        return _assemble(rho0, *self.rates(times), 0.0)

    def trajectory(self, rho0: DensityMatrix, times) -> Trajectory:
        meta = {"omega0": self.params.omega0, "phi0": float(np.angle(rho0.matrix[1, 0]))}
        return Trajectory(np.asarray(times, float), self.states(rho0, times), self.tag, meta)


_BOUND_PER_MODEL = (_DampingModel.states, _DampingModel.state_dot, _DampingModel.trajectory)


class TimeLocalModel(_DampingModel):
    """Time-local model: P = |c|^2, Q = c(t) = exp(-i w0 t / 2) q."""

    tag = "time-local"
    states, state_dot, trajectory = _BOUND_PER_MODEL

    @property
    def omega_eff(self):
        return 0.5 * self.params.omega0

    def _envelopes_of(self, t):
        """((|c|^2, q), (d|c|^2/dt, dq/dt)) with q = exp(-lambda t / 2) g.

        |c|^2 is exp(-lambda t) g^2, not q^2, and d|c|^2/dt is
        -2 W^2 t exp(-lambda t) g sinhc(Om t / 2).
        """
        p = self.params
        g, gdot, sc = _damping_kernel(t, p.lam, p.W * p.W)
        decay, half_decay = np.exp(-p.lam * t), np.exp(-0.5 * p.lam * t)
        return ((decay * g * g, half_decay * g),
                (-2.0 * p.W * p.W * t * decay * g * sc, half_decay * (gdot - 0.5 * p.lam * g)))


class MemoryKernelModel(_DampingModel):
    """Exponential-memory model: P = xi(C, tau), Q = exp(-i w0 t) xi(C/2, tau).

    Positivity is not guaranteed for C > 1/4; states are returned as-is and
    violations are surfaced by :func:`positivity_check`, never clamped.
    """

    tag = "memory-kernel"
    states, state_dot, trajectory = _BOUND_PER_MODEL

    @property
    def omega_eff(self):
        return self.params.omega0

    def _envelopes_of(self, t):
        """((xi(C, tau), xi(C/2, tau)), their t derivatives) with xi(C, tau) = exp(-tau/2) g.

        d xi / d tau = -C tau exp(-tau/2) sinhc(Om tau / 2).
        """
        p = self.params
        tau = p.tau(t)
        decay = np.exp(-0.5 * tau)
        g1, _, sc1 = _damping_kernel(tau, 1.0, p.C)
        g2, _, sc2 = _damping_kernel(tau, 1.0, 0.5 * p.C)
        return ((decay * g1, decay * g2),
                (p.gamma * (-p.C * tau * decay * sc1),
                 p.gamma * (-(0.5 * p.C) * tau * decay * sc2)))


def sample_times(model, t_end: float) -> np.ndarray:
    """Uniform grid on [0, t_end] dense enough to resolve the model's features.

    Returns an odd number of points (even interval count) so composite
    Simpson integration applies directly.  A grid that would need more than
    MAX_SAMPLES points raises :class:`NumericalError`.
    """
    require_finite("sampling horizon", t_end=t_end)
    if t_end <= 0.0:
        raise ConfigError("t_end must be > 0")
    n = max(MIN_SAMPLES,
            int(math.ceil(SAMPLES_PER_FEATURE * t_end / model.feature_scale())) + 1)
    if n > MAX_SAMPLES:
        raise NumericalError(f"sampling [0, {t_end:.6g}] needs {n} samples, "
                             f"above the cap of {MAX_SAMPLES}")
    if n % 2 == 0:
        n += 1
    return np.linspace(0.0, t_end, n)


# ---------------------------------------------------------------------------
# ODE oracles (fixed-step RK4)
# ---------------------------------------------------------------------------

_NUMBER_OP = SIGMA_PLUS @ SIGMA_MINUS  # diag(1, 0)


def master_equation_rhs(rho: np.ndarray, gamma_t: float, delta_t: float) -> np.ndarray:
    """Right-hand side of the time-local master equation (matrix form)."""
    comm = _NUMBER_OP @ rho - rho @ _NUMBER_OP
    sandwich = SIGMA_MINUS @ rho @ SIGMA_PLUS
    anti = _NUMBER_OP @ rho + rho @ _NUMBER_OP
    return -1j * delta_t * comm + gamma_t * (2.0 * sandwich - anti)


def _dissipator(rho: np.ndarray, gamma0: float) -> np.ndarray:
    """Liouvillian of the memory-kernel model (interaction picture)."""
    sandwich = SIGMA_MINUS @ rho @ SIGMA_PLUS
    anti = _NUMBER_OP @ rho + rho @ _NUMBER_OP
    return 0.5 * gamma0 * (2.0 * sandwich - anti)


def _rk4_path(make_rhs, y0: np.ndarray, t_end: float, n_steps: int) -> np.ndarray:
    """Classic RK4 with n_steps fixed steps; returns y at every step (n+1, ...).

    ``make_rhs(stage_times)`` must return a callable ``rhs(j, y)`` giving the
    derivative at ``stage_times[j]``; all RK4 stage times lie on the
    half-step grid, which lets model-specific coefficients be precomputed.
    """
    h = t_end / n_steps
    rhs = make_rhs(np.linspace(0.0, t_end, 2 * n_steps + 1))
    out = np.empty((n_steps + 1,) + y0.shape, dtype=complex)
    out[0] = y0
    y = y0
    for k in range(n_steps):
        j = 2 * k
        k1 = rhs(j, y)
        k2 = rhs(j + 1, y + 0.5 * h * k1)
        k3 = rhs(j + 1, y + 0.5 * h * k2)
        k4 = rhs(j + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    return out


def _converged_rk4(make_rhs, y0: np.ndarray, t_end: float, dt: float | None,
                   scale_dt: float):
    """Run RK4 with step doubling until two successive refinements agree.

    Returns (path, times) at the final resolution.  With an explicit dt only
    one halving is attempted and failure raises StepSizeError (coarse step
    rejected); with dt None it starts from scale_dt and halving continues
    until convergence.
    """
    explicit_dt = dt is not None
    if dt is None:
        dt = scale_dt
    if dt <= 0.0:
        raise ConfigError("integration step dt must be > 0")
    n = max(2, int(math.ceil(t_end / dt)))
    prev = _rk4_path(make_rhs, y0, t_end, n)
    for _ in range(ORACLE_MAX_HALVINGS):
        n *= 2
        cur = _rk4_path(make_rhs, y0, t_end, n)
        err = float(np.max(np.abs(cur[::2] - prev)))
        if err < ORACLE_CONVERGENCE_TOL:
            return cur, np.linspace(0.0, t_end, n + 1)
        if explicit_dt:
            raise StepSizeError(
                f"dt={dt} too coarse: refinement changed the result by {err:.3e}"
            )
        prev = cur
    raise StepSizeError(f"RK4 failed to converge to {ORACLE_CONVERGENCE_TOL} after halvings")


def _default_oracle_dt(timescale: float) -> float:
    return timescale / 200.0


def ode_oracle_time_local_path(
    rho0: DensityMatrix, t_end: float, p: TimeLocalParams, dt: float | None = None
) -> Trajectory:
    """4th-order fixed-step integration of the time-local master equation.

    Certified only on intervals free of zeros of c(t), where the rates are
    finite; a zero inside [0, t_end] raises :class:`PoleError` up front.
    """
    if t_end <= 0.0:
        raise ConfigError("oracle horizon must be > 0")
    t_zero = first_amplitude_zero(p)
    if t_zero is not None and t_zero <= t_end:
        raise PoleError(
            f"rates diverge: c(t) vanishes at t = {t_zero:.6g} inside [0, {t_end:.6g}]"
        )

    def make_rhs(stage_times: np.ndarray):
        gamma_t, delta_t = decay_rates(stage_times, p)

        def rhs(j: int, rho: np.ndarray) -> np.ndarray:
            return master_equation_rhs(rho, gamma_t[j], delta_t[j])

        return rhs

    path, times = _converged_rk4(
        make_rhs, np.asarray(rho0.matrix, dtype=complex), t_end, dt,
        _default_oracle_dt(p.timescale()),
    )
    return Trajectory(times, path, "time-local-oracle", {"omega0": p.omega0})


def ode_oracle_memory_kernel_path(
    rho0: DensityMatrix, t_end: float, p: MemoryKernelParams, dt: float | None = None
) -> Trajectory:
    """Integrate the memory-kernel equation by exact localisation.

    The convolution with the exponential kernel is converted exactly into a
    local system via u(t) = int_0^t gamma exp(-gamma (t - s)) L rho(s) ds,
    which obeys du/dt = gamma (L rho - u) with u(0) = 0.  (rho, u) are
    integrated jointly in the interaction picture; the free rotation
    exp(-i w0 t n) is applied afterwards.
    """
    if t_end <= 0.0:
        raise ConfigError("oracle horizon must be > 0")

    def make_rhs(_stage_times: np.ndarray):
        def rhs(_j: int, y: np.ndarray) -> np.ndarray:
            rho_i, u = y[0], y[1]
            du = p.gamma * (_dissipator(rho_i, p.gamma0) - u)
            return np.stack([u, du])

        return rhs

    y0 = np.stack([np.asarray(rho0.matrix, dtype=complex), np.zeros((2, 2), complex)])
    path, times = _converged_rk4(make_rhs, y0, t_end, dt, _default_oracle_dt(p.timescale()))
    rot = np.exp(-1j * p.omega0 * times)
    states = path[:, 0, :, :].copy()
    states[:, 0, 1] *= rot
    states[:, 1, 0] *= np.conj(rot)
    return Trajectory(times, states, "memory-kernel-oracle", {"omega0": p.omega0})


# ---------------------------------------------------------------------------
# Positivity reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityReport:
    """Per-trajectory minimum-eigenvalue audit."""

    ok: bool
    min_eigenvalue: float
    argmin_time: float
    first_violation_time: float | None
    threshold: float


def positivity_check(times, bloch) -> PositivityReport | list[PositivityReport]:
    """Scan the Bloch vectors (n, 3) sampled at ``times`` for eigenvalues below -POSITIVITY_TOL.

    Bloch vectors with a leading entry axis, (k, n, 3), are k trajectories on
    the one grid: the result is then a list of k reports, each equal to the
    report of that trajectory alone, from one eigenvalue evaluation.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ConfigError("positivity_check requires a non-empty sample")
    eigs = eigenvalues(bloch)[1]
    rows = eigs.reshape(-1, eigs.shape[-1])
    i_min = np.argmin(rows, axis=1)
    bad = rows < -POSITIVITY_TOL
    any_bad = bad.any(axis=1).tolist()
    first = np.argmax(bad, axis=1)
    reports = [
        PositivityReport(ok=not b, min_eigenvalue=e, argmin_time=t,
                         first_violation_time=f if b else None, threshold=POSITIVITY_TOL)
        for b, e, t, f in zip(any_bad, rows[np.arange(len(rows)), i_min].tolist(),
                              times[i_min].tolist(), times[first].tolist())
    ]
    return reports if eigs.ndim == 2 else reports[0]
