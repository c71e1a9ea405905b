"""Qubit state representations, conversions, eigenvalues and eigenbasis, trace distance.

Each qubit-geometry formula is written once here, vectorised over samples:
:func:`bloch_array`, :func:`bloch_dot`, :func:`eigenvalues`,
:func:`eigenbasis` and :func:`bloch_trace_distance`.  So is each eigenvalue
decision: a state is positive while its smaller eigenvalue is at least
-POSITIVITY_TOL, and a sampled path has an eigenbasis while
:func:`require_nondegenerate` passes on its |r|.

Conventions (see CONVENTIONS.md for the full story):

* Basis index 0 is the excited level, index 1 the ground level, so the
  number operator is ``sp @ sm = diag(1, 0)`` and the dissipative fixed
  point is ``diag(0, 1)`` with Bloch vector (0, 0, -1).
* ``rho = (I + r . sigma) / 2`` with r = r (sin theta cos phi,
  sin theta sin phi, cos theta), hence
  ``rho[0, 1] = r sin(theta) exp(-i phi) / 2``.
* The eigenbasis comes in two flavours, ``"spectral"`` (true
  eigenvectors of the matrix) and ``"literal"`` (the fixed parameterised
  family used by the closed-form phase expressions, with the azimuth
  supplied by the caller).  They carry the same eigenvalues and the same
  polar angle but different eigenvector conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateStateError, NumericalError, UnphysicalStateError,
                     require_finite)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
BLOCH_NORM_TOL = 1e-9
POSITIVITY_TOL = 1e-9
DEGENERACY_EPS = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class BlochVector:
    """Cartesian Bloch vector components.

    Physical states satisfy ``x**2 + y**2 + z**2 <= 1`` (up to tolerance);
    construction does not enforce this because diagnostic code must be able
    to represent the output of non-positive dynamical maps.  Use
    :func:`density_from_bloch` when physicality must be enforced.
    """

    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_physical(self, tol: float = BLOCH_NORM_TOL) -> bool:
        return self.norm() <= 1.0 + tol

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def to_polar(self) -> "PolarBloch":
        r = self.norm()
        if r == 0.0:
            return PolarBloch(0.0, 0.0, 0.0)
        theta = math.atan2(math.hypot(self.x, self.y), self.z)
        phi = math.atan2(self.y, self.x) % (2.0 * math.pi)
        return PolarBloch(r, theta, phi)


@dataclass(frozen=True)
class PolarBloch:
    """Spherical Bloch coordinates: radius, polar angle, azimuth."""

    r: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not -BLOCH_NORM_TOL <= self.r <= 1.0 + BLOCH_NORM_TOL:
            raise UnphysicalStateError(f"Bloch radius {self.r} outside [0, 1]")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise UnphysicalStateError(f"polar angle {self.theta} outside [0, pi]")

    def to_bloch(self) -> BlochVector:
        st = math.sin(self.theta)
        return BlochVector(
            self.r * st * math.cos(self.phi),
            self.r * st * math.sin(self.phi),
            self.r * math.cos(self.theta),
        )


@dataclass(frozen=True)
class InitialStateSpec:
    """Initial-state family: (1 - z)/2 * I + z |xi><xi|.

    ``|xi> = cos(vartheta0)|0> + sin(vartheta0) exp(i varphi0)|1>`` so the
    Bloch image is (r0, theta0, phi0) = (z, 2 vartheta0, varphi0).
    """

    z: float
    vartheta0: float
    varphi0: float = 0.0

    def __post_init__(self) -> None:
        require_finite("InitialStateSpec", z=self.z, vartheta0=self.vartheta0,
                       varphi0=self.varphi0)
        if not 0.0 <= self.z <= 1.0:
            raise UnphysicalStateError(f"mixing weight z={self.z} outside [0, 1]")

    @property
    def theta0(self) -> float:
        return 2.0 * self.vartheta0

    def to_bloch(self) -> BlochVector:
        st = math.sin(self.theta0)
        return BlochVector(
            self.z * st * math.cos(self.varphi0),
            self.z * st * math.sin(self.varphi0),
            self.z * math.cos(self.theta0),
        )

    def to_polar(self) -> PolarBloch:
        return self.to_bloch().to_polar()


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 finite Hermitian unit-trace matrix.

    Finiteness, Hermiticity and unit trace are enforced at construction.
    Positivity is deliberately *not* enforced: the exponential-memory model
    can produce negative eigenvalues, and that violation is a reportable
    result, so it is exposed via :meth:`min_eigenvalue` / :meth:`is_positive`
    instead of being clamped or rejected.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise UnphysicalStateError(f"density matrix must be 2x2, got {m.shape}")
        if not np.all(np.isfinite(m)):  # NaN would pass every comparison below
            raise UnphysicalStateError("density matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise UnphysicalStateError("density matrix is not Hermitian to 1e-12")
        if abs(m[0, 0].real + m[1, 1].real - 1.0) > TRACE_TOL:
            raise UnphysicalStateError("density matrix trace differs from 1 by > 1e-12")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls(0.5 * IDENTITY)

    @classmethod
    def ground(cls) -> "DensityMatrix":
        return cls(np.diag([0.0, 1.0]).astype(complex))

    @classmethod
    def excited(cls) -> "DensityMatrix":
        return cls(np.diag([1.0, 0.0]).astype(complex))

    def bloch(self) -> BlochVector:
        return BlochVector(*bloch_array(self.matrix))

    def purity(self) -> float:
        r = self.bloch().norm()
        return 0.5 * (1.0 + r * r)

    def min_eigenvalue(self) -> float:
        return float(eigenvalues(self.bloch().as_array())[1])

    def is_positive(self) -> bool:
        return self.min_eigenvalue() >= -POSITIVITY_TOL

    def isclose(self, other: "DensityMatrix", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - other.matrix)) <= tol)


def bloch_dot(a: np.ndarray, b: np.ndarray):
    """a_x b_x + a_y b_y + a_z b_z of Bloch arrays (..., 3), bit for bit ``np.sum``'s.

    Elementwise passes instead of a reduction over the size-3 axis, which
    numpy runs as a slow strided loop; (3,) inputs give a scalar.  ``np.sum``
    adds from +0.0, so three products of -0.0 sum to +0.0 here too.
    """
    s = a[..., 0] * b[..., 0]
    s += 0.0
    s += a[..., 1] * b[..., 1]
    s += a[..., 2] * b[..., 2]
    return s


def bloch_array(states) -> np.ndarray:
    """Bloch vectors (..., 3) of Hermitian unit-trace matrices (..., 2, 2)."""
    states = np.asarray(states)
    out = np.empty(states.shape[:-2] + (3,), dtype=float)
    out[..., 0] = 2.0 * states[..., 0, 1].real
    out[..., 1] = -2.0 * states[..., 0, 1].imag
    out[..., 2] = (states[..., 0, 0] - states[..., 1, 1]).real
    return out


def _radius_and_eigenvalues(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|r|, eps_plus, eps_minus) of float Bloch arrays (..., 3)."""
    r = np.sqrt(bloch_dot(b, b))
    return r, 0.5 * (1.0 + r), 0.5 * (1.0 - r)


def eigenvalues(bloch) -> tuple[np.ndarray, np.ndarray]:
    """(eps_plus, eps_minus) = ((1 + |r|)/2, (1 - |r|)/2) of Bloch arrays (..., 3).

    Also for a non-positive matrix (|r| > 1): eps_minus is the minimum
    eigenvalue, and the state counts as positive while it is at least
    -POSITIVITY_TOL.
    """
    return _radius_and_eigenvalues(np.asarray(bloch, dtype=float))[1:]


def require_nondegenerate(r, times) -> None:
    """Raise unless the Bloch radii |r| sampled at ``times`` all have an eigenbasis.

    The one degeneracy rule of the phase routes, applied by each on its own
    grid: the first non-finite sample raises :class:`NumericalError`, and a
    smallest |r| below DEGENERACY_EPS (the Bloch-ball centre, where
    eps_plus = eps_minus) raises :class:`DegenerateStateError`.  Only the
    samples are read, so a path that crosses the centre between two of them
    passes here and meets the routes' overlap floor instead.
    """
    finite = np.isfinite(r)
    if not finite.all():
        raise NumericalError(f"state is not finite at t = {times[np.argmin(finite)]:.6g}")
    k = np.argmin(r)
    if r[k] < DEGENERACY_EPS:
        raise DegenerateStateError(
            f"eigenbasis undefined: |r| = {r[k]:.3e} at t = {times[k]:.6g}")


def _eigenvectors(theta, phase, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(v_plus, v_minus) at polar angle theta and azimuth phase, in the layout of ``mode``."""
    half = 0.5 * np.asarray(theta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    if mode == "literal":  # swapped components: theta -> pi - theta
        c, s = s, c
    ph = np.exp(1j * np.asarray(phase, dtype=float))
    v_plus = np.empty(np.broadcast_shapes(c.shape, ph.shape) + (2,), dtype=complex)
    v_minus = np.empty_like(v_plus)
    v_plus[..., 0] = c
    v_plus[..., 1] = s * ph
    v_minus[..., 0] = -s
    v_minus[..., 1] = c * ph
    return v_plus, v_minus


def eigenbasis(bloch, mode: str = "spectral", azimuth=None):
    """(|r|, eps_plus, eps_minus, theta, phase, v_plus, v_minus) of Bloch arrays (..., 3).

    Both modes share :func:`eigenvalues`, from the same |r|, and
    ``theta = atan2(hypot(x, y), z)``;
    ``"spectral"`` gives the matrix eigenvectors with the azimuth of
    ``rho[1, 0]``, ``"literal"`` the swapped layout with the caller's azimuth
    (see CONVENTIONS.md).  An unknown mode, or literal mode without an
    azimuth, raises :class:`ConfigError`.  The vectors have shape (..., 2);
    where |r| fails :func:`require_nondegenerate` they are not an eigenbasis.
    """
    if mode not in ("spectral", "literal"):
        raise ConfigError(f"unknown decomposition mode {mode!r}")
    b = np.asarray(bloch, dtype=float)
    x, y, z = b[..., 0], b[..., 1], b[..., 2]
    if mode == "spectral":
        phase = np.arctan2(y, x)  # azimuth of rho[1, 0]
    elif azimuth is None:
        raise ConfigError("literal mode requires the caller to supply the azimuth")
    else:
        phase = np.asarray(azimuth, dtype=float)
    theta = np.arctan2(np.hypot(x, y), z)
    return (*_radius_and_eigenvalues(b), theta, phase, *_eigenvectors(theta, phase, mode))


def density_from_bloch(b: BlochVector) -> DensityMatrix:
    """Build rho = (I + r . sigma)/2, rejecting unphysical |r| > 1."""
    if not b.is_physical():
        raise UnphysicalStateError(f"Bloch vector norm {b.norm()} exceeds 1")
    m = 0.5 * (IDENTITY + b.x * SIGMA_X + b.y * SIGMA_Y + b.z * SIGMA_Z)
    return DensityMatrix(m)


def initial_state(spec: InitialStateSpec) -> DensityMatrix:
    """State (1 - z)/2 * I + z |xi><xi| of the initial-state family."""
    xi = np.array(
        [math.cos(spec.vartheta0), math.sin(spec.vartheta0) * np.exp(1j * spec.varphi0)],
        dtype=complex,
    )
    m = 0.5 * (1.0 - spec.z) * IDENTITY + spec.z * np.outer(xi, xi.conj())
    return DensityMatrix(m)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of rho1 - rho2.

    For qubits this equals half the Euclidean distance between the Bloch
    vectors; the eigenvalue form is used directly here and the Bloch form
    serves as an independent check in the test suite.
    """
    diff = rho1.matrix - rho2.matrix
    eigs = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.sum(np.abs(eigs)))


def bloch_trace_distance(r1, r2) -> np.ndarray:
    """Trace distance |r1 - r2| / 2 between Bloch arrays (..., 3), broadcast."""
    diff = np.subtract(r1, r2, dtype=float)
    return 0.5 * np.sqrt(bloch_dot(diff, diff))
