import math

import numpy as np
import pytest

from qflow.qstate import BlochVector, DensityMatrix, density_from_bloch

SEED = 20240811


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_bloch_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Bloch vectors uniform in the unit ball, shape (n, 3)."""
    r = rng.random(n) ** (1.0 / 3.0)
    cos_t = rng.uniform(-1.0, 1.0, n)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([r * sin_t * np.cos(phi), r * sin_t * np.sin(phi), r * cos_t], axis=1)


def density_of(b: np.ndarray) -> DensityMatrix:
    return density_from_bloch(BlochVector(float(b[0]), float(b[1]), float(b[2])))


def ledger_phase(ledger, model, rho0) -> float:
    """The paper's phase-flow relation: the literal-mode phase from a flow ledger.

    The psi+ connection is the Simpson integral of ``phase_integrand`` over
    D(0) + N - M and r_z = 2 p00 P - 1 on the ledger grid, the psi- one is
    omega0 T minus it, and |r|^2 = 4 D^2 - 2 r_z - 1 at both ends gives the
    polar angles (endpoint overlaps) and eigenvalues (weights).
    """
    from scipy.integrate import simpson

    from qflow.geomphase import WEIGHT_FLOOR, phase_integrand

    times, omega0 = ledger.times, model.omega0
    d_eff = ledger.D[0] + ledger.N - ledger.M
    r_z = 2.0 * rho0.matrix[0, 0].real * model.factors(times)[0] - 1.0
    conn_plus = simpson(phase_integrand(d_eff, r_z, omega0), x=times)
    ends = np.array([0, -1])
    r = np.sqrt(4.0 * d_eff[ends] ** 2 - 2.0 * r_z[ends] - 1.0)
    c, s = np.sqrt(0.5 * (1.0 + r_z[ends] / r)), np.sqrt(0.5 * (1.0 - r_z[ends] / r))
    turn = np.exp(1j * omega0 * times[-1])
    total = 0.0
    for sign, conn, overlap in ((1.0, conn_plus, s[0] * s[1] + c[0] * c[1] * turn),
                                (-1.0, omega0 * times[-1] - conn_plus,
                                 c[0] * c[1] + s[0] * s[1] * turn)):
        weight = math.sqrt(abs(0.25 * (1.0 + sign * r[0]) * (1.0 + sign * r[1])))
        if weight >= WEIGHT_FLOOR:
            total += weight * overlap * np.exp(-1j * conn)
    return float(np.angle(total))
