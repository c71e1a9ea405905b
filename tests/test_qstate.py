import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qflow.errors import ConfigError, DegenerateStateError, NumericalError, UnphysicalStateError
from qflow.qstate import (
    DEGENERACY_EPS,
    BlochVector,
    DensityMatrix,
    InitialStateSpec,
    PolarBloch,
    bloch_dot,
    bloch_trace_distance,
    density_from_bloch,
    eigenbasis,
    eigenvalues,
    initial_state,
    require_nondegenerate,
    trace_distance,
)

from .conftest import density_of, random_bloch_array


class TestDensityFromBloch:
    def test_north_pole(self):
        rho = density_from_bloch(BlochVector(0, 0, 1))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_maximally_mixed(self):
        rho = density_from_bloch(BlochVector(0, 0, 0))
        assert np.allclose(rho.matrix, 0.5 * np.eye(2))

    def test_equator_pure(self):
        rho = density_from_bloch(BlochVector(1, 0, 0))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError):
            density_from_bloch(BlochVector(1.0, 1.0, 1.0))

    def test_round_trip_bulk(self, rng):
        blochs = random_bloch_array(rng, 10_000)
        for b in blochs[:200]:
            rho = density_of(b)
            back = rho.bloch().as_array()
            assert np.max(np.abs(back - b)) < 1e-12
            assert density_from_bloch(rho.bloch()).isclose(rho, 1e-12)
        # vectorised check of the conversion algebra on the full set
        xs, ys, zs = blochs.T
        m01 = 0.5 * (xs - 1j * ys)
        assert np.max(np.abs(2.0 * m01.real - xs)) < 1e-15
        assert np.max(np.abs(-2.0 * m01.imag - ys)) < 1e-15


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(UnphysicalStateError):
            DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(UnphysicalStateError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(UnphysicalStateError, match="non-finite"):
            DensityMatrix(np.full((2, 2), bad, dtype=complex))
        with pytest.raises(UnphysicalStateError, match="non-finite"):
            DensityMatrix(np.array([[1.0, complex(0.0, bad)], [complex(0.0, -bad), 0.0]]))

    def test_negative_eigenvalue_is_flagged_not_rejected(self):
        # Hermitian, unit trace, |r| > 1: must construct, must flag.
        rho = DensityMatrix(np.array([[-0.1, 0.0], [0.0, 1.1]], dtype=complex))
        assert rho.min_eigenvalue() == pytest.approx(-0.1, abs=1e-15)
        assert not rho.is_positive()

    def test_matrix_is_immutable(self):
        rho = DensityMatrix.ground()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPolarConversions:
    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(0.01, 1.0),
        theta=st.floats(0.01, math.pi - 0.01),
        phi=st.floats(0.0, 2.0 * math.pi - 1e-9),
    )
    def test_round_trip_away_from_poles(self, r, theta, phi):
        p = PolarBloch(r, theta, phi)
        q = p.to_bloch().to_polar()
        assert q.r == pytest.approx(r, abs=1e-12)
        assert q.theta == pytest.approx(theta, abs=1e-12)
        assert abs(math.remainder(q.phi - phi, 2.0 * math.pi)) < 1e-12

    def test_rejects_bad_radius(self):
        with pytest.raises(UnphysicalStateError):
            PolarBloch(1.5, 0.3, 0.0)

    def test_rejects_bad_theta(self):
        with pytest.raises(UnphysicalStateError):
            PolarBloch(0.5, 4.0, 0.0)


class TestInitialState:
    def test_z_zero_is_maximally_mixed(self):
        rho = initial_state(InitialStateSpec(0.0, 1.234, 0.77))
        assert np.allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-15)

    def test_pure_pole(self):
        rho = initial_state(InitialStateSpec(1.0, 0.0, 0.0))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bloch_image(self):
        spec = InitialStateSpec(0.5, math.pi / 4, math.pi / 3)
        polar = initial_state(spec).bloch().to_polar()
        assert polar.r == pytest.approx(0.5, abs=1e-12)
        assert polar.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert polar.phi == pytest.approx(math.pi / 3, abs=1e-12)

    def test_matches_bloch_construction(self):
        for z in (0.2, 0.7, 1.0):
            for vt in (0.3, 1.1, 2.0, 3.0):
                spec = InitialStateSpec(z, vt, 0.9)
                direct = initial_state(spec)
                via_bloch = density_from_bloch(spec.to_bloch())
                assert direct.isclose(via_bloch, 1e-12)

    @given(z=st.floats(0.0, 1.0), vt=st.floats(0.0, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_purity(self, z, vt):
        rho = initial_state(InitialStateSpec(z, vt, 0.4))
        assert rho.purity() == pytest.approx(0.5 * (1.0 + z * z), abs=1e-12)

    def test_rejects_bad_weight(self):
        with pytest.raises(UnphysicalStateError):
            InitialStateSpec(1.2, 0.0, 0.0)


class TestEigenbasis:
    def test_pole_state(self):
        r, eps_plus, eps_minus, *_ = eigenbasis(DensityMatrix.excited().bloch().as_array())
        assert (eps_plus, eps_minus) == (1.0, 0.0)
        require_nondegenerate(np.atleast_1d(r), np.zeros(1))

    def test_maximally_mixed_is_degenerate(self):
        r, eps_plus, *_ = eigenbasis(DensityMatrix.maximally_mixed().bloch().as_array())
        assert eps_plus == pytest.approx(0.5)
        with pytest.raises(DegenerateStateError, match="at t = 0"):
            require_nondegenerate(np.atleast_1d(r), np.zeros(1))

    def test_eigenvalues_against_characteristic_polynomial(self, rng):
        # independent oracle: roots of x^2 - x + det(rho) = 0
        bloch = random_bloch_array(rng, 300)
        r, eps_plus, eps_minus, *_ = eigenbasis(bloch)
        for k, b in enumerate(bloch):
            det = np.linalg.det(density_of(b).matrix).real
            disc = math.sqrt(max(1.0 - 4.0 * det, 0.0))
            assert eps_plus[k] == pytest.approx(0.5 * (1.0 + disc), abs=1e-12)
            assert eps_minus[k] == pytest.approx(0.5 * (1.0 - disc), abs=1e-12)
            assert eps_plus[k] + eps_minus[k] == pytest.approx(1.0, abs=1e-12)
            assert r[k] == pytest.approx(np.linalg.norm(b), abs=1e-12)
            assert eps_plus[k] == pytest.approx(0.5 * (1.0 + np.linalg.norm(b)), abs=1e-12)

    def test_spectral_reconstruction(self, rng):
        bloch = random_bloch_array(rng, 200)
        r, eps_plus, eps_minus, _, _, v_plus, v_minus = eigenbasis(bloch)
        for k in np.flatnonzero(r >= DEGENERACY_EPS):
            rho, vp, vm = density_of(bloch[k]).matrix, v_plus[k], v_minus[k]
            # rho psi = eps psi for both branches
            assert np.max(np.abs(rho @ vp - eps_plus[k] * vp)) < 1e-10
            assert np.max(np.abs(rho @ vm - eps_minus[k] * vm)) < 1e-10
            rebuilt = eps_plus[k] * np.outer(vp, vp.conj()) + eps_minus[k] * np.outer(
                vm, vm.conj()
            )
            assert np.max(np.abs(rebuilt - rho)) < 1e-10
            # orthonormality
            assert abs(np.vdot(vp, vm)) < 1e-12
            assert np.vdot(vp, vp).real == pytest.approx(1.0, abs=1e-12)

    def test_literal_requires_azimuth(self):
        bloch = initial_state(InitialStateSpec(0.8, 0.4, 0.2)).bloch().as_array()
        with pytest.raises(ConfigError):
            eigenbasis(bloch, mode="literal")

    def test_literal_vectors_use_swapped_layout(self):
        bloch = initial_state(InitialStateSpec(1.0, 0.3, 0.0)).bloch().as_array()
        *lit_values, lit_theta, _, lit_plus, lit_minus = eigenbasis(bloch, "literal", 0.0)
        *spe_values, spe_theta, _, spe_plus, spe_minus = eigenbasis(bloch, "spectral")
        assert lit_values == spe_values
        assert lit_theta == spe_theta
        # literal psi_plus = (sin, cos e^{i phi}); spectral = (cos, sin e^{i phi})
        assert lit_plus[0].real == pytest.approx(math.sin(0.5 * lit_theta))
        assert spe_plus[0].real == pytest.approx(math.cos(0.5 * spe_theta))
        # at a zero azimuth the literal vectors are the spectral ones with their
        # components swapped (and psi_minus's sign flipped)
        assert np.array_equal(lit_plus, spe_plus[::-1])
        assert np.array_equal(lit_minus, -spe_minus[::-1])

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            eigenbasis(DensityMatrix.ground().bloch().as_array(), mode="verbatim")


class TestRequireNondegenerate:
    """The one degeneracy rule of the phase routes."""

    def test_first_non_finite_sample_is_named(self):
        times = np.linspace(0.0, 1.0, 5)
        r = np.array([0.5, 0.0, np.inf, np.nan, 0.5])
        with pytest.raises(NumericalError, match="not finite at t = 0.5") as info:
            require_nondegenerate(r, times)
        assert not isinstance(info.value, DegenerateStateError)

    def test_smallest_radius_decides(self):
        times = np.linspace(0.0, 1.0, 5)
        require_nondegenerate(np.array([0.5, DEGENERACY_EPS, 0.2, 1.0, 0.3]), times)
        below = np.nextafter(DEGENERACY_EPS, 0.0)
        with pytest.raises(DegenerateStateError,
                           match=f"eigenbasis undefined: [|]r[|] = {below:.3e} at t = 0.75"):
            require_nondegenerate(np.array([0.5, 0.4, 0.2, below, 0.3]), times)


class TestTraceDistance:
    def test_identical_states(self):
        rho = initial_state(InitialStateSpec(0.4, 0.8, 0.1))
        assert trace_distance(rho, rho) == 0.0

    def test_antipodal(self):
        assert trace_distance(DensityMatrix.excited(), DensityMatrix.ground()) == pytest.approx(1.0)

    def test_paper_value_sqrt3_over_2(self):
        rho1 = initial_state(InitialStateSpec(1.0, math.pi / 6, 0.0))  # theta0 = pi/3
        assert trace_distance(rho1, DensityMatrix.ground()) == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-12
        )

    def test_equals_half_euclidean_bulk(self, rng):
        b1 = random_bloch_array(rng, 10_000)
        b2 = random_bloch_array(rng, 10_000)
        euclid = bloch_trace_distance(b1, b2)
        for k in range(0, 10_000, 37):  # eigenvalue route on a stride
            d = trace_distance(density_of(b1[k]), density_of(b2[k]))
            assert d == pytest.approx(euclid[k], abs=1e-12)

    def test_symmetry_and_range(self, rng):
        for _ in range(50):
            a, b = random_bloch_array(rng, 2)
            r1, r2 = density_of(a), density_of(b)
            d = trace_distance(r1, r2)
            assert d == trace_distance(r2, r1)
            assert 0.0 <= d <= 1.0

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = random_bloch_array(rng, 3)
            ra, rb, rc = density_of(a), density_of(b), density_of(c)
            assert trace_distance(ra, rc) <= (
                trace_distance(ra, rb) + trace_distance(rb, rc) + 1e-12
            )


def summed_trace_distance(r1, r2):
    """Reference: |r1 - r2| / 2 through ``np.sum`` over the Bloch axis."""
    d = np.subtract(r1, r2, dtype=float)
    d *= d
    return 0.5 * np.sqrt(np.sum(d, axis=-1))


def summed_eigenvalues(bloch):
    """Reference: (1 +- |r|) / 2 through ``np.sum`` over the Bloch axis."""
    b = np.asarray(bloch, dtype=float)
    r = np.sqrt(np.sum(b * b, axis=-1))
    return 0.5 * (1.0 + r), 0.5 * (1.0 - r)


def assert_bitwise(out, ref):
    assert type(out) is type(ref)
    assert np.shape(out) == np.shape(ref)
    assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()


BLOCH_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, max_side=6).map(lambda s: s + (3,))
COMPONENTS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


class TestSquaredNormOrder:
    """The Bloch-norm formulas sum x^2, y^2, z^2 in the order ``np.sum`` does."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=BLOCH_SHAPES)
    def test_trace_distance_matches_summed_form(self, data, shape):
        r1 = data.draw(hnp.arrays(float, shape, elements=COMPONENTS))
        r2 = data.draw(hnp.arrays(float, shape, elements=COMPONENTS))
        assert_bitwise(bloch_trace_distance(r1, r2), summed_trace_distance(r1, r2))
        assert_bitwise(bloch_trace_distance(r1, 0.0), summed_trace_distance(r1, 0.0))
        assert_bitwise(bloch_trace_distance(r1, r2[(0,) * (r2.ndim - 1)]),
                       summed_trace_distance(r1, r2[(0,) * (r2.ndim - 1)]))  # broadcast
        f1, f2 = np.asfortranarray(r1), np.asfortranarray(r2)
        assert_bitwise(bloch_trace_distance(f1, f2), summed_trace_distance(f1, f2))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=BLOCH_SHAPES)
    def test_eigenvalues_match_summed_form(self, data, shape):
        b = data.draw(hnp.arrays(float, shape, elements=COMPONENTS))
        for arr in (b, np.asfortranarray(b)):
            for out, ref in zip(eigenvalues(arr), summed_eigenvalues(arr)):
                assert_bitwise(out, ref)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=BLOCH_SHAPES)
    def test_bloch_dot_matches_summed_form(self, data, shape):
        a = data.draw(hnp.arrays(float, shape, elements=COMPONENTS))
        b = data.draw(hnp.arrays(float, shape, elements=COMPONENTS))
        for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b))):
            assert_bitwise(bloch_dot(x, y), np.sum(x * y, axis=-1))

    def test_non_contiguous_components(self, rng):
        wide = rng.normal(size=(40, 7, 6))
        b1, b2 = wide[..., ::2], wide[::-1, :, 1::2]  # strided Bloch axis, reversed rows
        assert not b1.flags.c_contiguous and not b2.flags.c_contiguous
        assert_bitwise(bloch_trace_distance(b1, b2), summed_trace_distance(b1, b2))
        assert_bitwise(bloch_dot(b1, b2), np.sum(b1 * b2, axis=-1))
        for out, ref in zip(eigenvalues(b1), summed_eigenvalues(b1)):
            assert_bitwise(out, ref)

    def test_single_vector_gives_a_scalar(self):
        a, b = np.array([0.3, -0.2, 0.5]), np.array([-0.1, 0.4, 0.2])
        d = bloch_trace_distance(a, b)
        assert isinstance(d, np.float64) and np.ndim(d) == 0
        assert_bitwise(d, summed_trace_distance(a, b))
        eps_plus, eps_minus = eigenvalues(a)
        assert np.ndim(eps_plus) == 0 and np.ndim(eps_minus) == 0
