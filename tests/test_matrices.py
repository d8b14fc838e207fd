import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from u22lab.groups import SkewHermitian2
from u22lab.matrices import (
    SIGMA,
    adjoint,
    frob,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
)
from u22lab.orbits import DegenerateOrbit, OrbitLabel, classify_orbit, orbit_coordinates


# The signed triangular factor of a nondegenerate Hermitian form h, the s
# with s diag(e1, e2) s* = h, is the orbit chart of the point m = i h, so
# the three classes below test it through ``orbits``.


def point(h):
    return SkewHermitian2.from_matrix(1j * np.asarray(h, dtype=complex))


def chart(h):
    return orbit_coordinates(point(h)).matrix()


def cholesky_lower(h):
    """The Cholesky factor L L* = h is the chart of a point on the ++ orbit."""
    assert classify_orbit(point(h)) is OrbitLabel.PLUS_PLUS
    return chart(h)


def random_hermitian_pd(rng, delta=0.1):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return a @ adjoint(a) + delta * np.eye(2)


class TestCholeskyLower:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_lower(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        L = cholesky_lower(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(L, np.diag([2.0, 3.0]))

    def test_frozen_example(self):
        # L computed from the closed form and checked by reconstruction
        h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        L = cholesky_lower(h)
        expected = np.array(
            [
                [1.4142135623730951, 0.0],
                [0.7071067811865476 + 0.7071067811865476j, 1.4142135623730951],
            ]
        )
        np.testing.assert_allclose(L, expected, atol=1e-15)
        np.testing.assert_allclose(L @ adjoint(L), h, atol=1e-14)

    def test_positive_diagonal_and_triangular(self, rng):
        for _ in range(100):
            L = cholesky_lower(random_hermitian_pd(rng))
            assert L[0, 1] == 0
            assert L[0, 0].real > 0 and L[1, 1].real > 0

    def test_reconstruction_batch(self, rng):
        # invariant: 1000 random positive-definite inputs reconstruct to 1e-10
        worst = 0.0
        for _ in range(1000):
            h = random_hermitian_pd(rng)
            L = cholesky_lower(h)
            worst = max(worst, frob(L @ adjoint(L) - h) / frob(h))
        assert worst < 1e-10

    def test_deterministic(self, rng):
        h = random_hermitian_pd(rng)
        a = cholesky_lower(h)
        b = cholesky_lower(h.copy())
        assert np.array_equal(a, b)

    def test_rejects_indefinite(self):
        # an indefinite or negative form lies on another orbit
        assert classify_orbit(point(np.diag([1.0, -1.0]))) is OrbitLabel.PLUS_MINUS
        assert classify_orbit(point(np.diag([-1.0, 2.0]))) is OrbitLabel.MINUS_PLUS

    def test_rejects_near_singular(self):
        with pytest.raises(DegenerateOrbit):
            chart(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_non_hermitian(self):
        # i h is not skew-Hermitian, so it is not a point of the dual
        with pytest.raises(ValueError):
            point(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSignedTriangularFactor:
    def test_representative_point(self):
        s = chart(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(s, np.eye(2))

    def test_diagonal_case(self):
        s = chart(np.diag([4.0, -1.0]))
        np.testing.assert_allclose(s, np.diag([2.0, 1.0]))

    def test_wrong_orbit(self):
        # the definite form is on the ++ orbit, not on the +- orbit of diag(1, -1)
        assert classify_orbit(point(np.diag([1.0, 1.0]))) is OrbitLabel.PLUS_PLUS

    @pytest.mark.parametrize("label", list(OrbitLabel), ids=str)
    def test_roundtrip_random(self, label, rng):
        for _ in range(250):
            r1, r2 = np.exp(rng.uniform(-2, 2, size=2))
            s_true = np.array(
                [[r1, 0], [rng.standard_normal() + 1j * rng.standard_normal(), r2]]
            )
            h = s_true @ np.diag([label.eps1, label.eps2]) @ adjoint(s_true)
            assert classify_orbit(point(h)) is label
            s = chart(h)
            assert frob(s - s_true) / max(1.0, frob(s_true)) < 1e-10


class TestHermitianSignature:
    # the sign pair of the form is the orbit label
    def test_exactly_four_values(self):
        assert len(OrbitLabel) == 4
        assert {label.value for label in OrbitLabel} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_rejects_other_entries(self):
        with pytest.raises(ValueError):
            OrbitLabel((0, 1))
        for text in ("+0", "+", "+-+", "", "--\n"):
            with pytest.raises(ValueError):
                OrbitLabel.parse(text)

    def test_string_roundtrip(self):
        assert [str(label) for label in OrbitLabel] == ["++", "+-", "-+", "--"]
        for label in OrbitLabel:
            assert OrbitLabel.parse(str(label)) is label


class TestMatrixBasics:
    @given(st.integers(0, 2**32 - 1))
    def test_adjoint_involution(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(adjoint(adjoint(a)), a)

    @given(st.integers(0, 2**32 - 1))
    def test_multiplication_associates(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        assert frob((a @ b) @ c - a @ (b @ c)) < 1e-12 * frob(a) * frob(b) * frob(c)

    def test_sigma_is_involution(self):
        np.testing.assert_allclose(SIGMA @ SIGMA, np.eye(4))


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((4, 4))), np.eye(4))

    def test_against_scipy(self, rng):
        from scipy.linalg import expm

        for _ in range(50):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m *= 2.0 / frob(m)
            assert frob(matrix_exp(m) - expm(m)) < 1e-13

    def test_inverse_of_negative(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m *= 1.5 / frob(m)
        prod = matrix_exp(m) @ matrix_exp(-m)
        assert frob(prod - np.eye(4)) < 1e-14

    def test_stack_matches_each_slice(self, rng):
        # norms from 0.1 to 12 need 0 to 6 squarings: one stack mixes them
        norms = [0.1, 0.2, 0.4, 1.0, 2.0, 3.3, 6.0, 12.0]
        m = rng.standard_normal((len(norms), 4, 4)) + 1j * rng.standard_normal((len(norms), 4, 4))
        m *= (np.array(norms) / frob(m))[:, None, None]
        stacked = matrix_exp(m)
        assert stacked.shape == m.shape
        for member, single in zip(stacked, m):
            expected = matrix_exp(single)
            assert expected.shape == (4, 4)
            assert frob(member - expected) <= 1e-14 * frob(expected)

    def test_stack_keeps_leading_axes(self, rng):
        m = 0.5 * (rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4)))
        out = matrix_exp(m)
        assert out.shape == (2, 3, 4, 4)
        assert frob(out[1, 2] - matrix_exp(m[1, 2])) <= 1e-14 * frob(out[1, 2])


class TestMatrixJson:
    def test_identity_encoding(self):
        assert matrix_to_json(np.eye(2)) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    def test_roundtrip(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = matrix_from_json(matrix_to_json(m), (4, 4))
        assert np.array_equal(back, m)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_from_json([[[1, 0]]], (2, 2))

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1, 2], [3, 4]], (2, 2))


class TestFrob:
    @pytest.mark.parametrize("n", [2, 4])
    def test_within_two_ulp_of_numpy(self, n, rng):
        for _ in range(200):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ref = np.linalg.norm(m)
            assert abs(frob(m) - ref) <= 2 * np.spacing(ref)

    def test_scale_safe_for_one_matrix(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for scale in (1e-300, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = frob(scale * m)
            assert abs(value - scale * np.linalg.norm(m)) <= 4 * np.finfo(float).eps * value

    def test_stack_matches_members(self, rng):
        m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        norms = frob(m)
        assert norms.shape == (3,)
        for i in range(3):
            assert abs(norms[i] - frob(m[i])) <= 2 * np.spacing(norms[i])

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_stack_is_scale_safe(self, scale, rng):
        # each member is scaled by its own power of two, so a stack gives
        # what its members give one at a time, with no warning
        m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack = np.stack([scale * m[0], m[1], scale * m[2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = frob(stack)
        for i in range(3):
            assert math.isfinite(norms[i]) and norms[i] > 0.0
            assert abs(norms[i] - frob(stack[i])) <= 4 * np.spacing(norms[i])
        assert norms[1] == np.linalg.norm(m[1])  # a normal-range member keeps its bits

    def test_stack_keeps_normal_range_bits(self, rng):
        m = rng.standard_normal((500, 4, 4)) + 1j * rng.standard_normal((500, 4, 4))
        m *= np.exp(rng.uniform(-300.0, 300.0, (500, 1, 1)))  # peaks from e^-300 to e^300
        assert np.array_equal(frob(m), np.linalg.norm(m, axis=(-2, -1)))

    @pytest.mark.parametrize("entries", [[np.nan, 1.0], [np.nan, np.inf], [np.inf, np.nan], [np.inf, 1.0]],
                             ids=["nan", "nan-then-inf", "inf-then-nan", "inf"])
    def test_stack_keeps_the_nan_rule(self, entries):
        m = np.zeros((2, 2, 2), dtype=complex)
        m[1, 0, 0], m[1, 1, 1] = entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = frob(m)
        assert norms[0] == 0.0
        assert (np.isnan(norms[1]) and np.isnan(frob(m[1]))) or norms[1] == frob(m[1]) == np.inf

    @pytest.mark.parametrize("entries", [[np.nan, 1.0], [np.nan, np.inf], [np.inf, np.nan]],
                             ids=["nan", "nan-then-inf", "inf-then-nan"])
    def test_nan_entry_gives_nan(self, entries):
        # math.hypot alone returns inf when an infinite entry sits beside a NaN
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0], m[1, 1] = entries
        assert np.isnan(frob(m))
