import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from u22lab.groups import QElement, SkewHermitian2, TriangularS, random_n, random_s
from u22lab.matrices import U22Error, adjoint, frob
from u22lab.orbits import (
    DegenerateOrbit,
    OrbitLabel,
    _orbit_chart,
    character_phase,
    classify_orbit,
    orbit_coordinates,
)
from u22lab.representation import GroupFunction, apply_T

ONE = GroupFunction(lambda pts: np.ones(np.shape(pts.r)))


def base_point(label: OrbitLabel) -> SkewHermitian2:
    """The orbit's base point i diag(e1, e2)."""
    return SkewHermitian2(float(label.eps1), float(label.eps2), 0.0)


def character_multiplier(label: OrbitLabel, s: TriangularS, n: SkewHermitian2) -> complex:
    """exp(i tr(m_k s n s*)) at one chart point, through the library's
    multiplier: T of the pure character (e, n) applied to the constant 1."""
    return complex(apply_T(QElement(TriangularS.identity(), n), label, ONE)(s))


def pairing(label: OrbitLabel, n: SkewHermitian2) -> float:
    """tr(m_k n): the character phase at the identity chart point."""
    return character_phase(label, n, 1.0, 1.0, 0.0)


class TestPairing:
    # the real pairing tr(m n) enters the library as the phase of the
    # character at s = e, with m the orbit representative m_k
    def test_representative_against_itself(self):
        m = base_point(OrbitLabel.PLUS_PLUS)  # i * identity
        assert pairing(OrbitLabel.PLUS_PLUS, m) == -2.0

    def test_zero(self, rng):
        for label in OrbitLabel:
            s = random_s(rng)
            assert character_phase(label, SkewHermitian2.zero(), s.r1, s.r2, s.r) == 0.0

    def test_matches_trace(self, rng):
        for label in OrbitLabel:
            for _ in range(100):
                n = random_n(rng)
                tr = np.trace(base_point(label).matrix() @ n.matrix())
                assert abs(tr.imag) < 1e-13
                assert abs(pairing(label, n) - tr.real) < 1e-13

    def test_symmetric(self):
        for k in OrbitLabel:
            for j in OrbitLabel:
                assert pairing(k, base_point(j)) == pairing(j, base_point(k))

    @given(st.integers(0, 2**32 - 1))
    def test_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = random_n(rng), random_n(rng)
        for label in OrbitLabel:
            lhs = pairing(label, n1.add(n2))
            rhs = pairing(label, n1) + pairing(label, n2)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestCharacterMultiplier:
    def test_zero_translation(self, rng):
        assert character_multiplier(OrbitLabel.PLUS_PLUS, random_s(rng), SkewHermitian2.zero()) == 1.0

    def test_identity_chart_point(self, rng):
        n = random_n(rng)
        value = character_multiplier(OrbitLabel.PLUS_PLUS, TriangularS.identity(), n)
        assert abs(value - cmath.exp(-1j * (n.a + n.b))) < 1e-14

    def test_unit_modulus(self, rng):
        for label in OrbitLabel:
            for _ in range(50):
                value = character_multiplier(label, random_s(rng), random_n(rng))
                assert abs(abs(value) - 1.0) < 1e-13

    def test_additive_in_translation(self, rng):
        s, n1, n2 = random_s(rng), random_n(rng), random_n(rng)
        for label in OrbitLabel:
            lhs = character_multiplier(label, s, n1.add(n2))
            rhs = character_multiplier(label, s, n1) * character_multiplier(label, s, n2)
            assert abs(lhs - rhs) < 1e-12

    def test_conjugation_identity(self, rng):
        # value(s s0, n) = value(s, s0 n s0*); the algebraic heart of the action
        for _ in range(100):
            s, s0, n = random_s(rng), random_s(rng), random_n(rng)
            lhs = character_multiplier(OrbitLabel.PLUS_PLUS, s.multiply(s0), n)
            rhs = character_multiplier(OrbitLabel.PLUS_PLUS, s, n.conjugate_by(s0))
            scale = max(1.0, abs(character_phase(OrbitLabel.PLUS_PLUS, n, s.r1, s.r2, s.r)))
            assert abs(lhs - rhs) < 1e-12 * scale

    def test_phase_matches_matrix_trace(self, rng):
        for label in OrbitLabel:
            s, n = random_s(rng), random_n(rng)
            conj = s.matrix() @ n.matrix() @ adjoint(s.matrix())
            tr = np.trace(base_point(label).matrix() @ conj)
            phase = character_phase(label, n, s.r1, s.r2, s.r)
            assert abs(phase - tr.real) < 1e-11 * max(1.0, abs(phase))


class TestClassify:
    def test_representatives(self):
        for label in OrbitLabel:
            assert classify_orbit(base_point(label)) is label

    def test_indefinite_example(self):
        # Hermitian form [[1, 2], [2, 1]] has negative determinant
        m = SkewHermitian2(1.0, 1.0, 2.0j)
        assert classify_orbit(m) is OrbitLabel.PLUS_MINUS

    def test_degenerate_cases(self):
        assert classify_orbit(SkewHermitian2.zero()) is None
        assert classify_orbit(SkewHermitian2(0.0, 1.0, 0.0)) is None  # H11 = 0
        assert classify_orbit(SkewHermitian2(1.0, 1.0, 1.0)) is None  # det = 0

    def test_label_invariant_under_action(self, rng):
        for _ in range(500):
            m = random_n(rng)
            label = classify_orbit(m)
            if label is None:
                continue
            for _ in range(5):
                assert classify_orbit(m.conjugate_by(random_s(rng))) is label

    def test_character_point_wrapper(self):
        # a character point is nondegenerate exactly when it has an orbit
        # label, and then exactly when it has chart coordinates
        m = SkewHermitian2(1.0, 1.0, 0.0)
        assert classify_orbit(m) is not None
        assert orbit_coordinates(m).distance(TriangularS.identity()) == 0.0
        assert classify_orbit(SkewHermitian2.zero()) is None
        with pytest.raises(DegenerateOrbit):
            orbit_coordinates(SkewHermitian2.zero())


class TestOrbitCoordinates:
    def test_representative_maps_to_identity(self):
        for label in OrbitLabel:
            s = orbit_coordinates(base_point(label))
            assert s.distance(TriangularS.identity()) == 0.0

    def test_diagonal_example(self):
        s = orbit_coordinates(SkewHermitian2(4.0, 1.0, 0.0))  # i diag(4, 1)
        assert s.distance(TriangularS(2.0, 1.0, 0.0)) == 0.0

    def test_reconstruction(self, rng):
        for _ in range(300):
            m = random_n(rng)
            if classify_orbit(m) is None:
                continue
            s = orbit_coordinates(m)
            label = classify_orbit(m)
            rebuilt = base_point(label).conjugate_by(s)
            assert rebuilt.distance(m) <= 1e-11 * max(1.0, m.norm())

    def test_equivariance_is_left_translation(self, rng):
        for _ in range(200):
            m = random_n(rng)
            if classify_orbit(m) is None:
                continue
            s0 = random_s(rng)
            lhs = orbit_coordinates(m.conjugate_by(s0))
            rhs = s0.multiply(orbit_coordinates(m))
            assert lhs.distance(rhs) <= 1e-10 * max(1.0, rhs.norm())

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateOrbit):
            orbit_coordinates(SkewHermitian2(1.0, 1.0, 1.0))


class TestExtremeScale:
    # the chart of 4^j m is 2^j times the chart of m, exactly
    @pytest.mark.parametrize("j", [-100, 100])
    def test_power_of_four_scales_chart_exactly(self, j, rng):
        for _ in range(200):
            m = random_n(rng)
            label = classify_orbit(m)
            if label is None:
                continue
            scaled = SkewHermitian2(math.ldexp(m.a, 2 * j), math.ldexp(m.b, 2 * j),
                                    complex(math.ldexp(m.z.real, 2 * j), math.ldexp(m.z.imag, 2 * j)))
            assert classify_orbit(scaled) is label
            s, t = orbit_coordinates(m), orbit_coordinates(scaled)
            assert (t.r1, t.r2) == (math.ldexp(s.r1, j), math.ldexp(s.r2, j))
            assert t.r == complex(math.ldexp(s.r.real, j), math.ldexp(s.r.imag, j))

    @pytest.mark.parametrize("a, b, label", [(1e300, -1e300, OrbitLabel.PLUS_MINUS),
                                             (-1e-300, -1e-300, OrbitLabel.MINUS_MINUS),
                                             (5e-324, 5e-324, OrbitLabel.PLUS_PLUS)])
    def test_far_from_unit_scale(self, a, b, label):
        m = SkewHermitian2(a, b, 0.0)
        assert classify_orbit(m) is label
        s = orbit_coordinates(m)
        assert (s.r1, s.r2, s.r) == (math.sqrt(abs(a)), math.sqrt(abs(b)), 0.0)

    @pytest.mark.parametrize("m", [SkewHermitian2(math.nan, 1.0, 0j), SkewHermitian2(1.0, math.inf, 0j),
                                   SkewHermitian2(1.0, 1.0, complex(0.0, -math.inf))],
                             ids=["nan", "inf", "z-inf"])
    def test_non_finite_point_raises(self, m):
        with pytest.raises(ValueError):
            classify_orbit(m)
        with pytest.raises(ValueError):
            orbit_coordinates(m)


def _bits(*fields) -> bytes:
    """The exact bits of float and complex fields, signed zeros included."""
    return b"".join(np.asarray(f, dtype=complex).tobytes() for f in fields)


class TestOnePath:
    # one stack of mixed points gives, member for member, the label and the
    # chart bits of the point alone: unit scale, scaled by 4^+-100, far from
    # unit scale, and the three degenerate kinds (origin, H11 = 0, det = 0)
    DEGENERATE = [(0.0, 0.0, 0j), (0.0, 1.0, 0j), (1.0, 1.0, 1 + 0j)]

    def points(self, rng):
        n = random_n(rng, size=40)
        unit = list(zip(n.a.tolist(), n.b.tolist(), n.z.tolist()))
        scaled = [(math.ldexp(a, 2 * j), math.ldexp(b, 2 * j), complex(math.ldexp(z.real, 2 * j), math.ldexp(z.imag, 2 * j)))
                  for j in (-100, 100) for a, b, z in unit[:10]]
        far = [(1e300, -1e300, 0j), (-1e-300, -1e-300, 0j), (5e-324, 5e-324, 0j)]
        return unit + scaled + far + self.DEGENERATE

    def test_stack_matches_each_point_alone(self, rng):
        points = self.points(rng)
        stack = SkewHermitian2(*(np.array(f) for f in zip(*points)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e1, e2 = _orbit_chart(stack)[:2]
            labels = [classify_orbit(SkewHermitian2(*p)) for p in points]
            assert [label and label.value for label in labels] == [
                (e1[i], e2[i]) if e1[i] else None for i in range(len(points))]
            assert labels[-3:] == [None] * 3 and None not in labels[:-3]
            open_points = points[:-3]
            s = orbit_coordinates(SkewHermitian2(*(np.array(f) for f in zip(*open_points))))
            for i, p in enumerate(open_points):
                alone = orbit_coordinates(SkewHermitian2(*p))
                assert _bits(s.r1[i], s.r2[i], s.r[i]) == _bits(alone.r1, alone.r2, alone.r)
            with pytest.raises(DegenerateOrbit):
                orbit_coordinates(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_member_raises(self, rng, bad):
        points = self.points(rng)
        points[7] = (points[7][0], points[7][1], complex(bad, 0.0))
        stack = SkewHermitian2(*(np.array(f) for f in zip(*points)))
        with pytest.raises(U22Error):
            _orbit_chart(stack)
        with pytest.raises(U22Error):
            orbit_coordinates(stack)


def oracle_chart(m: SkewHermitian2):
    """Reference label and chart: the degeneracy gate on the unscaled point,
    then the signed Cholesky factor of the matrix H = -i m."""
    scale = m.norm()
    det = m.a * m.b - abs(m.z) ** 2
    if scale == 0.0 or abs(m.a) < 1e-10 * scale or abs(det) < 1e-10 * scale * scale:
        return None, None
    e1 = 1 if m.a > 0 else -1
    e2 = e1 * (1 if det > 0 else -1)
    h = -1j * m.matrix()
    r1 = math.sqrt(e1 * h[0, 0].real)
    r = e1 * h[1, 0] / r1
    r2 = math.sqrt(e2 * (h[1, 1].real - e1 * abs(r) ** 2))
    return OrbitLabel((e1, e2)), np.array([[r1, 0.0], [r, r2]], dtype=complex)


class TestOracle:
    def test_matches_matrix_factor(self, rng):
        # 20,000 points, half moved by a random triangular element, labelled
        # and charted as one stack against the per-point matrix factor
        count = 10_000
        n = random_n(rng, size=2 * count)
        moved = SkewHermitian2(n.a[:count], n.b[:count], n.z[:count]).conjugate_by(random_s(rng, size=count))
        m = SkewHermitian2(np.concatenate([moved.a, n.a[count:]]), np.concatenate([moved.b, n.b[count:]]),
                           np.concatenate([moved.z, n.z[count:]]))
        expected = [oracle_chart(SkewHermitian2(a, b, z)) for a, b, z in zip(m.a.tolist(), m.b.tolist(), m.z.tolist())]
        e1, e2 = _orbit_chart(m)[:2]
        assert [(e1[i], e2[i]) if e1[i] else None for i in range(e1.size)] == [
            label and label.value for label, _ in expected]
        charted = e1 != 0
        s = orbit_coordinates(SkewHermitian2(m.a[charted], m.b[charted], m.z[charted])).matrix()
        reference = np.array([chart for _, chart in expected if chart is not None])
        eps = np.finfo(float).eps
        assert np.all(frob(s - reference) <= 4 * eps * frob(reference))
        assert np.count_nonzero(charted) > 0.9 * 2 * count


class TestOrbitLabelType:
    def test_bijection_with_signatures(self):
        seen = {label.value for label in OrbitLabel}
        assert len(seen) == 4

    def test_index_roundtrip(self):
        for label in OrbitLabel:
            assert OrbitLabel.parse(str(label.index)) is label

    def test_string_roundtrip(self):
        for label in OrbitLabel:
            assert OrbitLabel.parse(str(label)) is label

    def test_bad_index(self):
        with pytest.raises(ValueError):
            OrbitLabel.parse("5")
