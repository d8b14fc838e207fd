import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from u22lab.extension import act_k
from u22lab.groups import (
    CHAIN_TOL,
    _haar_u2,
    DecompositionFailed,
    InvariantViolation,
    KElement,
    NotFactorizable,
    NotInGroup,
    QElement,
    SkewHermitian2,
    TriangularS,
    U22Element,
    element_to_json,
    is_in_u22,
    iwasawa_decompose,
    n_conjugate,
    nested_q_commutator,
    p_part,
    q_inverse,
    q_multiply,
    random_k,
    random_n,
    random_p,
    random_q,
    random_s,
    random_u22,
    s_inverse,
    s_product,
    sigma_hat,
    structured_p_factor,
)
from u22lab.matrices import E4, SIGMA, adjoint, assemble, blocks, frob, matrix_from_json

EPS = np.finfo(float).eps


class TestMembership:
    def test_identity(self):
        report = is_in_u22(np.eye(4))
        assert report.ok
        assert report.max_residual() == 0.0

    def test_sigma_is_member(self):
        assert is_in_u22(SIGMA).ok

    def test_diagonal_non_member(self):
        report = is_in_u22(np.diag([2.0, 1.0, 1.0, 1.0]))
        assert not report.ok
        assert report.block_unit > 0.01

    def test_u22element_rejects(self):
        with pytest.raises(NotInGroup):
            U22Element(np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_one_product_matches_the_block_relations(self, rng):
        # the blocks of D = g S g* - S are the three block relations
        for _ in range(50):
            m = random_u22(rng).m + 1e-3 * rng.standard_normal((4, 4))
            g11, g12, g21, g22 = blocks(m)
            scale = max(1.0, frob(m) ** 2)
            report = is_in_u22(m)
            assert abs(report.sigma_relation - frob(m @ SIGMA @ adjoint(m) - SIGMA) / scale) <= 1e-15
            assert abs(report.block_unit - frob(g12 @ adjoint(g21) + g11 @ adjoint(g22) - np.eye(2)) / scale) <= 1e-15
            assert abs(report.block_upper - frob(g11 @ adjoint(g12) + g12 @ adjoint(g11)) / scale) <= 1e-15
            assert abs(report.block_lower - frob(g22 @ adjoint(g21) + g21 @ adjoint(g22)) / scale) <= 1e-15

    def test_stack_residuals_match_scalar(self, rng):
        stack = random_u22(rng, size=40).m.copy()
        stack[::3] += 1e-6 * rng.standard_normal((14, 4, 4))  # some non-members
        report = is_in_u22(stack)
        assert report.ok.shape == (40,)
        for i, m in enumerate(stack):
            single = is_in_u22(m)
            assert report.ok[i] == single.ok
            assert np.max(np.abs(np.subtract(report.at(i).residuals(), single.residuals()))) <= 1e-15

    def test_stack_with_one_perturbed_member_raises(self, rng):
        stack = random_u22(rng, size=20).m.copy()
        stack[7, 0, 0] += 1e-6
        with pytest.raises(NotInGroup) as info:
            U22Element(stack, tol=1e-12)
        expected = is_in_u22(stack[7], 1e-12)
        assert not expected.ok
        assert info.value.report.residuals() == pytest.approx(expected.residuals(), rel=1e-12)
        U22Element(np.delete(stack, 7, axis=0), tol=1e-12)  # the others pass

    def test_stack_products_and_inverses(self, rng):
        g = random_u22(rng, size=10)
        assert g.m.shape == (10, 4, 4)
        prod = g[0::2].multiply(g[1::2])
        assert frob(prod.m[2] - g.m[4] @ g.m[5]) == 0.0
        assert np.max(frob(g.multiply(g.inverse()).m - E4)) < 1e-13


def embed_s(s: TriangularS) -> np.ndarray:
    """The block matrix diag(s*^-1, s) of a pure triangular element."""
    return QElement(s, SkewHermitian2.zero()).matrix()


def embed_n(n: SkewHermitian2) -> np.ndarray:
    """The block matrix [[e, 0], [n, e]] of a pure translation."""
    return QElement(TriangularS.identity(), n).matrix()


class TestEmbeddings:
    def test_embed_zero_translation(self):
        assert frob(embed_n(SkewHermitian2.zero()) - E4) == 0.0

    def test_embed_diagonal(self):
        np.testing.assert_allclose(embed_s(TriangularS(2.0, 1.0, 0.0)), np.diag([0.5, 1.0, 2.0, 1.0]))

    def test_embed_p_block(self):
        x = np.array([[1j, 0.0], [0.0, 0.0]])
        g = QElement(TriangularS.identity(), SkewHermitian2(1.0, 0.0, 0.0)).matrix()
        np.testing.assert_allclose(g[2:, :2], x)
        assert is_in_u22(g, 1e-12).ok

    def test_embeds_pass_membership(self, rng):
        for _ in range(50):
            assert is_in_u22(embed_s(random_s(rng)), 1e-12).ok
            assert is_in_u22(embed_n(random_n(rng)), 1e-12).ok
            assert is_in_u22(random_q(rng).matrix(), 1e-12).ok

    def test_p_invariant_enforced(self):
        # a lower-left block X with s X* + X s* != 0 is not read as an element
        m = E4.copy()
        m[2, 0] = 1.0
        with pytest.raises(InvariantViolation, match="skew-Hermitian"):
            QElement.from_matrix(m)
        m[2, 0] = 1j  # X = [[i, 0], [0, 0]] passes
        assert QElement.from_matrix(m).n.distance(SkewHermitian2(1.0, 0.0, 0.0)) == 0.0


class TestCoordinateChange:
    # the block matrix [[s*^-1, 0], [X, s]] with X = n s*^-1, and back
    def test_trivial(self):
        q = QElement.from_matrix(E4)
        assert q.s.distance(TriangularS.identity()) == 0.0
        assert q.n.norm() == 0.0
        assert np.array_equal(QElement.identity().x, np.zeros((2, 2)))

    def test_identity_s_gives_n_equals_x(self):
        n = SkewHermitian2(1.0, 0.0, 0.0)
        np.testing.assert_allclose(QElement(TriangularS.identity(), n).x, n.matrix())

    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip(self, seed):
        q = random_q(np.random.default_rng(seed))
        back = QElement.from_matrix(q.matrix())
        assert q.distance(back) <= 1e-12 * max(1.0, q.s.norm() + frob(q.x))

    def test_roundtrip_of_a_stack(self, rng):
        q = random_q(rng, size=1000)
        back = QElement.from_matrix(q.matrix())
        scale = np.maximum(1.0, q.s.norm() + frob(q.x))
        assert back.s.r1.shape == (1000,)
        assert np.max(q.distance(back) / scale) <= 1e-12
        assert np.max(back.n.distance(q.n) / np.maximum(1.0, q.n.norm())) <= 1e-12

    def test_image_is_skew(self, rng):
        for _ in range(100):
            q = QElement.from_matrix(random_q(rng).matrix())
            n = q.n.matrix()
            assert np.array_equal(n + adjoint(n), np.zeros((2, 2)))

    def test_x_is_cached_and_read_only(self, rng):
        q = random_q(rng, size=3)
        assert q.x is q.x
        with pytest.raises(ValueError):
            q.x[0, 0, 0] = 1.0
        assert frob(q.s.matrix() @ adjoint(q.x) + q.x @ adjoint(q.s.matrix())).max() <= 1e-14 * frob(q.matrix()).max()

    def test_from_matrix_rejects_broken_blocks(self, rng):
        m = random_q(rng).matrix()
        for index in ((0, 2), (0, 0), (2, 3)):  # upper-right, upper-left, s above its diagonal
            bad = m.copy()
            bad[index] += 1e-3
            with pytest.raises(InvariantViolation):
                QElement.from_matrix(bad)


class TestComponentForms:
    def test_floats_and_length_one_arrays_agree(self, rng):
        # NumPy's array loops may fuse a multiply-add that Python's complex
        # arithmetic rounds twice, so agreement is to rounding, not bits
        for _ in range(20):
            s, t, n = random_s(rng), random_s(rng), random_n(rng)
            cases = [
                (s_product, (s.r1, s.r2, s.r, t.r1, t.r2, t.r)),
                (s_inverse, (s.r1, s.r2, s.r)),
                (n_conjugate, (n.a, n.b, n.z, s.r1, s.r2, s.r)),
            ]
            for form, args in cases:
                on_floats = form(*args)
                on_arrays = form(*(np.array([v]) for v in args))
                scale = max(1.0, *(abs(v) for v in args)) ** 3
                for x, y in zip(on_floats, on_arrays):
                    assert y.shape == (1,)
                    assert abs(x - y[0]) <= 1e-15 * scale

    def test_batched_elements_match_single_elements(self, rng):
        q1, q2 = random_q(rng, size=25), random_q(rng, size=25)
        direct = q_multiply(q1, q2)
        via = QElement.from_matrix(q1.matrix() @ q2.matrix())
        assert q1.x.shape == (25, 2, 2)
        for i in range(25):
            one1 = QElement(TriangularS(q1.s.r1[i], q1.s.r2[i], q1.s.r[i]),
                            SkewHermitian2(q1.n.a[i], q1.n.b[i], q1.n.z[i]))
            one2 = QElement(TriangularS(q2.s.r1[i], q2.s.r2[i], q2.s.r[i]),
                            SkewHermitian2(q2.n.a[i], q2.n.b[i], q2.n.z[i]))
            single = q_multiply(one1, one2)
            scale = max(1.0, single.s.norm() + single.n.norm())
            assert single.s.distance(TriangularS(direct.s.r1[i], direct.s.r2[i], direct.s.r[i])) <= 1e-15 * scale
            assert single.n.distance(SkewHermitian2(direct.n.a[i], direct.n.b[i], direct.n.z[i])) <= 1e-15 * scale
            assert frob(one1.x - q1.x[i]) <= 1e-15 * max(1.0, frob(q1.x[i]))
            assert via.s.distance(direct.s)[i] <= 1e-12 * max(1.0, direct.s.norm()[i])

    def test_batch_validation_reports_the_first_failing_member(self):
        with pytest.raises(InvariantViolation, match="got -2.0, 1.0"):
            TriangularS(np.array([1.0, -2.0, -3.0]), np.ones(3), np.zeros(3))
        with pytest.raises(InvariantViolation, match="got 1.0, nan"):
            TriangularS(np.ones(3), np.array([1.0, np.nan, -1.0]), np.zeros(3))
        assert TriangularS(np.ones(0), np.ones(0), np.zeros(0)).size == 0
        m = np.stack([E4] * 3)
        m[1, 2, 0] = 1.0  # s X* + X s* != 0 for s = e
        with pytest.raises(InvariantViolation, match="skew-Hermitian"):
            QElement.from_matrix(m)


class TestExtremeScale:
    # norms and distances go through hypot, and frob scales internally, so
    # fields far beyond sqrt(float max) neither overflow nor warn
    def test_element_beyond_1e154_constructs_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = QElement(TriangularS(1e-160, 1e160, 0.0), SkewHermitian2(1e100, 0.0, 0.0))
            m = p.matrix()
        assert p.s.r2 == 1e160
        assert m[3, 3] == 1e160 and m[1, 1] == 1e-160 and m[2, 0] == 1e100j * 1e160

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_norms_and_distances_match_the_scaled_closed_form(self, scale):
        n = SkewHermitian2(3.0 * scale, -4.0 * scale, (1.0 - 2.0j) * scale)  # |n| = sqrt(9+16+10)
        s = TriangularS(2.0 * scale, 3.0 * scale, (6.0 + 0.0j) * scale)  # |s - 0| = 7
        tiny = TriangularS(scale * 1e-20, scale * 1e-20, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [n.norm(), n.distance(SkewHermitian2.zero()), s.distance(tiny)]
        expected = [math.sqrt(35.0) * scale, math.sqrt(35.0) * scale, 7.0 * scale]
        for value, want in zip(values, expected):
            assert math.isfinite(value) and abs(value - want) <= 4 * EPS * want

    def test_batch_norms_and_distances_equal_their_members(self, rng):
        scale = np.array([1e-300, 1.0, 1e300])
        n = random_n(rng, 3)
        n = SkewHermitian2(scale * n.a, scale * n.b, scale * n.z)
        s, t = random_s(rng, 3), random_s(rng, 3)
        s = TriangularS(s.r1 * scale, s.r2 * scale, s.r * scale)
        norms, dists = n.norm(), s.distance(t)
        for i in range(3):
            assert norms[i] == SkewHermitian2(n.a[i], n.b[i], n.z[i]).norm()
            one_s = TriangularS(s.r1[i], s.r2[i], s.r[i])
            assert dists[i] == one_s.distance(TriangularS(t.r1[i], t.r2[i], t.r[i]))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_inverse_of_an_extreme_diagonal(self, scale):
        # r1 r2 under- or overflows; the corner -r/(r1 r2) must not
        s = TriangularS(scale, scale, 3.0 * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = s.inverse()
            batch = TriangularS(np.array([scale, 2.0]), np.array([scale, 0.5]), np.array([3.0 * scale, 1.0])).inverse()
        assert (inv.r1, inv.r2) == (1.0 / scale, 1.0 / scale)
        assert abs(inv.r - (-3.0 / scale)) <= 2 * EPS * (3.0 / scale)
        assert (batch.r1[0], batch.r2[0], batch.r[0]) == (inv.r1, inv.r2, inv.r)
        assert batch.r[1] == -1.0 / (2.0 * 0.5)  # a normal r1 r2 keeps the closed form

    def test_inverse_keeps_the_closed_form_where_r1_r2_is_normal(self, rng):
        s = random_s(rng, size=1000)
        inv = s.inverse()
        assert np.array_equal(inv.r, -s.r / (s.r1 * s.r2))
        one = TriangularS(s.r1[0], s.r2[0], s.r[0])
        assert one.inverse().r == -one.r / (one.r1 * one.r2)

    def test_stack_with_an_extreme_member_matches_its_members(self, rng):
        # diag(1e-200, 1e-200, 1e200, 1e200) is p with s = 1e200 e
        members = [np.diag([1e-200, 1e-200, 1e200, 1e200]).astype(complex), E4, random_u22(rng).m]
        stack = np.stack(members)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = is_in_u22(stack)
            p, k = iwasawa_decompose(U22Element(stack))
        assert report.ok.all()
        for i, m in enumerate(members):
            single = is_in_u22(m)
            assert np.max(np.abs(np.subtract(report.at(i).residuals(), single.residuals()))) <= 1e-15
            p_i, k_i = iwasawa_decompose(U22Element(m))
            assert frob(k.m[i] - k_i.m) <= 32 * EPS
            assert abs(p.s.r1[i] - p_i.s.r1) <= 32 * EPS * p_i.s.r1
            assert abs(p.s.r2[i] - p_i.s.r2) <= 32 * EPS * p_i.s.r2
            assert abs(p.s.r[i] - p_i.s.r) <= 32 * EPS * p_i.s.norm()
            assert frob(p.x[i] - p_i.x) <= 32 * EPS * max(1.0, frob(p_i.x))
        assert (p.s.r1[0], p.s.r2[0], p.s.r[0]) == (1e200, 1e200, 0.0)

    @pytest.mark.parametrize("build", [
        lambda m4, m2: SkewHermitian2.from_matrix(m2),
        lambda m4, m2: TriangularS.from_matrix(m2),
        lambda m4, m2: KElement(m4),
        lambda m4, m2: U22Element(m4),
        lambda m4, m2: QElement.from_matrix(m4),
    ], ids=["skew", "triangular", "k", "u22", "p-from-matrix"])
    def test_gates_reject_nan_beside_infinity(self, build):
        # frob must give NaN here, where hypot alone would give inf and an
        # inf <= tol * inf gate would pass
        m2 = np.array([[np.inf, np.nan], [0.0, 1j]])
        m4 = np.eye(4, dtype=complex)
        m4[0, 0], m4[0, 1] = np.inf, np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the residuals themselves overflow
            with pytest.raises((InvariantViolation, NotInGroup)):
                build(m4, m2)


class TestQMultiply:
    def test_translations_add(self, rng):
        n1, n2 = random_n(rng), random_n(rng)
        e = TriangularS.identity()
        out = q_multiply(QElement(e, n1), QElement(e, n2))
        assert out.n.distance(n1.add(n2)) == 0.0

    def test_conjugation_formula(self, rng):
        # (s, 0)(e, n) = (s, s n s*)
        s, n = random_s(rng), random_n(rng)
        out = q_multiply(
            QElement(s, SkewHermitian2.zero()), QElement(TriangularS.identity(), n)
        )
        expected = s.matrix() @ n.matrix() @ adjoint(s.matrix())
        np.testing.assert_allclose(out.n.matrix(), expected, atol=1e-13 * max(1, frob(expected)))

    def test_against_matrix_product(self, rng):
        for _ in range(200):
            q1, q2 = random_q(rng), random_q(rng)
            direct = q_multiply(q1, q2)
            via = QElement.from_matrix(q1.matrix() @ q2.matrix())
            scale = max(1.0, direct.s.norm() + direct.n.norm())
            assert via.s.distance(direct.s) + via.n.distance(direct.n) <= 1e-12 * scale

    def test_inverse(self, rng):
        for _ in range(100):
            q = random_q(rng)
            e = q_multiply(q, q_inverse(q))
            assert e.s.distance(TriangularS.identity()) < 1e-13
            assert e.n.norm() < 1e-12 * max(1.0, q.n.norm())

    def test_n_part_exactly_skew(self, rng):
        q = q_multiply(random_q(rng), random_q(rng))
        n = q.n.matrix()
        assert np.array_equal(n + adjoint(n), np.zeros((2, 2)))


class TestStructuredFactor:
    def test_identity(self):
        p = structured_p_factor(np.eye(4))
        assert p.distance(QElement.identity()) == 0.0

    def test_diagonal(self):
        p = structured_p_factor(np.diag([0.25, 1.0, 4.0, 1.0]))
        np.testing.assert_allclose(p.matrix(), np.diag([0.5, 1.0, 2.0, 1.0]))

    def test_forward_build(self):
        p_true = QElement(TriangularS.identity(), SkewHermitian2(1.0, 0.0, 0.0))
        m = p_true.matrix() @ adjoint(p_true.matrix())
        p = structured_p_factor(m)
        assert p.distance(p_true) < 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NotFactorizable):
            structured_p_factor(bad)

    def test_rejects_wrong_sigma_relation(self):
        with pytest.raises(NotFactorizable):
            structured_p_factor(np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotFactorizable):
            structured_p_factor(np.diag([-0.25, 1.0, -4.0, 1.0]))

    def test_random_reconstruction(self, rng):
        for _ in range(200):
            p_true = random_q(rng)
            m = p_true.matrix() @ adjoint(p_true.matrix())
            p = structured_p_factor(m)
            assert p.distance(p_true) <= 1e-10 * max(1.0, p_true.s.norm() + frob(p_true.x))


class TestIwasawa:
    def test_p_element_input(self, rng):
        p0 = random_q(rng)
        p, k = iwasawa_decompose(U22Element(p0.matrix()))
        assert p.distance(p0) < 1e-10 * max(1.0, p0.s.norm() + frob(p0.x))
        assert frob(k.m - E4) < 1e-10

    def test_sigma_input(self):
        p, k = iwasawa_decompose(U22Element(SIGMA))
        assert p.distance(QElement.identity()) < 1e-12
        np.testing.assert_allclose(k.m, SIGMA)
        np.testing.assert_allclose(k.m[:2, :2], np.zeros((2, 2)))
        np.testing.assert_allclose(k.m[:2, 2:], np.eye(2))

    def test_random_reconstruction(self, rng):
        for _ in range(200):
            g = random_u22(rng)
            p, k = iwasawa_decompose(g)
            assert frob(p.matrix() @ k.m - g.m) < 1e-10 * max(1.0, frob(g.m))

    def test_uniqueness_roundtrip(self, rng):
        for _ in range(200):
            p0, k0 = random_q(rng), random_k(rng)
            g = U22Element(p0.matrix() @ k0.m, tol=1e-9)
            p, k = iwasawa_decompose(g)
            assert p.distance(p0) <= 1e-10 * max(1.0, p0.s.norm() + frob(p0.x))
            assert frob(k.m - k0.m) <= 1e-10

    def test_compact_stack_validates_each_member(self, rng):
        ks = np.stack([random_k(rng).m for _ in range(3)])
        assert KElement(ks).m.shape == (3, 4, 4)
        ks[1, 0, 0] += 1e-6
        with pytest.raises(InvariantViolation):
            KElement(ks)


def ladder_element(seed, log10_cond: float) -> tuple[QElement, KElement]:
    """p0 and k0 with cond(s) = 10**log10_cond, a skew-Hermitian n with
    entries of unit size and X = n s*^-1."""
    rng = np.random.default_rng(seed)
    sv = 10.0 ** (log10_cond / 2.0)
    m = _haar_u2(rng) @ np.diag([sv, 1.0 / sv]) @ _haar_u2(rng)
    _, r = np.linalg.qr(m.conj().T)  # m = r* q*, and r* is lower triangular
    s = r.conj().T
    s = s * (np.abs(np.diag(s)) / np.diag(s))[None, :]  # a diagonal phase: same singular values
    a, b, zr, zi = rng.uniform(-1.0, 1.0, 4)
    p0 = QElement(TriangularS(s[0, 0].real, s[1, 1].real, s[1, 0]), SkewHermitian2(a, b, complex(zr, zi)))
    return p0, random_k(rng)


SEEDS = st.integers(0, 2**32 - 1)


class TestConditioningLadder:
    """g = p0 k0 with cond(s) from 10 to 1e6 (the tested range) and beyond."""

    @given(seed=SEEDS, log10_cond=st.floats(1.0, 6.0))
    def test_accurate_in_the_tested_range(self, seed, log10_cond):
        p0, k0 = ladder_element(seed, log10_cond)
        g = U22Element(p0.matrix() @ k0.m)
        p, k = iwasawa_decompose(g)
        # the residual grows like the unit roundoff u = eps / 2 times cond(s)
        # (at most 0.7 u cond(s) measured on 20,000 elements)
        assert frob(p.matrix() @ k.m - g.m) / frob(g.m) <= 0.5 * EPS * 10.0**log10_cond
        assert frob(k.m @ adjoint(k.m) - E4) <= 1e-14

    def test_every_member_decomposes_at_the_end_of_the_range(self):
        pairs = [ladder_element(seed, 6.0) for seed in range(500)]
        g = U22Element(np.stack([p0.matrix() @ k0.m for p0, k0 in pairs]))
        p, k = iwasawa_decompose(g)  # a stack raises its first failing member's error
        assert np.max(frob(p.matrix() @ k.m - g.m) / frob(g.m)) <= 0.5 * EPS * 1e6

    @pytest.mark.parametrize("c", [1e1, 1e2, 1e3, 1e4, 1e5, 1e6])
    def test_lower_triangular_family(self, c):
        # s = [[c, 0], [0.5, 1/c]], X = 0: cond(s) ~ c^2, yet the relative
        # residual grows like u c only (at most 0.66 u c measured, 5.6e-11 at
        # c = 1e6), and every member passes the gates
        s = np.array([[c, 0.0], [0.5, 1.0 / c]])
        p0 = assemble(adjoint(np.linalg.inv(s)), np.zeros((2, 2)), np.zeros((2, 2)), s)
        g = U22Element(np.stack([p0 @ random_k(seed).m for seed in range(50)]))
        p, k = iwasawa_decompose(g)
        assert np.max(frob(p.matrix() @ k.m - g.m) / frob(g.m)) <= 0.5 * EPS * c
        assert np.max(frob(k.m @ adjoint(k.m) - E4)) <= 1e-14

    @given(seed=SEEDS)
    def test_stack_matches_its_members(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [ladder_element(rng, c) for c in rng.uniform(1.0, 6.0, 6)]
        g = U22Element(np.stack([p0.matrix() @ k0.m for p0, k0 in pairs]))
        p, k = iwasawa_decompose(g)
        for i in range(len(pairs)):
            p_i, k_i = iwasawa_decompose(g[i])
            # stacked and single matrix products may round differently
            assert frob(k.m[i] - k_i.m) <= 32 * EPS
            assert abs(p.s.r1[i] - p_i.s.r1) <= 32 * EPS * p_i.s.r1
            assert abs(p.s.r2[i] - p_i.s.r2) <= 32 * EPS * p_i.s.r2
            assert abs(p.s.r[i] - p_i.s.r) <= 32 * EPS * p_i.s.norm()
            assert frob(p.x[i] - p_i.x) <= 32 * EPS * frob(p_i.x)

    @given(seed=SEEDS, log10_cond=st.floats(7.0, 16.0))
    def test_only_typed_failures_beyond_the_range(self, seed, log10_cond):
        p0, k0 = ladder_element(seed, log10_cond)
        g = U22Element(p0.matrix() @ k0.m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: iwasawa_decompose(g), lambda: sigma_hat(p0), lambda: act_k(k0, p0)):
                try:
                    call()
                except DecompositionFailed:
                    pass

    def test_rejections_are_decomposition_failures(self):
        p0, k0 = ladder_element(0, 10.0)
        with pytest.raises(DecompositionFailed):
            iwasawa_decompose(U22Element(p0.matrix() @ k0.m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecompositionFailed):
                p_part(np.zeros((4, 4)))


class TestSigmaHat:
    def test_identity(self):
        assert sigma_hat(QElement.identity()).distance(QElement.identity()) == 0.0

    def test_diagonal_case(self):
        p = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        p_hat = sigma_hat(p)
        assert p_hat.s.distance(TriangularS(0.5, 1.0, 0.0)) < 1e-14
        assert frob(p_hat.x) < 1e-14

    def test_defining_relation(self, rng):
        for _ in range(50):
            p = random_q(rng)
            p_hat = sigma_hat(p)
            lhs = p_hat.matrix() @ adjoint(p_hat.matrix())
            rhs = SIGMA @ p.matrix() @ adjoint(p.matrix()) @ SIGMA
            assert frob(lhs - rhs) < 1e-10 * max(1.0, frob(rhs))

    def test_involution(self, rng):
        for _ in range(100):
            p = random_q(rng)
            back = sigma_hat(sigma_hat(p))
            assert back.distance(p) <= 1e-10 * max(1.0, p.s.norm() + frob(p.x))


class TestGroupClosure:
    def test_products_and_inverses(self, rng):
        for _ in range(100):
            g1, g2 = random_u22(rng), random_u22(rng)
            assert is_in_u22(g1.multiply(g2).m, CHAIN_TOL).ok
            assert is_in_u22(g1.inverse().m, CHAIN_TOL).ok

    def test_inverse_formula(self, rng):
        g = random_u22(rng)
        prod = g.multiply(g.inverse())
        assert frob(prod.m - E4) < 1e-13


class TestSubgroupShapes:
    # an element of P = S N is read off its factor p = (s, x): N-shaped means
    # s = e, S-shaped means x = 0
    @staticmethod
    def shapes(m):
        p, k = iwasawa_decompose(U22Element(m))
        assert frob(k.m - E4) < 1e-12
        n_shaped = p.s.distance(TriangularS.identity()) <= 1e-12
        s_shaped = frob(p.x) <= 1e-12 * max(1.0, p.s.norm())
        return n_shaped, s_shaped

    def test_n_and_s_meet_only_at_identity(self, rng):
        assert self.shapes(E4) == (True, True)
        for _ in range(50):
            n = random_n(rng)
            if n.norm() > 1e-6:
                assert self.shapes(embed_n(n)) == (True, False)
            s = random_s(rng)
            if s.distance(TriangularS.identity()) > 1e-6:
                assert self.shapes(embed_s(s)) == (False, True)

    def test_shape_predicates(self, rng):
        n, s = random_n(rng), random_s(rng)
        p, _ = iwasawa_decompose(U22Element(embed_n(n)))
        assert p.s.distance(TriangularS.identity()) <= 1e-12
        assert frob(p.x - n.matrix()) <= 1e-12 * max(1.0, n.norm())
        p, _ = iwasawa_decompose(U22Element(embed_s(s)))
        assert p.s.distance(s) <= 1e-12 * max(1.0, s.norm())
        assert frob(p.x) <= 1e-12 * max(1.0, s.norm())


class TestDerivedSeries:
    def test_triangular_commutant_is_unipotent(self, rng):
        # commutators of diagonal-free elements have unit diagonal
        for _ in range(50):
            s1, s2 = random_s(rng), random_s(rng)
            comm = s1.multiply(s2).multiply(s1.inverse()).multiply(s2.inverse())
            assert abs(comm.r1 - 1.0) < 1e-12 and abs(comm.r2 - 1.0) < 1e-12

    def test_triangular_group_has_derived_length_two(self, rng):
        def comm(a, b):
            return a.multiply(b).multiply(a.inverse()).multiply(b.inverse())

        for _ in range(20):
            c1 = comm(random_s(rng), random_s(rng))
            c2 = comm(random_s(rng), random_s(rng))
            second = comm(c1, c2)
            assert second.distance(TriangularS.identity()) < 1e-12

    def test_triple_commutators_vanish(self, rng):
        worst = 0.0
        for _ in range(20):
            qs = [random_q(rng) for _ in range(8)]
            triple = nested_q_commutator(qs)
            worst = max(worst, frob(triple.matrix() - E4))
        assert worst < 1e-9

    def test_double_commutators_do_not(self, rng):
        best = 0.0
        for _ in range(20):
            qs = [random_q(rng) for _ in range(4)]
            double = nested_q_commutator(qs)
            best = max(best, frob(double.matrix() - E4))
        assert best > 1e-2

    def test_double_commutator_lands_in_translations(self, rng):
        # the second derived subgroup sits inside the additive part
        qs = [random_q(rng) for _ in range(4)]
        double = nested_q_commutator(qs)
        assert double.s.distance(TriangularS.identity()) < 1e-10


class TestSamplers:
    def test_deterministic_per_seed(self):
        assert random_s(5).distance(random_s(5)) == 0.0
        a, b = random_u22(9), random_u22(9)
        assert np.array_equal(a.m, b.m)

    def test_membership(self, rng):
        for _ in range(20):
            assert is_in_u22(random_u22(rng).m, 1e-10).ok
            random_k(rng)  # constructor validates

    def test_batched_u22_is_the_same_stream(self):
        # one (30, 16) coefficient draw is the stream of 30 single draws; the
        # elements agree to rounding (a norm at the rescaling radius may round
        # to the other side of a squaring-count boundary)
        rng_singles, rng_batch = np.random.default_rng(77), np.random.default_rng(77)
        singles = np.array([random_u22(rng_singles).m for _ in range(30)])
        batch = random_u22(rng_batch, size=30)
        assert rng_singles.standard_normal() == rng_batch.standard_normal()
        assert np.max(frob(batch.m - singles)) <= 1e-13

    def test_batched_samplers_have_array_fields(self, rng):
        q = random_q(rng, size=7)
        assert q.s.r1.shape == q.s.r.shape == q.n.a.shape == q.n.z.shape == (7,)
        assert q.x.shape == (7, 2, 2)
        assert np.array_equal(random_p(5, size=7).x, random_q(5, size=7).x)

    def test_log_uniform_statistics(self):
        rng = np.random.default_rng(123)
        values = [math.log(random_s(rng).r1) for _ in range(10_000)]
        assert abs(np.mean(values)) < 0.05

    def test_k_blocks(self, rng):
        k = random_k(rng)
        np.testing.assert_allclose(k.m[:2, :2], k.m[2:, 2:])
        np.testing.assert_allclose(k.m[:2, 2:], k.m[2:, :2])
        assert frob(k.m @ adjoint(k.m) - E4) < 1e-12


class TestJson:
    @pytest.mark.parametrize("maker", [random_q, random_k])
    def test_roundtrip(self, maker, rng):
        el = maker(rng)
        # read the document back by hand: the library only writes elements
        data = element_to_json(el)["data"]
        if isinstance(el, KElement):
            assert np.array_equal(matrix_from_json(data["m"]), el.m)
            return
        s = data["s"]
        assert (s["r1"], s["r2"], complex(*s["r"])) == (el.s.r1, el.s.r2, el.s.r)
        assert np.array_equal(matrix_from_json(data["x"]), el.x)

    def test_kind_tags(self, rng):
        assert element_to_json(random_q(rng))["kind"] == "p"
        assert element_to_json(random_k(rng))["kind"] == "k"
