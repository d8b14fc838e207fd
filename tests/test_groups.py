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
    PElement,
    QElement,
    SkewHermitian2,
    TriangularS,
    U22Element,
    element_from_json,
    element_to_json,
    embed_n,
    embed_p,
    embed_s,
    is_in_u22,
    is_n_shaped,
    is_s_shaped,
    iwasawa_decompose,
    n_conjugate,
    nested_q_commutator,
    p_from_matrix,
    p_part,
    p_to_q,
    q_inverse,
    q_multiply,
    q_to_p,
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
from u22lab.matrices import E2, E4, SIGMA, adjoint, assemble, blocks, frob

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
            assert abs(report.block_unit - frob(g12 @ adjoint(g21) + g11 @ adjoint(g22) - E2) / scale) <= 1e-15
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


class TestEmbeddings:
    def test_embed_zero_translation(self):
        assert frob(embed_n(SkewHermitian2.zero()).m - E4) == 0.0

    def test_embed_diagonal(self):
        g = embed_s(TriangularS(2.0, 1.0, 0.0))
        np.testing.assert_allclose(g.m, np.diag([0.5, 1.0, 2.0, 1.0]))

    def test_embed_p_block(self):
        x = np.array([[1j, 0.0], [0.0, 0.0]])
        g = embed_p(PElement(TriangularS.identity(), x))
        np.testing.assert_allclose(g.m[2:, :2], x)
        assert is_in_u22(g.m, 1e-12).ok

    def test_embeds_pass_membership(self, rng):
        for _ in range(50):
            assert is_in_u22(embed_s(random_s(rng)).m, 1e-12).ok
            assert is_in_u22(embed_n(random_n(rng)).m, 1e-12).ok
            assert is_in_u22(embed_p(random_p(rng)).m, 1e-12).ok

    def test_p_invariant_enforced(self):
        # sX* + Xs* != 0 for this pair
        with pytest.raises(InvariantViolation):
            PElement(TriangularS.identity(), np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestCoordinateChange:
    def test_trivial(self):
        q = p_to_q(PElement.identity())
        assert q.s.distance(TriangularS.identity()) == 0.0
        assert q.n.norm() == 0.0

    def test_identity_s_gives_n_equals_x(self):
        x = np.array([[1j, 0.0], [0.0, 0.0]])
        q = p_to_q(PElement(TriangularS.identity(), x))
        np.testing.assert_allclose(q.n.matrix(), x)

    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip(self, seed):
        p = random_p(np.random.default_rng(seed))
        back = q_to_p(p_to_q(p))
        assert p.distance(back) <= 1e-12 * max(1.0, p.s.norm() + frob(p.x))

    def test_image_is_skew(self, rng):
        for _ in range(100):
            q = p_to_q(random_p(rng))
            n = q.n.matrix()
            assert np.array_equal(n + adjoint(n), np.zeros((2, 2)))


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
        p1 = q_to_p(q1)
        via = p_to_q(p_from_matrix(p1.matrix() @ q_to_p(q2).matrix()))
        assert p1.x.shape == (25, 2, 2)
        for i in range(25):
            one1 = QElement(TriangularS(q1.s.r1[i], q1.s.r2[i], q1.s.r[i]),
                            SkewHermitian2(q1.n.a[i], q1.n.b[i], q1.n.z[i]))
            one2 = QElement(TriangularS(q2.s.r1[i], q2.s.r2[i], q2.s.r[i]),
                            SkewHermitian2(q2.n.a[i], q2.n.b[i], q2.n.z[i]))
            single = q_multiply(one1, one2)
            scale = max(1.0, single.s.norm() + single.n.norm())
            assert single.s.distance(TriangularS(direct.s.r1[i], direct.s.r2[i], direct.s.r[i])) <= 1e-15 * scale
            assert single.n.distance(SkewHermitian2(direct.n.a[i], direct.n.b[i], direct.n.z[i])) <= 1e-15 * scale
            assert frob(q_to_p(one1).x - p1.x[i]) <= 1e-15 * max(1.0, frob(p1.x[i]))
            assert via.s.distance(direct.s)[i] <= 1e-12 * max(1.0, direct.s.norm()[i])

    def test_batch_validation_reports_the_first_failing_member(self):
        with pytest.raises(InvariantViolation, match="got -2.0, 1.0"):
            TriangularS(np.array([1.0, -2.0, -3.0]), np.ones(3), np.zeros(3))
        x = np.zeros((3, 2, 2), dtype=complex)
        x[1] = [[1.0, 0.0], [0.0, 0.0]]  # s X* + X s* != 0 for s = e
        with pytest.raises(InvariantViolation):
            PElement(TriangularS(np.ones(3), np.ones(3), np.zeros(3)), x)


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
            via = p_to_q(p_from_matrix(q_to_p(q1).matrix() @ q_to_p(q2).matrix()))
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
        assert p.distance(PElement.identity()) == 0.0

    def test_diagonal(self):
        p = structured_p_factor(np.diag([0.25, 1.0, 4.0, 1.0]))
        np.testing.assert_allclose(p.matrix(), np.diag([0.5, 1.0, 2.0, 1.0]))

    def test_forward_build(self):
        x = np.array([[1j, 0.0], [0.0, 0.0]])
        p_true = PElement(TriangularS.identity(), x)
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
            p_true = random_p(rng)
            m = p_true.matrix() @ adjoint(p_true.matrix())
            p = structured_p_factor(m)
            assert p.distance(p_true) <= 1e-10 * max(1.0, p_true.s.norm() + frob(p_true.x))


class TestIwasawa:
    def test_p_element_input(self, rng):
        p0 = random_p(rng)
        p, k = iwasawa_decompose(embed_p(p0))
        assert p.distance(p0) < 1e-10 * max(1.0, p0.s.norm() + frob(p0.x))
        assert frob(k.m - E4) < 1e-10

    def test_sigma_input(self):
        p, k = iwasawa_decompose(U22Element(SIGMA))
        assert p.distance(PElement.identity()) < 1e-12
        np.testing.assert_allclose(k.m, SIGMA)
        np.testing.assert_allclose(k.alpha, np.zeros((2, 2)))
        np.testing.assert_allclose(k.beta, np.eye(2))

    def test_random_reconstruction(self, rng):
        for _ in range(200):
            g = random_u22(rng)
            p, k = iwasawa_decompose(g)
            assert frob(p.matrix() @ k.m - g.m) < 1e-10 * max(1.0, frob(g.m))

    def test_uniqueness_roundtrip(self, rng):
        for _ in range(200):
            p0, k0 = random_p(rng), random_k(rng)
            g = U22Element(p0.matrix() @ k0.m, tol=1e-9)
            p, k = iwasawa_decompose(g)
            assert p.distance(p0) <= 1e-10 * max(1.0, p0.s.norm() + frob(p0.x))
            assert frob(k.m - k0.m) <= 1e-10

    def test_compact_stack_validates_each_member(self, rng):
        ks = np.stack([random_k(rng).m for _ in range(3)])
        assert KElement(ks).alpha.shape == (3, 2, 2)
        ks[1, 0, 0] += 1e-6
        with pytest.raises(InvariantViolation):
            KElement(ks)


def ladder_element(seed, log10_cond: float) -> tuple[PElement, KElement]:
    """p0 and k0 with cond(s) = 10**log10_cond, a skew-Hermitian n with
    entries of unit size and X = n s*^-1."""
    rng = np.random.default_rng(seed)
    sv = 10.0 ** (log10_cond / 2.0)
    m = _haar_u2(rng) @ np.diag([sv, 1.0 / sv]) @ _haar_u2(rng)
    _, r = np.linalg.qr(m.conj().T)  # m = r* q*, and r* is lower triangular
    s = r.conj().T
    s = s * (np.abs(np.diag(s)) / np.diag(s))[None, :]  # a diagonal phase: same singular values
    a, b, zr, zi = rng.uniform(-1.0, 1.0, 4)
    p0 = q_to_p(QElement(TriangularS(s[0, 0].real, s[1, 1].real, s[1, 0]), SkewHermitian2(a, b, complex(zr, zi))))
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
        assert sigma_hat(PElement.identity()).distance(PElement.identity()) == 0.0

    def test_diagonal_case(self):
        p = PElement(TriangularS(2.0, 1.0, 0.0), np.zeros((2, 2)))
        p_hat = sigma_hat(p)
        assert p_hat.s.distance(TriangularS(0.5, 1.0, 0.0)) < 1e-14
        assert frob(p_hat.x) < 1e-14

    def test_defining_relation(self, rng):
        for _ in range(50):
            p = random_p(rng)
            p_hat = sigma_hat(p)
            lhs = p_hat.matrix() @ adjoint(p_hat.matrix())
            rhs = SIGMA @ p.matrix() @ adjoint(p.matrix()) @ SIGMA
            assert frob(lhs - rhs) < 1e-10 * max(1.0, frob(rhs))

    def test_involution(self, rng):
        for _ in range(100):
            p = random_p(rng)
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
    def test_n_and_s_meet_only_at_identity(self, rng):
        assert is_n_shaped(E4) and is_s_shaped(E4)
        for _ in range(50):
            n = random_n(rng)
            if n.norm() > 1e-6:
                assert not is_s_shaped(embed_n(n).m)
            s = random_s(rng)
            if s.distance(TriangularS.identity()) > 1e-6:
                assert not is_n_shaped(embed_s(s).m)

    def test_shape_predicates(self, rng):
        assert is_n_shaped(embed_n(random_n(rng)).m)
        assert is_s_shaped(embed_s(random_s(rng)).m)


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
            worst = max(worst, frob(q_to_p(triple).matrix() - E4))
        assert worst < 1e-9

    def test_double_commutators_do_not(self, rng):
        best = 0.0
        for _ in range(20):
            qs = [random_q(rng) for _ in range(4)]
            double = nested_q_commutator(qs)
            best = max(best, frob(q_to_p(double).matrix() - E4))
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
        assert random_p(rng, size=7).x.shape == (7, 2, 2)

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
    @pytest.mark.parametrize("maker", [random_p, random_q, random_k, random_u22])
    def test_roundtrip(self, maker, rng):
        el = maker(rng)
        back = element_from_json(element_to_json(el))
        assert type(back) is type(el)
        if isinstance(el, (KElement, U22Element)):
            assert np.array_equal(back.m, el.m)
        elif isinstance(el, PElement):
            assert back.distance(el) == 0.0
        else:
            assert back.s.distance(el.s) == 0.0 and back.n.distance(el.n) == 0.0

    def test_kind_tags(self, rng):
        assert element_to_json(random_p(rng))["kind"] == "p"
        assert element_to_json(random_q(rng))["kind"] == "q"
        assert element_to_json(random_k(rng))["kind"] == "k"
        assert element_to_json(random_u22(rng))["kind"] == "u22"

    def test_bad_document(self):
        with pytest.raises(ValueError):
            element_from_json({"kind": "nope", "data": {}})
        with pytest.raises(ValueError):
            element_from_json({"data": {}})
