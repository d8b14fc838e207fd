import numpy as np
import pytest

from u22lab.extension import (
    UNBOUNDEDNESS_SCALES,
    act_k,
    apply_extended,
    extend_cocycle,
    unboundedness_experiment,
)
from u22lab.groups import (
    KElement,
    QElement,
    SkewHermitian2,
    TriangularS,
    U22Element,
    q_join,
    random_k,
    random_q,
    random_u22,
    sigma_hat,
)
from u22lab.matrices import E4, SIGMA, frob
from u22lab.orbits import OrbitLabel
from u22lab.points import reference_points
from u22lab.representation import apply_T, coboundary

LABEL = OrbitLabel.PLUS_PLUS


@pytest.fixture(scope="module")
def pts():
    return reference_points(100)


def rel_scale(p: QElement) -> float:
    return max(1.0, p.s.norm() + frob(p.x))


class TestActK:
    def test_identity_k(self, rng):
        p = random_q(rng)
        assert act_k(KElement(E4), p).distance(p) < 1e-12 * rel_scale(p)

    def test_identity_p(self, rng):
        k = random_k(rng)
        out = act_k(k, QElement.identity())
        assert out.distance(QElement.identity()) < 1e-12

    def test_reconstruction(self, rng):
        # k p = p' k' with both factors recovered
        from u22lab.groups import iwasawa_decompose

        for _ in range(50):
            k, p = random_k(rng), random_q(rng)
            product = U22Element(k.m @ p.matrix(), tol=1e-9)
            p_prime, k_prime = iwasawa_decompose(product)
            residual = frob(p_prime.matrix() @ k_prime.m - k.m @ p.matrix())
            assert residual < 1e-10 * max(1.0, frob(p.matrix()))

    def test_group_law_on_labels(self, rng):
        for _ in range(50):
            k1, k2, p = random_k(rng), random_k(rng), random_q(rng)
            lhs = act_k(k1.multiply(k2), p)
            rhs = act_k(k1, act_k(k2, p))
            assert lhs.distance(rhs) < 1e-9 * rel_scale(lhs)


class TestActSigma:
    def test_identity(self):
        out = sigma_hat(QElement.identity())
        assert out.distance(QElement.identity()) == 0.0

    def test_diagonal_example(self):
        p = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        out = sigma_hat(p)
        assert out.s.distance(TriangularS(0.5, 1.0, 0.0)) < 1e-14

    def test_involution(self, rng):
        for _ in range(50):
            p = random_q(rng)
            back = sigma_hat(sigma_hat(p))
            assert back.distance(p) < 1e-10 * rel_scale(p)


class TestExtendCocycle:
    def test_compact_element_gives_zero(self, rng):
        # the one term is b(p) with p the identity to rounding
        v = extend_cocycle(U22Element(random_k(rng).m), LABEL)
        assert v.coefficients.shape == (1,)
        assert np.all(v.elements.is_identity())

    def test_triangular_element_matches_module(self, pts, rng):
        p = random_q(rng)
        v = extend_cocycle(U22Element(p.matrix()), LABEL)
        direct = coboundary(p, LABEL)
        np.testing.assert_allclose(v.evaluate(pts), direct.evaluate(pts), atol=1e-10)

    def test_product_form(self, pts, rng):
        p, k = random_q(rng), random_k(rng)
        g = U22Element(p.matrix() @ k.m, tol=1e-9)
        v = extend_cocycle(g, LABEL)
        np.testing.assert_allclose(
            v.evaluate(pts), coboundary(p, LABEL).evaluate(pts), atol=1e-9
        )

    def test_constant_on_right_compact_cosets(self, rng):
        g = random_u22(rng)
        k = random_k(rng)
        v1 = extend_cocycle(g, LABEL)
        v2 = extend_cocycle(g.multiply(U22Element(k.m)), LABEL)
        assert v1.coefficients.shape == v2.coefficients.shape == (1,)
        (distance,), (scale,) = v1.elements.distance(v2.elements), v1.elements.s.norm() + frob(v1.elements.x)
        assert distance < 1e-10 * max(1.0, scale)


class TestApplyExtended:
    def test_identity_element(self, pts, rng):
        v = coboundary(random_q(rng), LABEL)
        out = apply_extended(U22Element(E4), v)
        np.testing.assert_allclose(out.evaluate(pts), v.evaluate(pts), atol=1e-12)

    def test_triangular_action_formula(self, pts, rng):
        # T(p0) b(q) = b(p0 q) - b(p0) through the factorization of g = p0,
        # checked against the operator route
        for _ in range(20):
            p0, q = random_q(rng), random_q(rng)
            formal = apply_extended(U22Element(p0.matrix()), coboundary(q, LABEL))
            operator = apply_T(p0, LABEL, coboundary(q, LABEL).evaluate)
            np.testing.assert_allclose(formal.evaluate(pts), operator(pts), atol=1e-11)

    def test_extension_agrees_with_representation_on_p(self, pts, rng):
        p0 = random_q(rng)
        v = coboundary(random_q(rng), LABEL)
        via_extension = apply_extended(U22Element(p0.matrix()), v)
        via_operator = apply_T(p0, LABEL, v.evaluate)
        np.testing.assert_allclose(via_extension.evaluate(pts), via_operator(pts), atol=1e-10)

    def test_extended_cocycle_identity(self, pts, rng):
        worst = 0.0
        for _ in range(20):
            g1, g2 = random_u22(rng), random_u22(rng)
            lhs = extend_cocycle(g1.multiply(g2), LABEL)
            rhs = apply_extended(g1, extend_cocycle(g2, LABEL)) + extend_cocycle(g1, LABEL)
            worst = max(worst, float(np.max(np.abs(lhs.evaluate(pts) - rhs.evaluate(pts)))))
        assert worst < 1e-8

    def test_a_stack_acts_member_by_member(self, pts, rng):
        # one g per vector of a stacked two-term vector: each vector of the
        # result is that member's own action, to rounding
        g, q1, q2 = random_u22(rng, size=4), random_q(rng, size=4), random_q(rng, size=4)
        stacked = apply_extended(g, coboundary(q1, LABEL) + coboundary(q2, LABEL))
        assert stacked.coefficients.shape == (4, 3)
        values = stacked.evaluate(pts)
        for i in range(4):
            member = [q_join(lambda fields: fields[0][i], [q]) for q in (q1, q2)]
            alone = apply_extended(g[i], coboundary(member[0], LABEL) + coboundary(member[1], LABEL))
            np.testing.assert_allclose(values[i], alone.evaluate(pts), rtol=0, atol=1e-13)

    def test_result_stays_in_span(self, rng):
        g = random_u22(rng)
        v = coboundary(random_q(rng), LABEL) + coboundary(random_q(rng), LABEL)
        out = apply_extended(g, v)
        assert isinstance(out.elements, QElement)
        assert np.shape(out.elements.s.r) == out.coefficients.shape
        assert out.coefficients.shape[-1] <= 3


class TestExtendedOperator:
    # words in the generators act through apply_extended; the swap letter is
    # the compact element SIGMA
    SWAP = U22Element(SIGMA)

    def test_word_composition_matches_group_product(self, pts, rng):
        g1, g2 = random_u22(rng), random_u22(rng)
        v = coboundary(random_q(rng), LABEL)
        word = apply_extended(g1, apply_extended(g2, v))
        product = apply_extended(g1.multiply(g2), v)
        np.testing.assert_allclose(word.evaluate(pts), product.evaluate(pts), atol=1e-9)

    def test_swap_letter(self, pts, rng):
        p = random_q(rng)
        v = coboundary(p, LABEL)
        out = apply_extended(self.SWAP, v)
        expected = coboundary(sigma_hat(p), LABEL)
        np.testing.assert_allclose(out.evaluate(pts), expected.evaluate(pts), atol=1e-10)

    def test_swap_squared_is_identity_on_basis(self, pts, rng):
        v = coboundary(random_q(rng), LABEL)
        out = apply_extended(self.SWAP, apply_extended(self.SWAP, v))
        np.testing.assert_allclose(out.evaluate(pts), v.evaluate(pts), atol=1e-9)


class TestUnboundednessExperiment:
    def test_rows_and_csv(self, rng):
        # the library returns rows only; their keys are the CSV columns the
        # CLI writes (tests/test_cli.py covers the CSV text)
        rows = unboundedness_experiment(LABEL, 20_000, rng)
        assert len(rows) == len(UNBOUNDEDNESS_SCALES)
        assert all(r["ratio"] > 0 and r["stderr"] >= 0 for r in rows)
        assert list(rows[0])[:3] == ["s_norm", "ratio", "stderr"]
