import functools
import math

import numpy as np
import pytest

from u22lab.groups import (
    QElement,
    SkewHermitian2,
    TriangularS,
    q_join,
    q_multiply,
    random_q,
    random_s,
)
from u22lab.measures import LogNormalSampler, PolarShellSampler, haar_measure, integrate_mc, nu_derivative_band, nu_measure
from u22lab import orbits
from u22lab.orbits import OrbitLabel
from u22lab.points import reference_points
from u22lab.representation import (
    CocycleVector,
    GroupFunction,
    apply_T,
    coboundary,
    default_test_set,
    gram_matrix,
    inverse_norm,
    specialness_report,
    vacuum,
)

LABEL = OrbitLabel.PLUS_PLUS
LADDER = tuple(np.logspace(-1, -4, 7))
EPS = np.finfo(float).eps
ONE = GroupFunction(lambda pts: np.ones(np.shape(pts.r)))


def combination(label, coefficients, members):
    """The vector sum_i c_i b(p_i) over a list of elements."""
    return CocycleVector(label, np.asarray(coefficients, dtype=complex), q_join(np.stack, members))


def multiplier(label, n):
    """The unit-modulus multiplier s -> exp(i tr(m_k s n s*)): T of the pure
    character (e, n) applied to the constant 1."""
    return apply_T(QElement(TriangularS.identity(), n), label, ONE)


@pytest.fixture(scope="module")
def pts():
    return reference_points(100)


class TestVacuum:
    def test_value_at_identity(self):
        value = complex(vacuum()(TriangularS.identity()))
        assert abs(value - math.exp(-math.sqrt(2.0) / 2.0)) < 1e-15
        assert abs(value - 0.4930686913952398) < 1e-15

    def test_tends_to_one_at_small_radius(self):
        radii = np.logspace(-1, -8, 8)
        pts = TriangularS(radii / math.sqrt(2), radii / math.sqrt(2), np.zeros(8, complex))
        values = vacuum()(pts).real
        assert np.all(np.diff(values) > 0)
        assert values[-1] > 1 - 1e-7

    def test_monotone_decreasing_along_rays(self, pts):
        values = vacuum()(pts).real
        order = np.argsort(pts.norm())
        assert np.all(np.diff(values[order]) < 0)
        assert np.all((values > 0) & (values <= 1))


class TestApplyT:
    def test_identity_leaves_function_alone(self, pts):
        out = apply_T(QElement.identity(), LABEL, vacuum())
        assert np.array_equal(out(pts), vacuum()(pts))

    def test_character_part_preserves_modulus(self, pts, rng):
        q = QElement(TriangularS.identity(), SkewHermitian2(0.7, -0.3, 0.2 + 0.4j))
        out = apply_T(q, LABEL, vacuum())
        np.testing.assert_allclose(np.abs(out(pts)), np.abs(vacuum()(pts)), atol=1e-14)

    @pytest.mark.parametrize("label", list(OrbitLabel), ids=str)
    def test_homomorphism_pointwise(self, label, pts, rng):
        worst = 0.0
        for _ in range(50):
            q1, q2 = random_q(rng), random_q(rng)
            composed = apply_T(q1, label, apply_T(q2, label, vacuum()))
            direct = apply_T(q_multiply(q1, q2), label, vacuum())
            worst = max(worst, float(np.max(np.abs(composed(pts) - direct(pts)))))
        assert worst < 1e-11

    def test_translation_norm_within_derivative_band(self, rng):
        # the operator norm bound from the measure's derivative band
        s0 = TriangularS(1.7, 0.6, 0.4 - 0.2j)
        q = QElement(s0, SkewHermitian2.zero())
        sampler = PolarShellSampler(1e-3, 30.0)
        base = integrate_mc(vacuum(), nu_measure, sampler, 200_000, rng)
        moved = integrate_mc(apply_T(q, LABEL, vacuum()), nu_measure, sampler, 200_000, rng)
        _, hi = nu_derivative_band(s0)
        assert moved.real <= hi * base.real * 1.05

    def test_haar_measure_makes_translations_isometric(self, rng):
        bump = GroupFunction(
            lambda pts: np.exp(-np.log(pts.r1) ** 2 - np.log(pts.r2) ** 2 - np.abs(pts.r) ** 2)
        )
        q = QElement(TriangularS(1.2, 0.9, 0.1 + 0.2j), SkewHermitian2.zero())
        sampler = LogNormalSampler()
        base = integrate_mc(bump, haar_measure, sampler, 300_000, rng, mode="square")
        moved = integrate_mc(apply_T(q, LABEL, bump), haar_measure, sampler, 300_000, rng, mode="square")
        sigma = math.hypot(base.std_error, moved.std_error)
        assert abs(base.real - moved.real) < 3 * sigma


def member(q, i):
    """Member i of a stack of pairs with fields of shape (m, 1), as one pair."""
    s, n = q.s, q.n
    return QElement(TriangularS(s.r1[i, 0], s.r2[i, 0], s.r[i, 0]), SkewHermitian2(n.a[i, 0], n.b[i, 0], n.z[i, 0]))


class TestStackedOperator:
    # a stack of m pairs with fields of shape (m, 1) gives (m, points) values
    @pytest.mark.parametrize("label", list(OrbitLabel), ids=str)
    def test_stack_equals_scalar_calls(self, label, pts, rng):
        q1, q2 = random_q(rng, size=(50, 1)), random_q(rng, size=(50, 1))
        once = apply_T(q1, label, vacuum())(pts)
        twice = apply_T(q1, label, apply_T(q2, label, vacuum()))(pts)
        assert once.shape == twice.shape == (50, pts.size)
        for i in range(50):
            one1, one2 = member(q1, i), member(q2, i)
            np.testing.assert_allclose(once[i], apply_T(one1, label, vacuum())(pts), rtol=4 * EPS, atol=0)
            scalar = apply_T(one1, label, apply_T(one2, label, vacuum()))(pts)
            np.testing.assert_allclose(twice[i], scalar, rtol=4 * EPS, atol=0)

    def test_mixed_stack_skips_no_part(self, pts, rng, monkeypatch):
        # identity, pure translation, pure character and general members
        q = random_q(rng, size=(4, 1))
        one = np.ones((4, 1))
        keep_s, keep_n = np.array([[0.0], [1.0], [0.0], [1.0]]), np.array([[0.0], [0.0], [1.0], [1.0]])
        q = QElement(TriangularS(np.where(keep_s, q.s.r1, one), np.where(keep_s, q.s.r2, one), q.s.r * keep_s),
                     SkewHermitian2(q.n.a * keep_n, q.n.b * keep_n, q.n.z * keep_n))
        calls = []
        for owner, name in ((TriangularS, "multiply"), (orbits, "character_phase")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args, _f=original, _name=name: calls.append(_name) or _f(*args))
        values = apply_T(q, LABEL, vacuum())(pts)
        assert calls == ["multiply", "character_phase"]
        assert np.array_equal(values[0], vacuum()(pts))  # an identity member is an exact no-op
        for i in range(4):
            np.testing.assert_allclose(values[i], apply_T(member(q, i), LABEL, vacuum())(pts), rtol=4 * EPS, atol=0)

    def test_all_identity_stack_returns_the_function(self):
        f = vacuum()
        q = QElement(TriangularS(np.ones((3, 1)), np.ones((3, 1)), np.zeros((3, 1))),
                     SkewHermitian2(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1))))
        assert apply_T(q, LABEL, f) is f


class TestCombinators:
    def test_linear_combination(self, pts, rng):
        p1, p2 = random_q(rng), random_q(rng)
        combo = combination(LABEL, [1.0, -0.5j], [p1, p2])
        expected = coboundary(p1, LABEL).evaluate(pts) - 0.5j * coboundary(p2, LABEL).evaluate(pts)
        np.testing.assert_allclose(combo.evaluate(pts), expected, atol=1e-14)

    def test_difference(self, pts, rng):
        # b(p1) - b(p2) = T(p1) f - T(p2) f: the vacuum cancels
        p1, p2 = random_q(rng), random_q(rng)
        f = vacuum()
        diff = combination(LABEL, [1.0, -1.0], [p1, p2])
        expected = apply_T(p1, LABEL, f)(pts) - apply_T(p2, LABEL, f)(pts)
        np.testing.assert_allclose(diff.evaluate(pts), expected, atol=1e-14)
        same = combination(LABEL, [1.0, -1.0], [p1, p1])
        assert np.max(np.abs(same.evaluate(pts))) == 0.0

    def test_character_factor_modulus(self, pts, rng):
        from u22lab.groups import random_n

        values = multiplier(LABEL, random_n(rng))(pts)
        np.testing.assert_allclose(np.abs(values), 1.0, atol=1e-13)


def rounding_bound(p, pts):
    """Pointwise bound on |row - (apply_T(p) f - f)| for one term p = (s0, n);
    derived in ``TestRows.test_rows_are_the_operator_minus_the_vacuum``."""
    u = EPS / 2
    n, s0, r = p.n, p.s, pts.r
    phase_size = (abs(n.a) * (pts.r1**2 + np.abs(r) ** 2) + abs(n.b) * pts.r2**2
                  + 2.0 * pts.r2 * (np.abs(r.real * n.z.imag) + np.abs(r.imag * n.z.real)))
    norm_size = (s0.r1**2 * (pts.r1**2 + np.abs(r) ** 2) + (s0.r2**2 + abs(s0.r) ** 2) * pts.r2**2
                 + 2.0 * s0.r1 * pts.r2 * (np.abs(r.real * s0.r.real) + np.abs(r.imag * s0.r.imag)))
    x = pts.multiply(s0).norm()
    return u * (14.0 * phase_size + 6.0 * norm_size / x * np.exp(-x / 2.0) + 17.0)


class TestRows:
    # CocycleVector.rows is the one evaluator of T(p) f - f, in closed form
    @staticmethod
    def members(rng):
        return [QElement.identity(), QElement(random_s(rng), SkewHermitian2.zero()),
                QElement(TriangularS.identity(), random_q(rng).n), random_q(rng), random_q(rng)]

    def vector(self, rng):
        return combination(LABEL, np.full(5, 0.5 - 2.0j), self.members(rng))

    @staticmethod
    def ill_conditioned(rng):
        """Shrinking (t, t, e^{i theta}) and stretching (1, 1, e^{i theta} / t)
        translations, cond(s0) about 1/t^2 up to 1e6, with and without a
        character."""
        out = []
        for t in (1e-1, 1e-2, 1e-3):
            for s0 in (TriangularS(t, t, np.exp(1j * rng.uniform(0, 2 * np.pi))),
                       TriangularS(1.0, 1.0, np.exp(1j * rng.uniform(0, 2 * np.pi)) / t)):
                out += [QElement(s0, SkewHermitian2.zero()), QElement(s0, random_q(rng).n)]
        return out

    def test_rows_are_the_operator_minus_the_vacuum(self, pts, rng):
        # Exact where both paths do the same arithmetic: the vacuum row is
        # vacuum()(pts) bit for bit, and an identity term's row is exactly 0.
        # Every other row differs from apply_T(p) f - f by rounding alone,
        # bounded per point to first order (u = eps / 2, x = |s s0|):
        # - the phase is a sum of five exact coefficients times monomials, so
        #   each path is within 7u Phi of it, where Phi >= |phase| is that sum
        #   taken in moduli; each half-angle multiplier adds 4u;
        # - |s s0|^2 is a five-term sum of absolute size X in the closed form
        #   (within 11u X) and within 13u X through TriangularS.multiply and
        #   the norm, so x differs by at most 12u X / x, and exp(-x / 2) by
        #   6u (X / x) exp(-x / 2), plus 3u for sqrt and exp;
        # - the product and the subtraction of f add 6u.
        # Total: u (14 Phi + 6 (X / x) exp(-x / 2) + 17).  With
        # X <= 2 |s0|^2 |s|^2, |s0|^2 <= 2 sigma_max(s0)^2 and
        # x >= sigma_min(s0) |s|, the middle term is at most 18u cond(s0)^2,
        # so the bound depends on |phase| and cond(s0) alone; the sharper
        # pointwise form is checked.  Points: the reference points, polar
        # draws on [1e-4, 30], one point, and for each ill-conditioned s0
        # points that s0 nearly annihilates, where X / x is largest.
        terms = self.members(rng) + self.ill_conditioned(rng)
        draws = PolarShellSampler(1e-4, 30.0).sample(4096, rng.uniform(2.0**-53, 1.0, (4, 4096)))
        for label in OrbitLabel:
            v = combination(label, np.ones(len(terms)), terms)
            for points in (pts, draws, random_s(rng)):
                values = v.vacuum_and_rows(points)
                assert values.shape == (1 + len(terms),) + np.shape(points.r)
                assert np.array_equal(values[0], vacuum()(points))
                assert not np.any(values[1])  # the identity term
                for row, p in zip(values[2:], terms[1:]):
                    expected = apply_T(p, label, vacuum())(points) - vacuum()(points)
                    assert np.all(np.abs(row - expected) <= rounding_bound(p, points)), (str(label), p)
        for p in self.ill_conditioned(rng):
            s0 = p.s
            r2 = rng.uniform(1e-3, 30.0 * min(s0.r1, 1.0 / abs(s0.r)), 4096)
            corner = -r2 * s0.r / s0.r1 * (1.0 + rng.normal(0.0, 1e-3, r2.size))  # r s0.r1 + r2 s0.r near 0
            near = TriangularS(np.full(r2.size, 1e-3), r2, corner)
            row = coboundary(p, LABEL).rows(near)[0]
            expected = apply_T(p, LABEL, vacuum())(near) - vacuum()(near)
            assert np.all(np.abs(row - expected) <= rounding_bound(p, near)), p

    def test_rows_stay_finite_where_the_squared_norm_rounds_below_zero(self, rng):
        # at cond(s0) = 1e16 the closed form of |s s0|^2 cancels to below 0
        # on about half of the points s0 nearly annihilates; it is clamped
        # at 0, where the true value lies within rounding
        t = 1e-8
        q = QElement(TriangularS(t, t, np.exp(0.7j)), SkewHermitian2.zero())
        r2 = rng.uniform(3 * t, 30 * t, 1000)
        near = TriangularS(np.full(r2.size, 1e-3 * t), r2, -r2 * np.exp(0.7j) / t)
        row = coboundary(q, LABEL).rows(near)[0]
        assert np.all(np.isfinite(row.real)) and np.all(row.imag == 0.0)

    def test_a_point_gives_the_rows_of_a_length_one_batch(self, rng):
        # a 0-d point is evaluated as one column, the path of a batch
        v = self.vector(rng)
        for _ in range(50):
            s = random_s(rng)
            batch = TriangularS(np.array([s.r1]), np.array([s.r2]), np.array([s.r]))
            one, many = v.vacuum_and_rows(s), v.vacuum_and_rows(batch)
            assert one.shape == (1 + v.coefficients.size,) and many.shape == (1 + v.coefficients.size, 1)
            np.testing.assert_allclose(one, many[:, 0], rtol=4 * EPS, atol=0)

    def test_evaluate_adds_the_rows_in_term_order(self, pts, rng):
        v = self.vector(rng)
        expected = np.zeros(pts.size, complex)
        for c, row in zip(v.coefficients, v.rows(pts)):
            expected += c * row
        assert np.array_equal(v.evaluate(pts), expected)
        nothing = QElement(TriangularS(np.ones(0), np.ones(0), np.zeros(0)),
                           SkewHermitian2(np.zeros(0), np.zeros(0), np.zeros(0)))
        assert CocycleVector(LABEL, np.zeros(0), nothing).rows(pts).shape == (0, pts.size)

    def test_leading_axes_index_independent_vectors(self, pts, rng):
        # a (3, 2) coefficient array over a (3, 2) stack is three two-term
        # vectors, each evaluated as it is alone, bit for bit
        firsts, seconds = random_q(rng, size=(3, 1)), random_q(rng, size=(3, 1))
        coefficients = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        elements = q_join(functools.partial(np.concatenate, axis=-1), [firsts, seconds])
        stacked = CocycleVector(LABEL, coefficients, elements)
        assert stacked.rows(pts).shape == (3, 2, pts.size)
        values = stacked.evaluate(pts)
        assert values.shape == (3, pts.size)
        for i in range(3):
            alone = combination(LABEL, coefficients[i], [member(firsts, i), member(seconds, i)])
            assert np.array_equal(values[i], alone.evaluate(pts))

    def test_passes_translate_no_point_and_share_one_norm_per_view(self, monkeypatch):
        # the rows come from the monomials of the points, so neither a
        # 6-pair gram_matrix nor C06's probe translates a point, and each
        # view computes its norm once, in the sampler's density; the
        # measures and the vacuum row read that cached norm
        from u22lab import measures

        products, norms = [], []
        original_norm, original_multiply = TriangularS.norm, TriangularS.multiply

        def counting_norm(self):
            if "_norm" not in self.__dict__:
                norms.append(self.size)
            return original_norm(self)

        monkeypatch.setattr(TriangularS, "norm", counting_norm)
        monkeypatch.setattr(TriangularS, "multiply", lambda *args: products.append("multiply") or original_multiply(*args))
        n, views = 4 * measures.BLOCK, measures.REPLICATES  # one block per replicate
        rng = np.random.default_rng(3)
        gram_matrix([random_q(rng) for _ in range(6)], LABEL, PolarShellSampler(), n, rng)
        assert products == []
        # the distinctness check takes one norm of the six-element stack
        assert [size for size in norms if size > 1] == [6] + [n // views] * views
        norms.clear()
        specialness_report(LABEL, LADDER, 30.0, n, rng)
        assert products == []
        assert norms == [n // views] * views


class TestCoboundary:
    def test_identity_gives_zero(self, pts):
        # the one term's row is exactly 0
        b = coboundary(QElement.identity(), LABEL)
        assert b.coefficients.shape == (1,)
        assert np.max(np.abs(b.evaluate(pts))) == 0.0

    def test_cocycle_identity_pointwise(self, pts, rng):
        # b(q1 q2) = T(q1) b(q2) + b(q1), evaluated as functions
        worst = 0.0
        for _ in range(50):
            q1, q2 = random_q(rng), random_q(rng)
            lhs = coboundary(q_multiply(q1, q2), LABEL).evaluate(pts)
            rhs = apply_T(q1, LABEL, coboundary(q2, LABEL).evaluate)(pts)
            rhs = rhs + coboundary(q1, LABEL).evaluate(pts)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-11

    def test_character_coboundary_vanishes_quadratically(self, rng):
        from u22lab.groups import random_n

        n = random_n(rng)
        q = QElement(TriangularS.identity(), n)
        b = coboundary(q, LABEL)
        radii = np.logspace(-1, -4, 7)
        pts = TriangularS(radii * 0.6, radii * 0.6, radii * (0.3 + 0.3j))
        ratios = np.abs(b.evaluate(pts)) / radii**2
        assert np.all(ratios < 10.0 * max(1.0, n.norm()))

    def test_matches_operator_definition(self, pts, rng):
        q = random_q(rng)
        direct = coboundary(q, LABEL).evaluate(pts)
        via_ops = apply_T(q, LABEL, vacuum())(pts) - vacuum()(pts)
        np.testing.assert_allclose(direct, via_ops, atol=1e-14)

    def test_matches_closed_form(self, pts, rng):
        # b(q)(s) = exp(i tr(m_k s n s*)) exp(-|s s0|/2) - exp(-|s|/2)
        from u22lab import orbits

        q = random_q(rng)
        phase = orbits.character_phase(LABEL, q.n, pts.r1, pts.r2, pts.r)
        expected = np.exp(1j * phase) * np.exp(-pts.multiply(q.s).norm() / 2) - np.exp(-pts.norm() / 2)
        np.testing.assert_allclose(coboundary(q, LABEL).evaluate(pts), expected, rtol=0, atol=1e-15)


class TestCocycleVectorAlgebra:
    def test_an_identity_member_evaluates_to_exactly_zero(self, pts, rng):
        # no merge drops the identity: its row is exactly 0, so the vector
        # evaluates bit for bit as the one without it
        p = random_q(rng)
        v = combination(LABEL, [1.0, 2.0], [QElement.identity(), p])
        assert not np.any(v.rows(pts)[0])
        assert np.array_equal(v.evaluate(pts), combination(LABEL, [2.0], [p]).evaluate(pts))

    def test_a_vector_plus_itself_is_twice_the_vector(self, pts, rng):
        v = coboundary(random_q(rng), LABEL) + coboundary(random_q(rng), LABEL)
        twice = v + v
        assert twice.coefficients.shape == (4,)
        np.testing.assert_allclose(twice.evaluate(pts), 2.0 * v.evaluate(pts), rtol=4 * EPS, atol=0)

    def test_a_vector_plus_its_negation_is_exactly_zero(self, rng):
        # three one-term vectors, on a leading axis: the repeated element is
        # not merged, and its row meets its negation at every point
        b = coboundary(q_join(np.stack, [random_q(rng), QElement.identity(), random_q(rng)]), LABEL)
        v = CocycleVector(LABEL, b.coefficients * np.array([[1.0], [-0.5j], [3.0 + 1.0j]]), b.elements)
        negation = CocycleVector(LABEL, -v.coefficients, v.elements)
        points = PolarShellSampler(1e-4, 30.0).sample(4096, rng.uniform(2.0**-53, 1.0, (4, 4096)))
        for where in (reference_points(100), points, random_s(rng)):
            assert not np.any((v + negation).evaluate(where))

    def test_add_and_subtract(self, pts, rng):
        v1 = coboundary(random_q(rng), LABEL)
        v2 = coboundary(random_q(rng), LABEL)
        total = v1 + v2
        np.testing.assert_allclose(
            total.evaluate(pts), v1.evaluate(pts) + v2.evaluate(pts), atol=1e-14
        )
        assert not np.any((v1 + CocycleVector(LABEL, -v1.coefficients, v1.elements)).evaluate(pts))

    def test_label_mixing_rejected(self, rng):
        v1 = coboundary(random_q(rng), OrbitLabel.PLUS_PLUS)
        v2 = coboundary(random_q(rng), OrbitLabel.MINUS_MINUS)
        with pytest.raises(ValueError):
            v1 + v2


class TestNorms:
    def test_zero_function(self, rng):
        sampler = PolarShellSampler(1e-3, 10.0)
        zero = GroupFunction(lambda pts: np.zeros(pts.size))
        est = integrate_mc(zero, nu_measure, sampler, 10_000, rng)
        assert est.real == 0.0

    def test_translation_coboundary_is_square_integrable(self, rng):
        from u22lab.measures import divergence_probe

        q = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        fn = coboundary(q, LABEL).evaluate
        verdict = divergence_probe(fn, [nu_measure], LADDER, 30.0, 100_000, rng)[0][0]
        assert verdict.classification == "convergent"

    def test_vacuum_satisfies_membership_conditions(self, rng):
        # both defining integrals converge for every default test element
        from u22lab.measures import divergence_probe

        for q in default_test_set():
            fn = coboundary(q, LABEL).evaluate
            verdict = divergence_probe(fn, [nu_measure], LADDER, 30.0, 50_000, rng)[0][0]
            assert verdict.classification == "convergent"


    # the sesquilinear pairing is the off-diagonal of the Gram matrix
    def test_conjugate_symmetry(self, rng):
        sampler = PolarShellSampler(1e-2, 10.0)
        p, q = random_q(rng), random_q(rng)
        ab, _ = gram_matrix([p, q], LABEL, sampler, 50_000, np.random.default_rng(5))
        ba, _ = gram_matrix([q, p], LABEL, sampler, 50_000, np.random.default_rng(5))
        assert abs(ab[0, 1] - np.conj(ba[0, 1])) < 1e-12 * max(1.0, abs(ab[0, 1]))

    def test_cauchy_schwarz(self, rng):
        sampler = PolarShellSampler(1e-2, 10.0)
        for _ in range(5):
            p, q = random_q(rng), random_q(rng)
            gram, stderr = gram_matrix([p, q], LABEL, sampler, 50_000, np.random.default_rng(7))
            # exact on one shared sample stream, up to rounding
            assert abs(gram[0, 1]) <= math.sqrt(gram[0, 0].real * gram[1, 1].real) * (1 + 1e-12)
            f = coboundary(p, LABEL).evaluate
            g = coboundary(q, LABEL).evaluate
            ff = integrate_mc(f, nu_measure, sampler, 50_000, np.random.default_rng(7))
            gg = integrate_mc(g, nu_measure, sampler, 50_000, np.random.default_rng(7))
            bound = math.sqrt(ff.real * gg.real)
            slack = 3 * (stderr[0, 1] + ff.std_error + gg.std_error)
            assert abs(gram[0, 1]) <= bound + slack


class TestGram:
    def test_single_element(self, rng):
        sampler = PolarShellSampler(1e-3, 30.0)
        gram, stderr = gram_matrix([random_q(rng)], LABEL, sampler, 20_000, rng)
        assert gram.shape == (1, 1)
        assert gram[0, 0].real > 0
        assert abs(gram[0, 0].imag) < 1e-15

    def test_duplicate_rejected(self, rng):
        p = random_q(rng)
        sampler = PolarShellSampler(1e-3, 30.0)
        with pytest.raises(ValueError):
            gram_matrix([p, p], LABEL, sampler, 20_000, rng)

    def test_identity_rejected(self, rng):
        sampler = PolarShellSampler(1e-3, 30.0)
        with pytest.raises(ValueError):
            gram_matrix([QElement.identity()], LABEL, sampler, 20_000, rng)

    def test_near_duplicate_is_singular_within_error(self, rng):
        p = random_q(rng)
        p_shifted = QElement(TriangularS(p.s.r1 * (1 + 1e-9), p.s.r2, p.s.r), p.n)
        sampler = PolarShellSampler(1e-3, 30.0)
        gram, stderr = gram_matrix([p, p_shifted], LABEL, sampler, 50_000, rng)
        eigmin = float(np.linalg.eigvalsh(gram)[0])
        assert eigmin < 3 * float(np.linalg.norm(stderr)) + 1e-10

    def test_six_random_elements_independent(self, rng):
        p_list = [random_q(rng) for _ in range(6)]
        sampler = PolarShellSampler(1e-4, 30.0)
        gram, stderr = gram_matrix(p_list, LABEL, sampler, 100_000, rng)
        assert np.linalg.norm(gram - gram.conj().T) < 1e-12
        eigmin = float(np.linalg.eigvalsh(gram)[0])
        assert eigmin > 0  # shared samples keep the estimate PSD
        assert eigmin > 3 * float(np.linalg.norm(stderr)) * 0.1  # coarse at this n


class TestSpecialness:
    # the control measure's report equals a probe on its own on the same
    # seed: TestSharedStream in test_measures.py checks that property
    def test_witness_confirmed(self, rng):
        report, _ = specialness_report(LABEL, LADDER, 30.0, 100_000, rng)
        assert report.confirmed
        assert report.verdict == "special witness confirmed"
        assert report.vacuum_verdict.classification == "log-divergent"
        classes = [v.classification for _, v in report.element_verdicts]
        assert classes == ["convergent"] * len(default_test_set())

    def test_truncated_control_is_not_special(self, rng):
        _, control = specialness_report(LABEL, LADDER, 30.0, 50_000, rng)
        assert not control.confirmed
        assert control.verdict == "not special (vacuum square-integrable)"


class TestOneChartType:
    # one element and a batch are the same type, so every function takes both
    @staticmethod
    def functions(rng):
        q = random_q(rng)
        return {
            "vacuum": vacuum(),
            "inverse-norm": inverse_norm(),
            "translation": apply_T(QElement(q.s, SkewHermitian2.zero()), LABEL, vacuum()),
            "character": multiplier(LABEL, q.n),
            "operator": apply_T(q, LABEL, vacuum()),
            "coboundary": coboundary(q, LABEL).evaluate,
        }

    def test_scalar_equals_length_one_batch(self, rng):
        # the norm rounds alike for both; cos and sin of a 0-d and of a
        # 1-element array may differ in the last bit
        for _ in range(200):
            s = random_s(rng)
            batch = TriangularS(np.array([s.r1]), np.array([s.r2]), np.array([s.r]))
            assert s.size == batch.size == 1
            assert s.norm() == batch.norm()[0]
            for name, fn in self.functions(rng).items():
                value = fn(s)
                assert value.shape == (), name
                np.testing.assert_allclose(value, fn(batch)[0], rtol=4 * EPS, atol=0, err_msg=name)

    def test_samplers_and_test_points_are_batches(self, rng):
        u = rng.uniform(2.0**-53, 1.0, (4, 7))
        for pts in (reference_points(7), PolarShellSampler().sample(7, u), LogNormalSampler().sample(7, u)):
            assert isinstance(pts, TriangularS) and pts.size == 7 and pts.r.shape == (7,)
