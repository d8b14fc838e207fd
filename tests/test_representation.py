import math

import numpy as np
import pytest

from u22lab.groups import (
    QElement,
    SkewHermitian2,
    TriangularS,
    q_multiply,
    random_q,
    random_s,
)
from u22lab.measures import LogNormalSampler, PolarShellSampler, haar_measure, integrate_mc, nu_derivative_band, nu_measure, truncated_nu
from u22lab.orbits import OrbitLabel
from u22lab.points import reference_points
from u22lab import representation
from u22lab.representation import (
    CocycleVector,
    GroupFunction,
    apply_T,
    character_factor,
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
        base = integrate_mc(vacuum(), nu_measure(), sampler, 200_000, rng)
        moved = integrate_mc(apply_T(q, LABEL, vacuum()), nu_measure(), sampler, 200_000, rng)
        _, hi = nu_derivative_band(s0)
        assert moved.real <= hi * base.real * 1.05

    def test_haar_measure_makes_translations_isometric(self, rng):
        bump = GroupFunction(
            lambda pts: np.exp(-np.log(pts.r1) ** 2 - np.log(pts.r2) ** 2 - np.abs(pts.r) ** 2)
        )
        q = QElement(TriangularS(1.2, 0.9, 0.1 + 0.2j), SkewHermitian2.zero())
        sampler = LogNormalSampler(tau=1.2, sigma_r=1.2)
        base = integrate_mc(bump, haar_measure(), sampler, 300_000, rng, mode="square")
        moved = integrate_mc(apply_T(q, LABEL, bump), haar_measure(), sampler, 300_000, rng, mode="square")
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
        for name in ("translate", "character_product"):
            original = getattr(representation, name)
            monkeypatch.setattr(representation, name,
                                lambda *args, _f=original, _name=name: calls.append(_name) or _f(*args))
        values = apply_T(q, LABEL, vacuum())(pts)
        assert calls == ["translate", "character_product"]
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
        combo = CocycleVector(LABEL, ((1.0, p1), (-0.5j, p2)))
        expected = coboundary(p1, LABEL).evaluate(pts) - 0.5j * coboundary(p2, LABEL).evaluate(pts)
        np.testing.assert_allclose(combo.evaluate(pts), expected, atol=1e-14)

    def test_difference(self, pts, rng):
        # b(p1) - b(p2) = T(p1) f - T(p2) f: the vacuum cancels
        p1, p2 = random_q(rng), random_q(rng)
        f = vacuum()
        diff = CocycleVector(LABEL, ((1.0, p1), (-1.0, p2)))
        expected = apply_T(p1, LABEL, f)(pts) - apply_T(p2, LABEL, f)(pts)
        np.testing.assert_allclose(diff.evaluate(pts), expected, atol=1e-14)
        same = CocycleVector(LABEL, ((1.0, p1), (-1.0, p1)))
        assert np.max(np.abs(same.evaluate(pts))) == 0.0

    def test_character_factor_modulus(self, pts, rng):
        from u22lab.groups import random_n

        values = character_factor(LABEL, random_n(rng))(pts)
        np.testing.assert_allclose(np.abs(values), 1.0, atol=1e-13)


class TestCoboundary:
    def test_identity_gives_zero(self, pts):
        b = coboundary(QElement.identity(), LABEL)
        assert b.terms == ()
        assert np.max(np.abs(b.evaluate(pts))) == 0.0

    def test_cocycle_identity_pointwise(self, pts, rng):
        # b(q1 q2) = T(q1) b(q2) + b(q1), evaluated as functions
        worst = 0.0
        for _ in range(50):
            q1, q2 = random_q(rng), random_q(rng)
            lhs = coboundary(q_multiply(q1, q2), LABEL).evaluate(pts)
            rhs = apply_T(q1, LABEL, coboundary(q2, LABEL).as_group_function())(pts)
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
    def test_canonical_merges_duplicates(self, rng):
        p = random_q(rng)
        v = CocycleVector(LABEL, ((1.0, p), (2.0, p)))
        merged = v.canonical()
        assert len(merged.terms) == 1
        assert merged.terms[0][0] == 3.0

    def test_canonical_drops_identity(self):
        v = CocycleVector(LABEL, ((1.0, QElement.identity()),))
        assert v.canonical().terms == ()

    def test_add_and_subtract(self, pts, rng):
        v1 = coboundary(random_q(rng), LABEL)
        v2 = coboundary(random_q(rng), LABEL)
        total = v1 + v2
        np.testing.assert_allclose(
            total.evaluate(pts), v1.evaluate(pts) + v2.evaluate(pts), atol=1e-14
        )
        assert (v1 + CocycleVector(LABEL, tuple((-c, p) for c, p in v1.terms))).terms == ()

    def test_label_mixing_rejected(self, rng):
        v1 = coboundary(random_q(rng), OrbitLabel.PLUS_PLUS)
        v2 = coboundary(random_q(rng), OrbitLabel.MINUS_MINUS)
        with pytest.raises(ValueError):
            v1 + v2


class TestNorms:
    def test_zero_function(self, rng):
        sampler = PolarShellSampler(1e-3, 10.0)
        zero = GroupFunction(lambda pts: np.zeros(pts.size))
        est = integrate_mc(zero, nu_measure(), sampler, 10_000, rng)
        assert est.real == 0.0

    def test_translation_coboundary_is_square_integrable(self, rng):
        from u22lab.measures import divergence_probe

        q = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        fn = coboundary(q, LABEL).as_group_function()
        verdict = divergence_probe(fn, nu_measure(), LADDER, 30.0, 100_000, rng)
        assert verdict.classification == "convergent"

    def test_vacuum_satisfies_membership_conditions(self, rng):
        # both defining integrals converge for every default test element
        from u22lab.measures import divergence_probe

        for q in default_test_set():
            fn = coboundary(q, LABEL).as_group_function()
            verdict = divergence_probe(fn, nu_measure(), LADDER, 30.0, 50_000, rng)
            assert verdict.classification == "convergent"


    # the sesquilinear pairing is the off-diagonal of the Gram matrix
    def test_conjugate_symmetry(self, rng):
        sampler = PolarShellSampler(1e-2, 10.0)
        p, q = random_q(rng), random_q(rng)
        ab, _ = gram_matrix([p, q], LABEL, nu_measure(), sampler, 50_000, np.random.default_rng(5))
        ba, _ = gram_matrix([q, p], LABEL, nu_measure(), sampler, 50_000, np.random.default_rng(5))
        assert abs(ab[0, 1] - np.conj(ba[0, 1])) < 1e-12 * max(1.0, abs(ab[0, 1]))

    def test_cauchy_schwarz(self, rng):
        sampler = PolarShellSampler(1e-2, 10.0)
        for _ in range(5):
            p, q = random_q(rng), random_q(rng)
            gram, stderr = gram_matrix([p, q], LABEL, nu_measure(), sampler, 50_000, np.random.default_rng(7))
            # exact on one shared sample stream, up to rounding
            assert abs(gram[0, 1]) <= math.sqrt(gram[0, 0].real * gram[1, 1].real) * (1 + 1e-12)
            f = coboundary(p, LABEL).as_group_function()
            g = coboundary(q, LABEL).as_group_function()
            ff = integrate_mc(f, nu_measure(), sampler, 50_000, np.random.default_rng(7))
            gg = integrate_mc(g, nu_measure(), sampler, 50_000, np.random.default_rng(7))
            bound = math.sqrt(ff.real * gg.real)
            slack = 3 * (stderr[0, 1] + ff.std_error + gg.std_error)
            assert abs(gram[0, 1]) <= bound + slack


class TestGram:
    def test_single_element(self, rng):
        sampler = PolarShellSampler(1e-3, 30.0)
        gram, stderr = gram_matrix([random_q(rng)], LABEL, nu_measure(), sampler, 20_000, rng)
        assert gram.shape == (1, 1)
        assert gram[0, 0].real > 0
        assert abs(gram[0, 0].imag) < 1e-15

    def test_duplicate_rejected(self, rng):
        p = random_q(rng)
        sampler = PolarShellSampler(1e-3, 30.0)
        with pytest.raises(ValueError):
            gram_matrix([p, p], LABEL, nu_measure(), sampler, 20_000, rng)

    def test_identity_rejected(self, rng):
        sampler = PolarShellSampler(1e-3, 30.0)
        with pytest.raises(ValueError):
            gram_matrix([QElement.identity()], LABEL, nu_measure(), sampler, 20_000, rng)

    def test_near_duplicate_is_singular_within_error(self, rng):
        p = random_q(rng)
        p_shifted = QElement(TriangularS(p.s.r1 * (1 + 1e-9), p.s.r2, p.s.r), p.n)
        sampler = PolarShellSampler(1e-3, 30.0)
        gram, stderr = gram_matrix([p, p_shifted], LABEL, nu_measure(), sampler, 50_000, rng)
        eigmin = float(np.linalg.eigvalsh(gram)[0])
        assert eigmin < 3 * float(np.linalg.norm(stderr)) + 1e-10

    def test_six_random_elements_independent(self, rng):
        p_list = [random_q(rng) for _ in range(6)]
        sampler = PolarShellSampler(1e-4, 30.0)
        gram, stderr = gram_matrix(p_list, LABEL, nu_measure(), sampler, 100_000, rng)
        assert np.linalg.norm(gram - gram.conj().T) < 1e-12
        eigmin = float(np.linalg.eigvalsh(gram)[0])
        assert eigmin > 0  # shared samples keep the estimate PSD
        assert eigmin > 3 * float(np.linalg.norm(stderr)) * 0.1  # coarse at this n


class TestSpecialness:
    def test_witness_confirmed(self, rng):
        report = specialness_report(
            default_test_set(), LABEL, nu_measure(), LADDER, 30.0, 100_000, rng
        )
        assert report.confirmed
        assert report.verdict == "special witness confirmed"
        assert report.vacuum_verdict.classification == "log-divergent"

    def test_truncated_control_is_not_special(self, rng):
        report = specialness_report(
            default_test_set(), LABEL, truncated_nu(1.0), LADDER, 30.0, 50_000, rng
        )
        assert not report.confirmed
        assert report.verdict == "not special (vacuum square-integrable)"

    def test_measures_share_one_stream(self):
        # a sequence of measures gives one report per measure, each equal to
        # the single-measure report on the same seed
        measures = (nu_measure(), truncated_nu(1.0))
        reports = specialness_report(default_test_set(), LABEL, measures, LADDER, 30.0, 100_000, 9)
        assert [r.measure_name for r in reports] == ["nu", "nu-truncated-1"]
        for measure, report in zip(measures, reports):
            assert report == specialness_report(default_test_set(), LABEL, measure, LADDER, 30.0, 100_000, 9)
        assert reports[0].verdict == "special witness confirmed"
        assert reports[1].verdict == "not special (vacuum square-integrable)"
        classes = [v.classification for _, v in reports[0].element_verdicts]
        assert classes == ["convergent"] * len(default_test_set())

    def test_empty_set_rejected(self, rng):
        with pytest.raises(ValueError):
            specialness_report([], LABEL, nu_measure(), LADDER, 30.0, 10_000, rng)

    def test_missing_character_part_rejected(self, rng):
        translations = [q for q in default_test_set() if q.is_translation()]
        with pytest.raises(ValueError):
            specialness_report(translations, LABEL, nu_measure(), LADDER, 30.0, 10_000, rng)

    def test_missing_translation_part_rejected(self, rng):
        characters = [q for q in default_test_set() if q.is_character_direction()]
        with pytest.raises(ValueError):
            specialness_report(characters, LABEL, nu_measure(), LADDER, 30.0, 10_000, rng)


class TestOneChartType:
    # one element and a batch are the same type, so every function takes both
    @staticmethod
    def functions(rng):
        q = random_q(rng)
        return {
            "vacuum": vacuum(),
            "inverse-norm": inverse_norm(),
            "translation": apply_T(QElement(q.s, SkewHermitian2.zero()), LABEL, vacuum()),
            "character": character_factor(LABEL, q.n),
            "operator": apply_T(q, LABEL, vacuum()),
            "coboundary": coboundary(q, LABEL).as_group_function(),
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
        for pts in (reference_points(7), PolarShellSampler().sample(7, rng), LogNormalSampler().sample(7, rng)):
            assert isinstance(pts, TriangularS) and pts.size == 7 and pts.r.shape == (7,)
