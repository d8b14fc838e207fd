import math

import numpy as np
import pytest
from scipy.special import exp1

from u22lab.groups import TriangularS, random_s
from u22lab.measures import (
    BoxSampler,
    LogNormalSampler,
    MeasureSpec,
    NonFinite,
    OMEGA_PATCH_MASS,
    PolarShellSampler,
    divergence_probe,
    haar_measure,
    integrate_mc,
    modulus_pi,
    nu_derivative_band,
    nu_measure,
    right_translation_jacobian_fd,
    rn_derivative_right,
    singular_values,
    truncated_nu,
)
from u22lab.representation import GroupFunction, coboundary, gram_matrix, inverse_norm, vacuum
from u22lab.groups import QElement, SkewHermitian2, random_q
from u22lab.orbits import OrbitLabel

LADDER = tuple(np.logspace(-1, -4, 7))
ONE = GroupFunction(lambda pts: np.ones(pts.size))


def annulus_indicator(fn, lo, hi):
    def evaluate(pts):
        norms = pts.norm()
        return np.where((norms >= lo) & (norms <= hi), fn(pts), 0.0)

    return GroupFunction(evaluate)


class TestChartFunctions:
    def test_norm_identity(self):
        assert TriangularS.identity().norm() == math.sqrt(2.0)

    def test_norm_example(self):
        assert abs(TriangularS(1.0, 2.0, 1.0 + 1.0j).norm() - math.sqrt(7.0)) < 1e-15

    def test_norm_homogeneous(self, rng):
        s = random_s(rng)
        assert abs(TriangularS(3.0 * s.r1, 3.0 * s.r2, 3.0 * s.r).norm() - 3.0 * s.norm()) < 1e-13 * s.norm()

    def test_norm_submultiplicative_band(self, rng):
        for _ in range(200):
            s, s0 = random_s(rng), random_s(rng)
            smin, smax = singular_values(s0)
            product = s.multiply(s0).norm()
            assert smin * s.norm() * (1 - 1e-12) <= product <= smax * s.norm() * (1 + 1e-12)

    def test_pi_identity(self):
        assert modulus_pi(TriangularS.identity()) == 1.0

    def test_pi_example(self):
        assert modulus_pi(TriangularS(2.0, 3.0, 0.5 + 0.5j)) == 24.0

    def test_pi_multiplicative(self, rng):
        for _ in range(300):
            s1, s2 = random_s(rng), random_s(rng)
            ratio = modulus_pi(s1.multiply(s2)) / (modulus_pi(s1) * modulus_pi(s2))
            assert abs(ratio - 1.0) < 1e-13


class TestRadonNikodym:
    def test_identity_translation(self, rng):
        s = random_s(rng)
        assert rn_derivative_right(nu_measure(), s, TriangularS.identity()) == 1.0

    def test_frozen_example(self):
        # pi(s0) = 8, |s s0|^2 = 5, |s|^2 = 2 at the identity chart point
        value = rn_derivative_right(
            nu_measure(), TriangularS.identity(), TriangularS(2.0, 1.0, 0.0)
        )
        assert abs(value - 1.28) < 1e-14

    def test_haar_derivative_is_one(self, rng):
        for _ in range(100):
            s, s0 = random_s(rng), random_s(rng)
            assert abs(rn_derivative_right(haar_measure(), s, s0) - 1.0) < 1e-12

    def test_nu_band(self, rng):
        for _ in range(20):
            s0 = random_s(rng)
            lo, hi = nu_derivative_band(s0)
            for _ in range(100):
                value = rn_derivative_right(nu_measure(), random_s(rng), s0)
                assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("measure", [nu_measure(), haar_measure()], ids=["nu", "haar"])
    def test_batch_equals_per_element_calls(self, rng, measure):
        # scalar and array powers may round 1 ulp apart
        s, s0 = random_s(rng, size=1000), random_s(rng)
        batch = rn_derivative_right(measure, s, s0)
        single = [rn_derivative_right(measure, TriangularS(a, b, c), s0) for a, b, c in zip(s.r1, s.r2, s.r)]
        np.testing.assert_allclose(batch, single, rtol=4 * np.finfo(float).eps, atol=0)

    def test_jacobian_finite_differences(self, rng):
        # the Jacobian of s -> s s0 depends on s0 only and equals pi(s0)
        for _ in range(10):
            s, s0 = random_s(rng), random_s(rng)
            fd = right_translation_jacobian_fd(s, s0)
            assert abs(fd / modulus_pi(s0) - 1.0) < 1e-6


def polar(s: TriangularS):
    """s = r w with r = |s| and |w| = 1."""
    r = s.norm()
    return r, TriangularS(s.r1 / r, s.r2 / r, s.r / r)


class TestPolar:
    # polar coordinates s = r w: the shell sampler draws in them, and the
    # |s|^-4 measure reads r^-1 dr dw in them
    def test_identity_decomposition(self):
        r, omega = polar(TriangularS.identity())
        assert r == math.sqrt(2.0)
        assert abs(omega.norm() - 1.0) <= np.finfo(float).eps

    def test_scaling(self, rng):
        s = random_s(rng)
        r, omega = polar(s)
        r2, omega2 = polar(TriangularS(3.0 * s.r1, 3.0 * s.r2, 3.0 * s.r))
        assert abs(r2 - 3.0 * r) < 1e-12 * r
        assert omega2.distance(omega) < 1e-14

    def test_roundtrip(self, rng):
        for _ in range(100):
            s = random_s(rng)
            r, omega = polar(s)
            assert abs(omega.norm() - 1.0) < 1e-14
            assert TriangularS(r * omega.r1, r * omega.r2, r * omega.r).distance(s) <= 1e-14 * max(1.0, s.norm())
        # a shell sample is a radius in [r_min, r_max] times a unit direction
        r, omega = polar(PolarShellSampler(0.5, 8.0).sample(1000, rng))
        assert np.all((r >= 0.5 * (1 - 1e-14)) & (r <= 8.0 * (1 + 1e-14)))
        assert np.max(np.abs(omega.norm() - 1.0)) < 1e-14

    def test_radial_weight(self):
        # |s|^-4 times the radial volume element r^3 is r^-1
        radii = np.array([0.5, 2.0])
        pts = TriangularS(radii / math.sqrt(2.0), radii / math.sqrt(2.0), np.zeros(2, complex))
        np.testing.assert_allclose(nu_measure().density(pts) * pts.norm() ** 3, [2.0, 0.5], rtol=1e-14)


class TestIntegration:
    def test_constant_on_box(self, rng):
        # uniform sampler against the Lebesgue measure: the estimate is exact
        box = BoxSampler(1, 2, 1, 2, 1, 2, 1, 2)
        lebesgue = MeasureSpec("lebesgue", lambda pts: np.ones(pts.size))
        est = integrate_mc(ONE, lebesgue, box, 10_000, rng, mode="plain")
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_annulus_mass_closed_form(self, rng):
        # integral of 1 against |s|^-4 ds over the annulus is log(R/eps) * patch mass
        sampler = PolarShellSampler(0.5, 8.0)
        est = integrate_mc(ONE, nu_measure(), sampler, 5_000, rng, mode="plain")
        assert abs(est.value - math.log(16.0) * OMEGA_PATCH_MASS) < 1e-12

    def test_polar_cartesian_and_quadrature_agree(self, rng):
        # three routes to the integral of exp(-|s|) against the truncated measure
        lo, hi = 0.5, 8.0
        expected = OMEGA_PATCH_MASS * (exp1(lo) - exp1(hi))
        fn = GroupFunction(lambda pts: np.exp(-pts.norm()))
        polar = integrate_mc(
            fn, nu_measure(), PolarShellSampler(lo, hi), 200_000, rng, mode="plain"
        )
        cartesian = integrate_mc(
            annulus_indicator(fn, lo, hi),
            nu_measure(),
            LogNormalSampler(tau=1.0, sigma_r=1.5),
            400_000,
            rng,
            mode="plain",
        )
        assert abs(polar.value - expected) < 4 * polar.std_error
        assert abs(cartesian.value - expected) < 4 * cartesian.std_error
        combined = math.hypot(polar.std_error, cartesian.std_error)
        assert abs(polar.value - cartesian.value) < 4 * combined

    def test_estimator_battery_polar_vs_cartesian(self, rng):
        lo, hi = 0.5, 6.0
        battery = [
            ONE,
            GroupFunction(lambda pts: np.exp(-pts.norm())),
            GroupFunction(lambda pts: np.exp(-pts.norm() ** 2 / 4.0)),
            GroupFunction(lambda pts: pts.norm() ** 2 * np.exp(-pts.norm())),
            GroupFunction(lambda pts: 1.0 / (1.0 + pts.norm() ** 2)),
        ]
        polar_sampler = PolarShellSampler(lo, hi)
        cart_sampler = LogNormalSampler(tau=1.0, sigma_r=1.5)
        for fn in battery:
            polar = integrate_mc(fn, nu_measure(), polar_sampler, 100_000, rng, mode="plain")
            cart = integrate_mc(
                annulus_indicator(fn, lo, hi), nu_measure(), cart_sampler, 300_000, rng, mode="plain"
            )
            combined = math.hypot(polar.std_error, cart.std_error)
            assert abs(polar.value - cart.value) < 4 * max(combined, 1e-12)

    def test_stderr_scales_like_clt(self):
        fn = GroupFunction(lambda pts: np.exp(-pts.norm()))
        sampler = PolarShellSampler(1e-3, 20.0)
        small = integrate_mc(fn, nu_measure(), sampler, 50_000, np.random.default_rng(1))
        large = integrate_mc(fn, nu_measure(), sampler, 200_000, np.random.default_rng(2))
        ratio = small.std_error / large.std_error
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_chunking_is_invisible(self):
        # same stream, one pass; value independent of internal chunk seams
        fn = GroupFunction(lambda pts: np.exp(-pts.norm()))
        sampler = PolarShellSampler(1e-2, 10.0)
        a = integrate_mc(fn, nu_measure(), sampler, 300_000, np.random.default_rng(3))
        b = integrate_mc(fn, nu_measure(), sampler, 300_000, np.random.default_rng(3))
        assert a.value == b.value and a.std_error == b.std_error

    def test_non_finite_detected(self, rng):
        def evaluate(pts):
            with np.errstate(divide="ignore"):
                return 1.0 / (pts.r1 - pts.r1)

        sampler = PolarShellSampler(0.1, 5.0)
        with pytest.raises(NonFinite):
            integrate_mc(GroupFunction(evaluate), nu_measure(), sampler, 1_000, rng)

    def test_minimum_sample_count(self, rng):
        # one guard in the shared batch loop serves all three engines
        sampler = PolarShellSampler()
        for n in (999, 0, -3):
            engines = [
                lambda: integrate_mc(ONE, nu_measure(), sampler, n, rng),
                lambda: divergence_probe(vacuum(), nu_measure(), LADDER, 30.0, n, rng),
                lambda: gram_matrix([random_q(rng)], OrbitLabel.PLUS_PLUS, nu_measure(), sampler, n, rng),
            ]
            for engine in engines:
                with pytest.raises(ValueError, match=f"need at least 1000 samples, got {n}"):
                    engine()


class TestBoxSampler:
    BOX = (1.4, 2.8, 0.7, 1.4, -1.0, 0.5, -0.5, 0.8)

    def test_draws_one_block(self):
        # lo + (hi - lo) u on one (n, 4) block of uniforms: the stream C04's
        # box part drew by hand before it used the sampler, bit for bit
        lo, hi = np.array(self.BOX[0::2]), np.array(self.BOX[1::2])
        pts = BoxSampler(*self.BOX).sample(1000, np.random.default_rng(4))
        u = np.random.default_rng(4).uniform(size=(1000, 4))
        expected = [lo[j] + (hi[j] - lo[j]) * u[:, j] for j in range(4)]
        assert np.array_equal(pts.r1, expected[0]) and np.array_equal(pts.r2, expected[1])
        assert np.array_equal(pts.r, expected[2] + 1j * expected[3])

    def test_membership_and_density(self, rng):
        box = BoxSampler(*self.BOX)
        inside = box.sample(1000, rng)
        assert box.contains(inside).all()
        outside = TriangularS(inside.r1 + 2.0, inside.r2, inside.r)
        assert not box.contains(outside).any()
        np.testing.assert_array_equal(box.density(inside), 1.0 / box.volume)
        np.testing.assert_array_equal(box.density(outside), 0.0)


class TestDivergenceProbe:
    def test_vacuum_is_log_divergent(self, rng):
        verdict = divergence_probe(vacuum(), nu_measure(), LADDER, 30.0, 100_000, rng)
        assert verdict.classification == "log-divergent"
        assert verdict.slope > 5 * verdict.slope_stderr
        assert verdict.r_squared > 0.99

    def test_vacuum_slope_matches_quadrature(self, rng):
        # the exact value of I(eps) is patch_mass * (E1(eps) - E1(R))
        verdict = divergence_probe(vacuum(), nu_measure(), LADDER, 30.0, 400_000, rng)
        for eps, (value, stderr) in zip(verdict.eps_ladder, verdict.estimates):
            exact = OMEGA_PATCH_MASS * (exp1(eps) - exp1(30.0))
            assert abs(value - exact) < 5 * stderr

    def test_translation_coboundary_converges(self, rng):
        q = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        fn = coboundary(q, OrbitLabel.PLUS_PLUS).as_group_function()
        verdict = divergence_probe(fn, nu_measure(), LADDER, 30.0, 100_000, rng)
        assert verdict.classification == "convergent"

    def test_synthetic_power_divergence(self, rng):
        # |F|^2 = |s|^-2 gives I(eps) ~ eps^-2 / 2; quadrature cross-check
        verdict = divergence_probe(inverse_norm(), nu_measure(), LADDER, 30.0, 400_000, rng)
        assert verdict.classification == "power-divergent"
        for eps, (value, stderr) in zip(verdict.eps_ladder, verdict.estimates):
            exact = OMEGA_PATCH_MASS * 0.5 * (eps**-2 - 30.0**-2)
            assert abs(value - exact) < 5 * max(stderr, 1e-12)

    def test_truncated_measure_converges(self, rng):
        verdict = divergence_probe(vacuum(), truncated_nu(1.0), LADDER, 30.0, 50_000, rng)
        assert verdict.classification == "convergent"

    def test_ladder_length_precondition(self, rng):
        with pytest.raises(ValueError):
            divergence_probe(vacuum(), nu_measure(), (0.1, 0.01), 30.0, 10_000, rng)


class TestSharedStream:
    def test_rung_sums_match_masked_passes(self):
        # one batch, both C06 measures: the searchsorted + bincount reduction
        # against one masked pass per rung over the same points
        n = 100_000
        eps = sorted(LADDER, reverse=True)
        measures = [nu_measure(), truncated_nu(1.0)]
        (row,) = divergence_probe([vacuum()], measures, LADDER, 30.0, n, np.random.default_rng(11))
        sampler = PolarShellSampler(eps[-1], 30.0)
        pts = sampler.sample(n, np.random.default_rng(11))
        squared = np.abs(vacuum()(pts)) ** 2
        for measure, verdict in zip(measures, row):
            contrib = squared * measure.density(pts) / sampler.density(pts)
            for cut, (value, stderr) in zip(eps, verdict.estimates):
                masked = np.where(pts.norm() >= cut, contrib, 0.0)
                mean = masked.sum() / n
                assert value == pytest.approx(mean, rel=1e-12, abs=0.0)
                expected_se = math.sqrt(max((masked**2).sum() / n - mean**2, 0.0) / n)
                assert stderr == pytest.approx(expected_se, rel=1e-12, abs=0.0)

    def test_joint_probe_equals_separate_probes_on_one_seed(self):
        # common random numbers: each (integrand, measure) verdict of a joint
        # probe is the verdict of a single probe on the same seed
        functions = [vacuum(), inverse_norm()]
        measures = [nu_measure(), truncated_nu(1.0)]
        rows = divergence_probe(functions, measures, LADDER, 30.0, 300_000, 5)
        for fn, row in zip(functions, rows):
            for measure, verdict in zip(measures, row):
                assert verdict == divergence_probe(fn, measure, LADDER, 30.0, 300_000, 5)
        assert [v.classification for v in rows[0]] == ["log-divergent", "convergent"]
        assert rows[1][0].classification == "power-divergent"

    def test_batch_norms_are_computed_once(self):
        pts = PolarShellSampler().sample(1000, np.random.default_rng(0))
        assert pts.norm() is pts.norm()


class TestBoxTranslation:
    def test_translated_mass_matches_jacobian(self, rng):
        # Lebesgue mass of the image of a unit box under right translation
        s0 = TriangularS(1.4, 0.7, 0.3 + 0.2j)
        from u22lab.claims import _box_translation_part

        part = _box_translation_part(s0, 400_000, rng)
        assert part["deviation_sigmas"] < 3.0

    def test_haar_right_invariance(self, rng):
        from u22lab.representation import translate

        bump = GroupFunction(
            lambda pts: np.exp(-np.log(pts.r1) ** 2 - np.log(pts.r2) ** 2 - np.abs(pts.r) ** 2)
        )
        sampler = LogNormalSampler(tau=1.2, sigma_r=1.2)
        s0 = TriangularS(1.3, 0.8, 0.2 + 0.1j)
        base = integrate_mc(bump, haar_measure(), sampler, 400_000, rng, mode="plain")
        moved = integrate_mc(translate(bump, s0), haar_measure(), sampler, 400_000, rng, mode="plain")
        sigma = math.hypot(base.std_error, moved.std_error)
        assert abs(base.value - moved.value) < 3 * sigma


class TestAccumulatorMerge:
    def test_partial_triples_merge_to_the_full_estimate(self, rng):
        # the estimator state is a (sum, sum of squares, count) triple, so
        # batches streamed into one accumulator give the one-batch estimate
        from u22lab.measures import MCAccumulator

        values = rng.standard_normal(9_000) + 1j * rng.standard_normal(9_000)
        whole = MCAccumulator()
        whole.add(values)
        streamed = MCAccumulator()
        for chunk in np.array_split(values, 7):
            streamed.add(chunk)
        a, b = whole.estimate(), streamed.estimate()
        assert abs(a.value - b.value) < 1e-12
        assert abs(a.std_error - b.std_error) < 1e-12
        assert a.sample_count == b.sample_count
