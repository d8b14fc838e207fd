import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import exp1, ndtri

from u22lab import measures
from u22lab.groups import InvariantViolation, TriangularS, random_s
from u22lab.matrices import U22Error
from u22lab.measures import (
    MAX_SAMPLES,
    BoxSampler,
    LogNormalSampler,
    NonFinite,
    OMEGA_PATCH_MASS,
    PolarShellSampler,
    divergence_probe,
    haar_measure,
    half_angle_cis,
    integrate_mc,
    ladder_shell,
    mc_sum,
    modulus_pi,
    nu_derivative_band,
    nu_measure,
    right_translation_jacobian_fd,
    rn_derivative_right,
    truncated_nu,
)
from u22lab.representation import (
    CocycleVector,
    GroupFunction,
    apply_T,
    coboundary,
    default_test_set,
    gram_matrix,
    inverse_norm,
    vacuum,
)
from u22lab.groups import QElement, SkewHermitian2, q_join, random_q
from u22lab.orbits import OrbitLabel
from u22lab.points import reference_points

LADDER = tuple(np.logspace(-1, -4, 7))
ONE = GroupFunction(lambda pts: np.ones(pts.size))


def stacked(functions):
    """One integrand whose values hold each function's values on a leading axis."""
    return GroupFunction(lambda pts: np.array([fn(pts) for fn in functions]))


# A block size under which a replicate of an 85_000-point pass spans three
# blocks, two whole and a ragged one
SMALL_BLOCK = 2048
# WORKERS cases against one pass on the calling thread: one contiguous run
# of blocks per worker, so each count splits a pass's blocks differently
WORKER_COUNTS = (1, 2, 3)


def uniforms(n, rng):
    """(4, n) pseudo-random uniforms on the pass's open grid (k + 1/2) 2^-52."""
    return (np.floor(np.random.default_rng(rng).random((4, n)) * 2.0**52) + 0.5) * 2.0**-52


def radical_inverse(indices, base):
    """The base-``base`` digits of each index mirrored about the radix point."""
    out, q, weight = np.zeros(indices.shape), indices.copy(), 1.0 / base
    while q.any():
        out += (q % base) * weight
        q, weight = q // base, weight / base
    return out


def engine_results():
    """One result of each engine and C04's box count on 85_000 samples."""
    from u22lab.claims import _box_translation_part

    sampler = PolarShellSampler(1e-3, 30.0)
    rng = np.random.default_rng(7)
    ps = [random_q(rng) for _ in range(3)]
    label = OrbitLabel.PLUS_PLUS
    functions = [vacuum()] + [coboundary(p, label).evaluate for p in ps[:2]]
    return (
        integrate_mc(functions[1], nu_measure, sampler, 85_000, 3),
        divergence_probe(stacked(functions), [nu_measure, truncated_nu(1e-2)], LADDER, 30.0, 85_000, 4),
        *gram_matrix(ps, label, sampler, 85_000, 5),
        _box_translation_part(TriangularS(1.4, 0.7, 0.3 + 0.2j), 85_000, np.random.default_rng(6)),
    )


def replicate_sizes(n):
    return [n // measures.REPLICATES + (j < n % measures.REPLICATES) for j in range(measures.REPLICATES)]


def block_draws(sampler, n, seed):
    """The points of a Monte-Carlo pass over n points, block by block:
    replicate j is the Halton prefix of its size in bases 2, 3, 5 and 7,
    split into BLOCK-point blocks, and block b of the pass is shifted mod 1
    by one uniform point from SeedSequence(entropy, spawn_key=(b,)), with
    the entropy drawn once from the seed's generator."""
    entropy = np.random.default_rng(seed).integers(1 << 32, size=4).tolist()
    blocks = []
    for size in replicate_sizes(n):
        for lo in range(0, size, measures.BLOCK):
            indices = np.arange(lo, min(lo + measures.BLOCK, size))
            halton = np.stack([radical_inverse(indices, base) for base in (2, 3, 5, 7)])
            shift = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(len(blocks),))).random(4)
            u = (np.floor((halton + shift[:, None]) * 2.0**52) % 2.0**52 + 0.5) * 2.0**-52
            blocks.append(sampler.sample(indices.size, u))
    return blocks


def joined(blocks):
    """One batch from a list of point batches, in order."""
    return TriangularS(*(np.concatenate(field) for field in zip(*((p.r1, p.r2, p.r) for p in blocks))))


@dataclass(frozen=True)
class HalfNormalSampler:
    """r1, r2 half-normal and Re r, Im r normal, all of one scale: a
    density bounded below on every bounded set, so a bounded integrand on an
    annulus has importance weights of finite variance.  (A lognormal
    diagonal does not: its density vanishes faster than any power as r1 or
    r2 tends to 0, where the annulus integrands below do not, so the
    variance of their weights is infinite and their standard error is no
    yardstick.)"""

    scale: float

    def sample(self, n, u):
        z = self.scale * ndtri(u)
        return TriangularS(np.abs(z[0]), np.abs(z[1]), z[2] + 1j * z[3])

    def density(self, pts):
        return 4.0 * np.exp(-0.5 * (pts.norm() / self.scale) ** 2) / (self.scale * math.sqrt(2 * math.pi)) ** 4


def pointwise(fns, pts):
    """``[fn(pts) for fn in fns]``, evaluated BLOCK-point block by block by
    the block runner."""
    spans = [(lo, min(lo + measures.BLOCK, pts.size)) for lo in range(0, pts.size, measures.BLOCK)]

    def task(i):
        view = TriangularS(*(field[slice(*spans[i])] for field in (pts.r1, pts.r2, pts.r)))
        return [fn(view) for fn in fns]

    return [np.concatenate(column) for column in zip(*measures.run_blocks(len(spans), task))]


def in_pool(fn):
    """fn on the chunks a pool thread evaluates, zeros on the caller's."""
    caller = threading.get_ident()
    return lambda pts: np.zeros(pts.size) if threading.get_ident() == caller else fn(pts)


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
            smax, smin = np.linalg.svd(s0.matrix(), compute_uv=False)
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
        assert rn_derivative_right(nu_measure, s, TriangularS.identity()) == 1.0

    def test_frozen_example(self):
        # pi(s0) = 8, |s s0|^2 = 5, |s|^2 = 2 at the identity chart point
        value = rn_derivative_right(
            nu_measure, TriangularS.identity(), TriangularS(2.0, 1.0, 0.0)
        )
        assert abs(value - 1.28) < 1e-14

    def test_haar_derivative_is_one(self, rng):
        for _ in range(100):
            s, s0 = random_s(rng), random_s(rng)
            assert abs(rn_derivative_right(haar_measure, s, s0) - 1.0) < 1e-12

    def test_nu_band(self, rng):
        for _ in range(20):
            s0 = random_s(rng)
            lo, hi = nu_derivative_band(s0)
            for _ in range(100):
                value = rn_derivative_right(nu_measure, random_s(rng), s0)
                assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("measure", [nu_measure, haar_measure], ids=["nu", "haar"])
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
    def test_shell_bounds(self):
        # the widest shell keeps the density r^-4 a normal float at both ends
        PolarShellSampler(measures.MIN_RADIUS, measures.MAX_RADIUS)
        for r_min, r_max in ((0.0, 1.0), (2.0, 1.0), (measures.DEFAULT_R_MIN, 5e-5), (math.nan, 1.0),
                             (measures.MIN_RADIUS / 10, 1.0), (1.0, measures.MAX_RADIUS * 10)):
            with pytest.raises(U22Error):
                PolarShellSampler(r_min, r_max)

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
        r, omega = polar(PolarShellSampler(0.5, 8.0).sample(1000, uniforms(1000, rng)))
        assert np.all((r >= 0.5 * (1 - 1e-14)) & (r <= 8.0 * (1 + 1e-14)))
        assert np.max(np.abs(omega.norm() - 1.0)) < 1e-14

    def test_radial_weight(self):
        # |s|^-4 times the radial volume element r^3 is r^-1
        radii = np.array([0.5, 2.0])
        pts = TriangularS(radii / math.sqrt(2.0), radii / math.sqrt(2.0), np.zeros(2, complex))
        np.testing.assert_allclose(nu_measure(pts) * pts.norm() ** 3, [2.0, 0.5], rtol=1e-14)

    def test_direction_moments(self):
        # uniform on the patch x1, x2 > 0 of the unit 3-sphere: |x1 + i x2|^2
        # is uniform and the argument of x1 + i x2 is uniform on (0, pi/2)
        n = 1 << 18
        r, omega = polar(PolarShellSampler(0.5, 8.0).sample(n, uniforms(n, 12)))
        x = np.stack([omega.r1, omega.r2, omega.r.real, omega.r.imag])
        expected = {"x1": (x[0], 4 / (3 * math.pi)), "x2": (x[1], 4 / (3 * math.pi)),
                    "x1 x2": (x[0] * x[1], 1 / (2 * math.pi)), "x3": (x[2], 0.0), "x4": (x[3], 0.0)}
        expected.update({f"x{i + 1}^2": (x[i] ** 2, 0.25) for i in range(4)})
        for name, (values, mean) in expected.items():
            assert abs(values.mean() - mean) < 5 * values.std() / math.sqrt(n), name

    def test_points_lie_in_the_shell_with_a_positive_diagonal(self):
        # the points of a pass, and those of the corners of its uniforms'
        # range: the pass puts a Halton point plus its shift, mod 1, on the
        # open grid (k + 1/2) 2^-52, so r1 > 0 and r2 > 0 hold exactly even
        # where the sum is 0 or 1 or just below 2
        lo, hi = 2.0**-53, 1.0 - 2.0**-53
        ends = measures._shifted(np.array([[0.0], [0.5], [0.25], [hi]]), np.array([0.0, 0.5, 0.75, hi]))
        assert ends.ravel().tolist() == [lo, lo, lo, hi]
        bits = (np.arange(16)[None, :] >> np.arange(4)[:, None]) & 1
        sampler = PolarShellSampler(1e-4, 30.0)
        drawn, corners = joined(block_draws(sampler, 1 << 18, 13)), sampler.sample(16, np.where(bits == 1, hi, lo))
        for pts in drawn, corners:
            assert np.all(pts.r1 > 0.0) and np.all(pts.r2 > 0.0)
        assert np.all((drawn.norm() >= 1e-4) & (drawn.norm() <= 30.0))
        # a radius of exactly r_min or about r_max, times a direction of unit norm to rounding
        tol = 4 * np.finfo(float).eps
        assert np.all((corners.norm() >= 1e-4 * (1 - tol)) & (corners.norm() <= 30.0 * (1 + tol)))


class TestHalfAngleMultiplier:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
    def test_special_angles(self, phi):
        got = half_angle_cis(math.tan(phi / 2))
        assert abs(got - complex(math.cos(phi), math.sin(phi))) <= 4 * self.EPS

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_random_angles(self, scale):
        phi = np.random.default_rng(14).uniform(-scale, scale, 100_000)
        got = half_angle_cis(np.tan(phi / 2))
        assert np.max(np.abs(got - (np.cos(phi) + 1j * np.sin(phi)))) <= 4 * self.EPS
        np.testing.assert_allclose(np.abs(got), 1.0, rtol=4 * self.EPS, atol=0)


class UniformBox(BoxSampler):
    """A box sampler that importance samples: its density is uniform on the box."""

    def density(self, pts):
        return np.where(self.contains(pts), 1.0 / self.volume, 0.0)


class TestIntegration:
    def test_constant_on_box(self, rng):
        # uniform sampler against the Lebesgue measure: the estimate is exact
        box = UniformBox((1, 1, 1, 1), (2, 2, 2, 2))
        value, std_error = integrate_mc(ONE, lambda pts: np.ones(pts.size), box, 10_000, rng, mode="plain")
        assert value == 1.0 and type(value) is float
        assert std_error == 0.0

    def test_annulus_mass_closed_form(self, rng):
        # integral of 1 against |s|^-4 ds over the annulus is log(R/eps) * patch mass
        sampler = PolarShellSampler(0.5, 8.0)
        value, _ = integrate_mc(ONE, nu_measure, sampler, 5_000, rng, mode="plain")
        assert abs(value - math.log(16.0) * OMEGA_PATCH_MASS) < 1e-12

    def test_polar_cartesian_and_quadrature_agree(self, rng):
        # three routes to the integral of exp(-|s|) against the truncated measure
        lo, hi = 0.5, 8.0
        expected = OMEGA_PATCH_MASS * (exp1(lo) - exp1(hi))
        fn = GroupFunction(lambda pts: np.exp(-pts.norm()))
        polar, polar_se = integrate_mc(
            fn, nu_measure, PolarShellSampler(lo, hi), 200_000, rng, mode="plain"
        )
        cartesian, cartesian_se = integrate_mc(
            annulus_indicator(fn, lo, hi),
            nu_measure,
            HalfNormalSampler(1.5),
            400_000,
            rng,
            mode="plain",
        )
        assert abs(polar - expected) < 4 * polar_se
        assert abs(cartesian - expected) < 4 * cartesian_se
        assert abs(polar - cartesian) < 4 * math.hypot(polar_se, cartesian_se)

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
        cart_sampler = HalfNormalSampler(1.5)
        for fn in battery:
            polar, polar_se = integrate_mc(fn, nu_measure, polar_sampler, 100_000, rng, mode="plain")
            cart, cart_se = integrate_mc(
                annulus_indicator(fn, lo, hi), nu_measure, cart_sampler, 300_000, rng, mode="plain"
            )
            assert abs(polar - cart) < 4 * max(math.hypot(polar_se, cart_se), 1e-12)

    def test_stderr_falls_at_least_as_fast_as_clt(self):
        # four times the points cut a pseudo-random error by 2; a randomly
        # shifted Halton set cuts that of this radial integrand by about 4
        fn = GroupFunction(lambda pts: np.exp(-pts.norm()))
        sampler = PolarShellSampler(1e-3, 20.0)
        _, small = integrate_mc(fn, nu_measure, sampler, 50_000, np.random.default_rng(1))
        _, large = integrate_mc(fn, nu_measure, sampler, 200_000, np.random.default_rng(2))
        assert small / large > 2.0 * 1.2

    @pytest.mark.parametrize("offset, rel", [(1e6, 1e-6), (1e8, 1e-3)])
    def test_a_constant_offset_leaves_the_error_unchanged(self, offset, rel):
        # the error is the spread of the replicate means, with no sum of
        # squares to cancel; at 1e8 a unit in the last place of a replicate
        # mean (about 7e8 here) is 1e-7, about 1 % of their spread
        sampler = PolarShellSampler(0.5, 2.0)
        _, plain = integrate_mc(GroupFunction(lambda pts: np.exp(-pts.norm())), nu_measure, sampler, 262_144, 1,
                                mode="plain")
        _, moved = integrate_mc(GroupFunction(lambda pts: offset + np.exp(-pts.norm())), nu_measure, sampler,
                                262_144, 1, mode="plain")
        assert moved == pytest.approx(plain, rel=rel, abs=0.0)

    @pytest.mark.parametrize("n", [1000, 20_000, 262_144, 262_149, 1_000_000])
    def test_every_sample_count_is_a_pass_of_n_points(self, n):
        # 16 replicates whose sizes differ by at most one, equal at a
        # multiple of 16, and a finite error on every count
        sizes = mc_sum(PolarShellSampler(), n, 1, lambda view: view.size)
        assert sizes.sum() == n and sizes.max() - sizes.min() == (n % measures.REPLICATES != 0)
        _, std_error = integrate_mc(vacuum(), nu_measure, PolarShellSampler(), n, 1)
        assert 0.0 < std_error < math.inf

    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch):
        # block b of a pass takes its shift from its own stream and the
        # block rows of a replicate are added in block order: every engine
        # and the box count give the same bits at any worker count (85_000
        # points in replicates of 5312 or 5313, three blocks each: 48 blocks,
        # in runs of 48, 24 or 16 per worker)
        monkeypatch.setattr(measures, "BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(measures, "WORKERS", 1)
        reference = engine_results()
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(measures, "WORKERS", workers)
            estimate, verdicts, gram, stderr, box = engine_results()
            assert estimate == reference[0], workers
            assert verdicts == reference[1], workers
            assert np.array_equal(gram, reference[2]) and np.array_equal(stderr, reference[3])
            assert box == reference[4], workers

    def test_non_finite_detected(self, rng):
        def evaluate(pts):
            with np.errstate(divide="ignore"):
                return 1.0 / (pts.r1 - pts.r1)

        sampler = PolarShellSampler(0.1, 5.0)
        with pytest.raises(NonFinite):
            integrate_mc(GroupFunction(evaluate), nu_measure, sampler, 1_000, rng)

    def test_minimum_sample_count(self, rng):
        # one guard in the one Monte-Carlo pass serves all three engines
        sampler = PolarShellSampler()
        for n in (999, 0, -3):
            engines = [
                lambda: integrate_mc(ONE, nu_measure, sampler, n, rng),
                lambda: divergence_probe(vacuum(), [nu_measure], LADDER, 30.0, n, rng),
                lambda: gram_matrix([random_q(rng)], OrbitLabel.PLUS_PLUS, sampler, n, rng),
            ]
            for engine in engines:
                with pytest.raises(ValueError, match=f"need at least 1000 samples, got {n}"):
                    engine()

    def test_maximum_sample_count(self, rng):
        # the same guard bounds the Halton table of a pass: 2^28 points take
        # 512 MiB, and one point more is rejected before anything is drawn
        sampler = PolarShellSampler()
        for n in (MAX_SAMPLES + 1, 10**11):
            engines = [
                lambda: integrate_mc(ONE, nu_measure, sampler, n, rng),
                lambda: divergence_probe(vacuum(), [nu_measure], LADDER, 30.0, n, rng),
                lambda: gram_matrix([random_q(rng)], OrbitLabel.PLUS_PLUS, sampler, n, rng),
            ]
            for engine in engines:
                with pytest.raises(U22Error, match=f"need at most {MAX_SAMPLES} samples \\(2\\^28\\), got {n}"):
                    engine()


class TestBoxSampler:
    BOX = (1.4, 0.7, -1.0, -0.5), (2.8, 1.4, 0.5, 0.8)

    def test_draws_one_block(self):
        # lo + (hi - lo) u per coordinate on one (4, n) block of uniforms,
        # bit for bit
        lo, hi = map(np.array, self.BOX)
        u = uniforms(1000, 4)
        pts = BoxSampler(*self.BOX).sample(1000, u)
        expected = [lo[j] + (hi[j] - lo[j]) * u[j] for j in range(4)]
        assert np.array_equal(pts.r1, expected[0]) and np.array_equal(pts.r2, expected[1])
        assert np.array_equal(pts.r, expected[2] + 1j * expected[3])

    def test_membership(self, rng):
        box = BoxSampler(*self.BOX)
        inside = box.sample(1000, uniforms(1000, rng))
        assert box.contains(inside).all()
        outside = TriangularS(inside.r1 + 2.0, inside.r2, inside.r)
        assert not box.contains(outside).any()


_SHELL = "need 1e-77 <= r_min < r_max <= 1e+76"

# (ladder, r_max, start of the message): ladders and shells that
# ladder_shell refuses, each by the owner of the bound
REFUSED_LADDERS = {
    "repeated-rung": ((0.1, 0.1, 0.01, 0.001, 0.0001), 30.0, "eps ladder needs at least 5 distinct rungs, got 4"),
    "nan-rung": ((0.1, 0.01, 0.001, 0.0001, math.nan), 30.0, "eps ladder entries must be positive and finite"),
    "rung-below-shell": ((0.1, 0.01, 0.001, 0.0001, 1e-300), 30.0, _SHELL),
    "r-max-above-shell": (LADDER, 1e100, _SHELL),
    "r-max-overflow": (LADDER, float("1e400"), "r_max must be finite and exceed the ladder"),
}


class TestDivergenceProbe:
    def test_vacuum_is_log_divergent(self, rng):
        verdict = divergence_probe(vacuum(), [nu_measure], LADDER, 30.0, 100_000, rng)[0][0]
        assert verdict.classification == "log-divergent"
        assert verdict.slope > 5 * verdict.slope_stderr
        assert verdict.r_squared > 0.99

    def test_vacuum_slope_matches_quadrature(self, rng):
        # the exact value of I(eps) is patch_mass * (E1(eps) - E1(R))
        verdict = divergence_probe(vacuum(), [nu_measure], LADDER, 30.0, 400_000, rng)[0][0]
        for eps, (value, stderr) in zip(verdict.eps_ladder, verdict.estimates):
            exact = OMEGA_PATCH_MASS * (exp1(eps) - exp1(30.0))
            assert abs(value - exact) < 5 * stderr

    def test_translation_coboundary_converges(self, rng):
        q = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        fn = coboundary(q, OrbitLabel.PLUS_PLUS).evaluate
        verdict = divergence_probe(fn, [nu_measure], LADDER, 30.0, 100_000, rng)[0][0]
        assert verdict.classification == "convergent"

    def test_synthetic_power_divergence(self, rng):
        # |F|^2 = |s|^-2 gives I(eps) ~ eps^-2 / 2; quadrature cross-check
        verdict = divergence_probe(inverse_norm(), [nu_measure], LADDER, 30.0, 400_000, rng)[0][0]
        assert verdict.classification == "power-divergent"
        for eps, (value, stderr) in zip(verdict.eps_ladder, verdict.estimates):
            exact = OMEGA_PATCH_MASS * 0.5 * (eps**-2 - 30.0**-2)
            assert abs(value - exact) < 5 * max(stderr, 1e-12)

    def test_truncated_measure_converges(self, rng):
        verdict = divergence_probe(vacuum(), [truncated_nu(1.0)], LADDER, 30.0, 50_000, rng)[0][0]
        assert verdict.classification == "convergent"

    def test_ladder_length_precondition(self, rng):
        with pytest.raises(ValueError):
            divergence_probe(vacuum(), [nu_measure], (0.1, 0.01), 30.0, 10_000, rng)

    @pytest.mark.parametrize("ladder, r_max, message", REFUSED_LADDERS.values(), ids=REFUSED_LADDERS)
    def test_a_bad_ladder_or_shell_is_refused_before_any_draw(self, ladder, r_max, message):
        # ladder_shell is the one check of a probe ladder and its shell; the
        # probe asks it before it draws, so no warning comes first
        with pytest.raises(U22Error, match=f"^{re.escape(message)}"):
            ladder_shell(ladder, r_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(U22Error, match=f"^{re.escape(message)}"):
                divergence_probe(vacuum(), [nu_measure], ladder, r_max, 20_000, 0)

    def test_ladder_shell_takes_a_numpy_float_and_an_integer_rung(self):
        eps, sampler = ladder_shell((1, 0.1, 0.01, 0.001, 0.0001), np.float64(25.0))
        assert eps.tolist() == [1.0, 0.1, 0.01, 0.001, 0.0001]
        assert (sampler.r_min, sampler.r_max) == (0.0001, 25.0)


class TestSharedStream:
    def test_rung_sums_match_masked_passes(self):
        # one pass, both C06 measures: the shell count + bincount reduction
        # against one masked pass per rung over the same points
        n = 100_000
        eps = sorted(LADDER, reverse=True)
        measures = [nu_measure, truncated_nu(1.0)]
        (row,) = divergence_probe(vacuum(), measures, LADDER, 30.0, n, np.random.default_rng(11))
        sampler = PolarShellSampler(eps[-1], 30.0)
        pts = joined(block_draws(sampler, n, 11))
        squared = np.abs(vacuum()(pts)) ** 2
        for measure, verdict in zip(measures, row):
            contrib = squared * measure(pts) / sampler.density(pts)
            for cut, (value, stderr) in zip(eps, verdict.estimates):
                masked = np.where(pts.norm() >= cut, contrib, 0.0)
                assert value == pytest.approx(masked.sum() / n, rel=1e-12, abs=0.0)
                # the spread of the replicate means, each of the pass's points
                # in its replicate; a sum in another order moves a mean by
                # about 1e-16 of itself, which the spread, near 1e-5 of it,
                # magnifies
                means = [part.mean() for part in np.split(masked, np.cumsum(replicate_sizes(n))[:-1])]
                expected_se = np.std(means, ddof=1) / math.sqrt(len(means))
                assert stderr == pytest.approx(expected_se, rel=1e-8, abs=0.0)

    def test_joint_probe_equals_separate_probes_on_one_seed(self):
        # common random numbers: each (integrand, measure) verdict of a joint
        # probe is the verdict of a single probe on the same seed
        functions = [vacuum(), inverse_norm()]
        measures = [nu_measure, truncated_nu(1.0)]
        rows = divergence_probe(stacked(functions), measures, LADDER, 30.0, 300_000, 5)
        assert len(rows) == len(functions)
        for fn, row in zip(functions, rows):
            for measure, verdict in zip(measures, row):
                assert ((verdict,),) == divergence_probe(fn, [measure], LADDER, 30.0, 300_000, 5)
        assert [v.classification for v in rows[0]] == ["log-divergent", "convergent"]
        assert rows[1][0].classification == "power-divergent"

    def test_rows_integrand_equals_one_probe_per_row(self):
        # CocycleVector.rows as the integrand: one row of verdicts per term,
        # each that of the term's own coboundary probed alone on the seed
        label = OrbitLabel.PLUS_PLUS
        test_set = default_test_set()
        vector = CocycleVector(label, np.ones(len(test_set)), q_join(np.stack, test_set))
        measures = [nu_measure, truncated_nu(1.0)]
        rows = divergence_probe(vector.rows, measures, LADDER, 30.0, 100_000, 5)
        assert len(rows) == vector.coefficients.size
        for q, row in zip(test_set, rows):
            alone = coboundary(q, label).evaluate
            assert (row,) == divergence_probe(alone, measures, LADDER, 30.0, 100_000, 5)
        assert {v.classification for row in rows for v in row} == {"convergent"}

    def test_batch_norms_are_computed_once(self):
        pts = PolarShellSampler().sample(1000, uniforms(1000, 0))
        assert pts.norm() is pts.norm()


class TestPointwise:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(measures, "WORKERS", 2)
        monkeypatch.setattr(measures, "BLOCK", 1000)

    def test_values_are_those_of_one_call(self, rng):
        pts = PolarShellSampler().sample(4500, uniforms(4500, rng))
        fns = [vacuum(), nu_measure, lambda view: view.r1 > 1.0]
        expected = [fn(TriangularS(pts.r1, pts.r2, pts.r)) for fn in fns]
        for got, want in zip(pointwise(fns, pts), expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_more_workers_than_cores_with_fast_switching(self, rng, monkeypatch):
        # four workers on a fresh pool of three threads, switching every
        # microsecond: each slice of every output is written once, by its
        # run, and a pass's shared point arrays give the bits of one worker
        sampler = PolarShellSampler()
        monkeypatch.setattr(measures, "WORKERS", 1)
        estimate = integrate_mc(vacuum(), nu_measure, sampler, 20_000, 9)
        monkeypatch.setattr(measures, "WORKERS", 4)
        measures._executor.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pts = sampler.sample(20_000, uniforms(20_000, rng))
            fns = [vacuum(), nu_measure]
            expected = [fn(TriangularS(pts.r1, pts.r2, pts.r)) for fn in fns]
            for _ in range(5):
                got = pointwise(fns, TriangularS(pts.r1, pts.r2, pts.r))
                assert all(np.array_equal(g, e) for g, e in zip(got, expected))
                assert integrate_mc(vacuum(), nu_measure, sampler, 20_000, 9) == estimate
        finally:
            sys.setswitchinterval(interval)
            measures._executor.cache_clear()

    def test_workers_see_the_callers_errstate(self, rng):
        pts = PolarShellSampler().sample(4000, uniforms(4000, rng))
        log_zero = in_pool(lambda view: np.log(np.zeros(view.size)))
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            pointwise([log_zero], pts)

    @pytest.mark.parametrize("error", [InvariantViolation, NonFinite])
    def test_worker_errors_reach_the_caller(self, rng, error, monkeypatch):
        def fail(view):
            raise error("raised in a worker")

        sampler = PolarShellSampler()
        with pytest.raises(error, match="raised in a worker"):
            pointwise([in_pool(fail)], sampler.sample(4000, uniforms(4000, rng)))
        with pytest.raises(error, match="raised in a worker"):
            integrate_mc(GroupFunction(in_pool(fail)), nu_measure, sampler, 4000, rng)
        with pytest.raises(error, match="raised in a worker"):
            divergence_probe(GroupFunction(in_pool(fail)), [nu_measure], LADDER, 30.0, 4000, rng)
        p, failing = random_q(rng), in_pool(fail)
        monkeypatch.setattr(CocycleVector, "rows", lambda self, pts: failing(pts)[None] + 0j)
        with pytest.raises(error, match="raised in a worker"):
            gram_matrix([p], OrbitLabel.PLUS_PLUS, sampler, 4000, rng)

    def test_each_block_draws_from_its_own_stream(self):
        # the pass evaluates exactly the blocks the sampler maps from the
        # shifted Halton points, bit for bit, whichever worker draws them
        n = 40_000  # replicates of 2500 points: two whole blocks and a ragged one
        box = TestBoxSampler.BOX
        for sampler in PolarShellSampler(1e-3, 30.0), LogNormalSampler(), BoxSampler(*box):
            seen = []
            mc_sum(sampler, n, 3, lambda pts: seen.append(np.stack([pts.r1, pts.r2, pts.r.real, pts.r.imag])) or 0)
            expected = [np.stack([p.r1, p.r2, p.r.real, p.r.imag]) for p in block_draws(sampler, n, 3)]
            assert sorted(a.tobytes() for a in seen) == sorted(a.tobytes() for a in expected), sampler

    def test_samples_are_drawn_on_every_worker(self, monkeypatch):
        threads = []
        sample = PolarShellSampler.sample

        def recording(self, n, u):
            threads.append(threading.get_ident())
            return sample(self, n, u)

        monkeypatch.setattr(PolarShellSampler, "sample", recording)
        integrate_mc(ONE, nu_measure, PolarShellSampler(), 4000, 1)
        assert len(threads) == measures.REPLICATES and len(set(threads)) == 2 and threading.get_ident() in threads


def test_one_batch_peaks_within_its_draws_and_points(monkeypatch):
    # one 2^18-point pass holds, per worker, one block's draws and
    # temporaries (about 5.5 MiB at most), and no array of the whole pass;
    # measured at two workers: 8.5-11.3 MiB, against 16.5-19.3 MiB while
    # the caller copied every block into 8 MiB of point arrays.  The bound
    # leaves 2.7 MiB of margin, and also holds a first pass of the process,
    # which frees one untouched 8 MiB array before it draws anything.
    import tracemalloc

    monkeypatch.setattr(measures, "WORKERS", 2)
    label = OrbitLabel.PLUS_PLUS
    sampler = PolarShellSampler(1e-4, 30.0)
    rng = np.random.default_rng(1)
    ps = [random_q(rng) for _ in range(6)]
    functions = [vacuum()] + [coboundary(q, label).evaluate for q in default_test_set()]
    n = 1 << 18
    engines = {
        "gram_matrix": lambda: gram_matrix(ps, label, sampler, n, 1),
        "divergence_probe": lambda: divergence_probe(stacked(functions), [nu_measure, truncated_nu(1.0)],
                                                     LADDER, 30.0, n, 2),
        "integrate_mc": lambda: integrate_mc(functions[1], nu_measure, sampler, n, 3),
    }
    for name, engine in engines.items():
        tracemalloc.start()
        try:
            engine()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 << 20, (name, peak / 2**20)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap threshold")
@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_claims_run_without_page_faults(monkeypatch, workers):
    # the first pass of the process frees one untouched 8 MiB array, which
    # raises glibc's mmap threshold above the tasks' multi-MB temporaries,
    # so later passes reuse them from the heap.  Measured per default-config
    # run after one unmeasured run, at one and at two workers: 0-2 minor
    # faults for each of C04, C06 and C09.  Point arrays allocated per pass
    # took 2,048 faults each time (C04 5.2k, C06 2.6k, C09 3.4k per run);
    # without the 8 MiB array, a C04 run here took 0.7k-17k, depending on
    # what earlier tests had freed.
    import resource

    from u22lab.claims import SuiteConfig, run_claims

    monkeypatch.setattr(measures, "WORKERS", workers)
    config = SuiteConfig()
    claim_ids = ["C04", "C06", "C09"]
    run_claims(config, claim_ids)
    for claim_id in claim_ids:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_claims(config, [claim_id])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 200, (claim_id, faults)


ALGEBRA_FAULTS = """
import json, resource
from u22lab.claims import SuiteConfig, run_claims

config, claim_ids, faults = SuiteConfig(), ["C01", "C02", "C05"], {}
run_claims(config, claim_ids)
for claim_id in claim_ids:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_claims(config, [claim_id])
    faults[claim_id] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap threshold")
def test_algebra_claims_run_without_page_faults():
    # run_claims warms the heap before its first claim, so claims that make
    # no Monte-Carlo pass reuse their temporaries too.  A fresh process, as
    # this one has long been warmed: measured per default-config run after
    # one unmeasured run, C01, C02 and C05 took 0, 0 and 3 minor faults;
    # warmed by the first pass only, they took 399, 218 and 2,848 every run.
    src = os.path.dirname(os.path.dirname(os.path.abspath(measures.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ALGEBRA_FAULTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert all(count < 200 for count in faults.values()), faults


class TestBoxTranslation:
    def test_translated_mass_matches_jacobian(self, rng):
        # Lebesgue mass of the image of a unit box under right translation
        s0 = TriangularS(1.4, 0.7, 0.3 + 0.2j)
        from u22lab.claims import _box_translation_part

        part = _box_translation_part(s0, 400_000, rng)
        assert part["deviation_sigmas"] < 3.0

    def test_box_sigma_is_calibrated_over_seeds(self):
        # the box gate is Student's t with 15 degrees of freedom: 0.90 % of
        # seeds lie beyond 3 sigmas, 0.54 of 60
        from u22lab.claims import _box_translation_part

        s0 = TriangularS(1.4, 0.7, 0.3 + 0.2j)
        parts = [_box_translation_part(s0, 16 * measures.BLOCK, np.random.default_rng(seed)) for seed in range(60)]
        assert all(part["expected"] == modulus_pi(s0) for part in parts)
        assert sum(abs(part["mass"] - part["expected"]) > 3 * part["sigma"] for part in parts) <= 3

    def test_box_part_does_not_depend_on_the_worker_count(self, monkeypatch):
        # the same block streams and an exact count: bit for bit (30_000
        # points in 16 one-block replicates, in runs of 16, 8 or 5 and 6)
        from u22lab import claims

        s0 = TriangularS(1.4, 0.7, 0.3 + 0.2j)
        monkeypatch.setattr(measures, "WORKERS", 1)
        alone = claims._box_translation_part(s0, 30_000, np.random.default_rng(8))
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(measures, "WORKERS", workers)
            assert claims._box_translation_part(s0, 30_000, np.random.default_rng(8)) == alone, workers

    def test_haar_right_invariance(self, rng):
        bump = GroupFunction(
            lambda pts: np.exp(-np.log(pts.r1) ** 2 - np.log(pts.r2) ** 2 - np.abs(pts.r) ** 2)
        )
        sampler = LogNormalSampler()
        shift = QElement(TriangularS(1.3, 0.8, 0.2 + 0.1j), SkewHermitian2.zero())
        base, base_se = integrate_mc(bump, haar_measure, sampler, 400_000, rng, mode="plain")
        moved, moved_se = integrate_mc(apply_T(shift, OrbitLabel.PLUS_PLUS, bump), haar_measure, sampler, 400_000,
                                       rng, mode="plain")
        assert abs(base - moved) < 3 * math.hypot(base_se, moved_se)


class TestAccumulatorMerge:
    def test_replicate_sums_give_the_mean_and_its_spread(self, rng):
        # the estimator state is one sum per replicate, so block rows added
        # per replicate give the mean over all points and the spread of the
        # replicate means over sqrt(16)
        from u22lab.measures import mc_estimate

        n = 9_005
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        parts = np.split(values, np.cumsum(replicate_sizes(n))[:-1])
        mean, error = mc_estimate([sum(np.sum(c) for c in np.array_split(part, 3)) for part in parts], n)
        assert abs(mean - values.mean()) < 1e-12
        means = np.array([part.mean() for part in parts])
        assert abs(error - math.sqrt(np.sum(np.abs(means - means.mean()) ** 2) / 15 / 16)) < 1e-12

    def test_the_formula_works_on_arrays(self, rng):
        # gram_matrix estimates every entry at once; a sum over the leading
        # axis of a 2-D array adds in another order than one over a column
        from u22lab.measures import mc_estimate

        sums = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        means, errors = mc_estimate(sums, 5_000)
        for column, mean, error in zip(sums.T, means, errors):
            np.testing.assert_allclose((mean, error), mc_estimate(column, 5_000), rtol=4 * np.finfo(float).eps, atol=0)


def ndtri_reference_points(n, r_min=1e-3, r_max=10.0):
    """reference_points with SciPy's normal quantile: the oracle for its
    stdlib quantile."""
    indices = np.arange(1, n + 1)
    u = np.zeros((n, 4))
    for column, base in enumerate((2, 3, 5, 7)):
        q, weight = indices.copy(), 1.0 / base
        while q.any():
            u[:, column] += (q % base) * weight
            q, weight = q // base, weight / base
    x = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    x[:, :2] = np.abs(x[:, :2]) + 1e-9
    x /= np.linalg.norm(x, axis=1)[:, None]
    return np.logspace(np.log10(r_min), np.log10(r_max), n)[:, None] * x


@pytest.mark.parametrize("n", [1, 100, 1000])
def test_reference_points_against_scipy_ndtri(n):
    pts = reference_points(n)
    got = np.stack([pts.r1, pts.r2, pts.r.real, pts.r.imag], axis=1)
    want = ndtri_reference_points(n)
    relative = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.max(relative) <= 4 * np.finfo(float).eps
