import math
import warnings

import numpy as np
import pytest
from scipy.special import sici

from u22lab import cli, claims
from u22lab.rank1 import (
    _CUTOFFS,
    _gk15,
    QuadratureFailed,
    almost_invariant_check,
    gauss_kronrod,
    gaussian_bump,
    left_indicator,
)


class TestAlmostInvariantCheck:
    def test_indicator_witness_passes_all_conditions(self):
        report = almost_invariant_check(left_indicator(0.0), 0.0, a=0.75, b=2.0)
        assert report.all_hold
        assert report.support.holds
        assert report.not_square_integrable.holds
        assert report.character_difference.holds
        assert report.shift_difference.holds

    def test_shift_difference_value_is_shift_size(self):
        # for the indicator the difference is the indicator of a length-|a| interval
        for a in (0.3, 1.5, -0.8):
            report = almost_invariant_check(left_indicator(0.0), 0.0, a=a, b=1.0)
            assert abs(report.shift_difference.value - abs(a)) < 1e-6 * abs(a)

    def test_character_difference_against_cosine_integral(self):
        # integral of 4 sin^2(b u / 2) / u over (0, 1] = 2 (gamma + log b - Ci(b))
        b = 2.0
        report = almost_invariant_check(left_indicator(0.0), 0.0, a=0.5, b=b)
        _, ci_b = sici(b)
        expected = 2.0 * (np.euler_gamma + math.log(b) - ci_b)
        assert abs(report.character_difference.value - expected) < 1e-6 * expected

    def test_zero_character_parameter(self):
        report = almost_invariant_check(left_indicator(0.0), 0.0, a=0.5, b=0.0)
        assert report.character_difference.holds
        assert report.character_difference.value == 0.0

    def test_gaussian_control_fails_norm_condition(self):
        report = almost_invariant_check(gaussian_bump(), 0.0, a=0.5, b=2.0)
        assert report.not_square_integrable.holds is False
        assert not report.all_hold

    def test_gaussian_control_fails_support(self):
        report = almost_invariant_check(gaussian_bump(), 0.0, a=0.5, b=2.0)
        assert report.support.holds is False

    def test_nonzero_cutoff(self):
        report = almost_invariant_check(left_indicator(1.5), 1.5, a=0.4, b=1.0)
        assert report.all_hold


class CountingIntegrand:
    """Wraps an integrand, counting its calls and the points it was asked for."""

    def __init__(self, f):
        self.f, self.calls, self.points = f, 0, 0

    def __call__(self, u):
        self.calls += 1
        self.points += u.size
        return self.f(u)


def ladder_densities(fn, a, b):
    """C11's three densities and their upper limits, as almost_invariant_check builds them."""

    def f_of_u(u):
        return fn(np.log(u))

    return [
        (lambda u: np.abs(f_of_u(u)) ** 2 / u, 1.0),
        (lambda u: 4.0 * np.sin(b * u / 2.0) ** 2 * np.abs(f_of_u(u)) ** 2 / u, 1.0),
        (lambda u: np.abs(fn(np.log(u)) - fn(np.log(u) + a)) ** 2 / u, math.exp(abs(a))),
    ]


class TestGaussKronrod:
    @pytest.mark.parametrize("degree", range(23))
    def test_polynomials_up_to_degree_22_on_one_interval(self, degree):
        # K15 is exact to degree 22 and G7 to degree 13: below 14 the two
        # agree and the rule stops after its first pass
        lo, hi = -0.3, 1.7
        exact = ((hi - 0.2) ** (degree + 1) - (lo - 0.2) ** (degree + 1)) / (degree + 1)
        (value,), _ = _gk15(lambda u: (u - 0.2) ** degree, np.array([lo]), np.array([hi]))
        assert abs(value - exact) <= 1e-14 * max(1.0, abs(exact))
        f = CountingIntegrand(lambda u: (u - 0.2) ** degree)
        (value,), _ = gauss_kronrod(f, lo, hi)
        assert abs(value - exact) <= 1e-14 * max(1.0, abs(exact))
        assert (f.calls == 1) == (degree <= 13)

    def test_indicator_jump(self):
        # condition (iv)'s difference for the indicator: 1 on [e^-a, 1), over a ladder piece
        a = 0.75
        value, err = gauss_kronrod(lambda u: ((u >= math.exp(-a)) & (u < 1.0)) / u, math.exp(-5.0), math.exp(a))
        assert abs(value[0] - a) <= 1e-9 * a
        assert err[0] <= 1e-9 * a

    def test_inverse_square_root_at_zero(self):
        value, err = gauss_kronrod(lambda u: 1.0 / np.sqrt(u), 0.0, 1.0)
        assert abs(value[0] - 2.0) <= 2e-9 and err[0] <= 2e-9

    def test_inverse_over_eighty_e_folds(self):
        value, err = gauss_kronrod(lambda u: 1.0 / u, math.exp(-160.0), math.exp(-80.0))
        assert abs(value[0] - 80.0) <= 80e-9 and err[0] <= 80e-9

    def test_pieces_are_independent(self):
        # one call over several pieces gives each piece what a call of its own gives
        lo, hi = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 4.0])
        together, together_err = gauss_kronrod(lambda u: np.exp(-u) / np.sqrt(u), lo, hi)
        for i in range(3):
            alone, alone_err = gauss_kronrod(lambda u: np.exp(-u) / np.sqrt(u), lo[i], hi[i])
            assert together[i] == pytest.approx(alone[0], rel=1e-9)

    @pytest.mark.parametrize("fn", [left_indicator(0.0), gaussian_bump()], ids=["indicator", "gaussian"])
    def test_ladder_pieces_match_quadpack(self, fn):
        # QUADPACK is only an oracle here; both meet max(1e-12, 1e-9 |value|)
        # per piece, so the pieces agree to that
        from scipy import integrate

        for density, upper in ladder_densities(fn, 0.75, 2.0):
            edges = [upper] + [math.exp(-cut) * min(upper, 1.0) for cut in _CUTOFFS]
            values, errors = gauss_kronrod(density, edges[1:], edges[:-1])
            for i, value in enumerate(values):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", integrate.IntegrationWarning)
                    expected, _ = integrate.quad(
                        lambda u: float(density(np.array(u))), edges[i + 1], edges[i],
                        epsabs=1e-12, epsrel=1e-9, limit=400,
                    )
                assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)
                assert errors[i] <= max(1e-12, 1e-9 * abs(value))

    def test_non_integrable_pole_runs_out_of_budget(self):
        f = CountingIntegrand(lambda u: 1.0 / (u - 1.0 / 3.0) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailed, match="400 subintervals"):
                gauss_kronrod(f, 0.0, 1.0)
        assert f.points <= 2 * 400 * 15

    def test_pole_on_a_node_is_not_finite(self):
        # the midpoint 1/2 is the first node: 1/(u - 1/2)^2 is inf there
        def pole(u):
            with np.errstate(divide="ignore"):
                return 1.0 / (u - 0.5) ** 2

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailed, match="not finite"):
                gauss_kronrod(pole, 0.0, 1.0)

    def test_cli_maps_quadrature_failure_to_exit_2(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise QuadratureFailed("no convergence within 400 subintervals per piece")

        monkeypatch.setattr(claims, "almost_invariant_check", failing)
        assert cli.main(["verify", "--claims", "C11"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no convergence") and "Traceback" not in err


class TestQuadratureErrorEstimates:
    def test_reports_carry_their_summed_error(self):
        report = almost_invariant_check(left_indicator(0.0), 0.0, a=0.75, b=2.0)
        assert report.support.abserr is None
        for cond in (report.not_square_integrable, report.character_difference, report.shift_difference):
            # six pieces, each within max(1e-12, 1e-9 |piece|)
            assert 0.0 < cond.abserr <= 6 * max(1e-12, 1e-9 * abs(cond.value))

    def test_reports_are_deterministic(self):
        first = almost_invariant_check(left_indicator(0.0), 0.0, a=0.75, b=2.0)
        second = almost_invariant_check(left_indicator(0.0), 0.0, a=0.75, b=2.0)
        assert first == second

    def test_c11_expected_value_against_scipy_sici(self):
        # C11 sums Cin(2)'s power series; SciPy's Ci(2) is the oracle
        (record,) = claims.run_claims(claims.SuiteConfig(), ["C11"])
        expected = 2.0 * (np.euler_gamma + math.log(2.0) - sici(2.0)[1])
        assert abs(record.detail["char_expected"] - expected) <= 2 * math.ulp(expected)

    def test_c11_detail_has_the_error_estimates(self):
        (record,) = claims.run_claims(claims.SuiteConfig(), ["C11"])
        assert record.verdict == "pass"
        assert 0.0 < record.detail["char_abserr"] <= 6e-9 * record.detail["char_value"]
        assert 0.0 < record.detail["shift_abserr"] <= 6e-9 * record.detail["shift_value"]
