"""Rank-1 baseline: the line model with fully checkable almost-invariance.

The affine transformation x -> exp(beta) x + a acts on functions over the
line by (U F)(z) = exp(i a e^z) F(z + beta).  A witness f must vanish to the
right of some t, fail to be square integrable, and have square-integrable
character and shift differences.  All four conditions reduce to 1-d
integrals over (-inf, t]; after u = e^z they become finite-interval
problems with at worst an endpoint singularity at u = 0.

Each integral is split at a ladder of cutoffs, and all six pieces go
through one vectorized adaptive Gauss-Kronrod rule (G7-K15 with QUADPACK's
QK15 error estimate) in a single call.  Each piece must reach its summed
error estimate max(1e-12, 1e-9 |value|) within 400 subintervals; when one
cannot, or the integrand is not finite at a node, the rule raises
``QuadratureFailed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matrices import U22Error

__all__ = [
    "left_indicator",
    "gaussian_bump",
    "ConditionReport",
    "AlmostInvariantReport",
    "QuadratureFailed",
    "gauss_kronrod",
    "almost_invariant_check",
]

# Cutoff ladder (in z) used for the divergence assessment of condition (ii).
_CUTOFFS = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
_CONV_REL = 1e-6


def left_indicator(t: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    return lambda z: (z < t).astype(complex)


def gaussian_bump() -> Callable[[np.ndarray], np.ndarray]:
    return lambda z: np.exp(-(z**2)).astype(complex)


@dataclass(frozen=True)
class ConditionReport:
    name: str
    holds: bool | None  # None = inconclusive
    value: float | None
    detail: str
    abserr: float | None = None  # summed quadrature error estimate of the integral


@dataclass(frozen=True)
class AlmostInvariantReport:
    support: ConditionReport
    not_square_integrable: ConditionReport
    character_difference: ConditionReport
    shift_difference: ConditionReport

    def conditions(self) -> tuple[ConditionReport, ...]:
        return (
            self.support,
            self.not_square_integrable,
            self.character_difference,
            self.shift_difference,
        )

    @property
    def all_hold(self) -> bool:
        return all(c.holds is True for c in self.conditions())


class QuadratureFailed(U22Error):
    """The adaptive rule met a non-finite integrand value or ran out of subintervals."""


# QUADPACK's QK15 (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner 1983): the Kronrod
# nodes in [0, 1) from the end inward and their weights; G7 uses every other node.
_XK = [0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0]
_WK = [0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782]
_WG = [0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0,
       0.4179591836734694]
# mirrored onto [-1, 1]: the 15 nodes, and the Kronrod and Gauss weights as two columns
_NODES = np.array([-x for x in _XK] + _XK[-2::-1])
_WEIGHTS = np.array([w + w[-2::-1] for w in (_WK, _WG)]).T
_ROUNDOFF = 50.0 * np.finfo(float).eps
# per piece: the error target max(_EPSABS, _EPSREL |value|) and the subinterval budget
_EPSABS, _EPSREL, _LIMIT = 1e-12, 1e-9, 400


def _gk15(f, lo, hi):
    """QK15 on each interval [lo_i, hi_i]: the Kronrod values and QUADPACK's error estimates."""
    half = 0.5 * (hi - lo)
    fx = f(0.5 * (lo + hi)[:, None] + half[:, None] * _NODES)
    if not np.isfinite(fx).all():
        raise QuadratureFailed("the integrand is not finite at a quadrature node")
    kronrod, gauss = (fx @ _WEIGHTS).T
    err = np.abs(kronrod - gauss) * half
    resasc = np.abs(fx - 0.5 * kronrod[:, None]) @ _WEIGHTS[:, 0] * half
    # resasc min(1, (200 |K - G| / resasc)^1.5), and at least 50 eps resabs
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0)
    err = np.where(resasc > 0, resasc * np.minimum(1.0, ratio**1.5), err)
    return kronrod * half, np.maximum(err, _ROUNDOFF * (np.abs(fx) @ _WEIGHTS[:, 0]) * half)


def gauss_kronrod(f, lo, hi):
    """Integrate ``f`` over every piece [lo_i, hi_i] (lo_i < hi_i) in one call.

    ``f`` maps an array of points to real values of the same shape.  Each
    pass evaluates it once, on the 15 nodes of every new interval; in each
    piece whose summed error estimate exceeds max(1e-12, 1e-9 |value|) it
    bisects the intervals over an equal share of that tolerance.  Returns
    the values and summed error estimates of the pieces; a piece that would
    need more than 400 intervals raises ``QuadratureFailed``.
    """
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float))
    pieces, piece = lo.size, np.arange(lo.size)
    value, err = _gk15(f, lo, hi)
    while True:
        total, total_err = np.bincount(piece, value, pieces), np.bincount(piece, err, pieces)
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        if (total_err <= tol).all():
            return total, total_err
        count = np.bincount(piece, minlength=pieces)
        # negated comparisons: a NaN tolerance splits everything and meets the limit
        split = ~(total_err <= tol)[piece] & ~(err <= (tol / count)[piece])
        if (count + np.bincount(piece[split], minlength=pieces) > _LIMIT).any():
            raise QuadratureFailed(f"no convergence within {_LIMIT} subintervals per piece")
        keep, mid = ~split, 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_value, new_err = _gk15(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        piece = np.concatenate([piece[keep], piece[split], piece[split]])
        value, err = np.concatenate([value[keep], new_value]), np.concatenate([err[keep], new_err])


def _tail_integral(density_u, upper_u: float) -> tuple[str, float, float]:
    """Assess integral of density over u in (0, upper_u] via a cutoff ladder.

    Returns (verdict, value, summed error estimate); the verdict is
    'convergent' when the increments become negligible relative to the
    total, 'divergent' when they keep growing or stay level, otherwise
    'inconclusive'.
    """
    edges = [upper_u] + [math.exp(-cut) * min(upper_u, 1.0) for cut in _CUTOFFS]
    pieces, errors = gauss_kronrod(density_u, edges[1:], edges[:-1])
    increments = pieces[1:]
    total, abserr = float(pieces.sum()), float(errors.sum())
    if abs(increments[-1]) <= _CONV_REL * max(abs(total), 1e-300) + 1e-14:
        return "convergent", total, abserr
    if increments[-1] >= 0.5 * increments[0] > 0:
        return "divergent", total, abserr
    return "inconclusive", total, abserr


def _ladder_condition(name: str, density_u, upper_u: float, expected: str) -> ConditionReport:
    """The condition that the integral of ``density_u`` over (0, upper_u]
    gets the ladder verdict ``expected``: it holds on that verdict, is
    inconclusive (None) on an inconclusive one, and fails otherwise."""
    verdict, value, abserr = _tail_integral(density_u, upper_u)
    holds = True if verdict == expected else (None if verdict == "inconclusive" else False)
    return ConditionReport(name, holds, value, f"value {value:.9g} ({verdict})", abserr)


def almost_invariant_check(
    fn: Callable[[np.ndarray], np.ndarray],
    t: float,
    a: float,
    b: float,
) -> AlmostInvariantReport:
    """Verify the four witness conditions for a candidate function ``fn``,
    which maps an array of points z to the values f(z).

    (i)   f(z) = 0 for z > t (grid check);
    (ii)  the squared-norm integral over (-inf, t] diverges;
    (iii) the character difference (1 - exp(i b e^z)) f is square integrable;
    (iv)  the shift difference f(.) - f(. + a) is square integrable.

    Integrals are computed after the substitution u = e^z, which maps the
    half-line onto (0, e^t] and turns the divergence into an endpoint
    singularity at u = 0.
    """

    def f_of_u(u):
        return fn(np.log(u))

    # (i) support
    grid = np.linspace(t + 1e-9, t + 40.0, 400)
    sup = float(np.max(np.abs(fn(grid))))
    support = ConditionReport(
        "support",
        sup <= 1e-12,
        sup,
        f"max |f| on (t, t+40] is {sup:.3e}",
    )

    # (ii) squared norm diverges
    upper_u = math.exp(t)
    not_l2 = _ladder_condition("not-square-integrable", lambda u: np.abs(f_of_u(u)) ** 2 / u, upper_u, "divergent")

    # (iii) character difference in L2:
    # |1 - exp(i b u)|^2 = 4 sin^2(b u / 2), integrand ~ b^2 u |f|^2 near 0
    def char_density(u):
        return 4.0 * np.sin(b * u / 2.0) ** 2 * np.abs(f_of_u(u)) ** 2 / u

    char_diff = _ladder_condition("character-difference", char_density, upper_u, "convergent")

    # (iv) shift difference in L2; support of the difference reaches t + |a|
    def shift_density(u):
        z = np.log(u)
        return np.abs(fn(z) - fn(z + a)) ** 2 / u

    shift_diff = _ladder_condition("shift-difference", shift_density, math.exp(t + abs(a)), "convergent")

    return AlmostInvariantReport(support, not_l2, char_diff, shift_diff)
