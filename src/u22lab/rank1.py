"""Rank-1 baseline: the line model with fully checkable almost-invariance.

The affine transformation x -> exp(beta) x + a acts on functions over the
line by (U F)(z) = exp(i a e^z) F(z + beta).  A witness f must vanish to the
right of some t, fail to be square integrable, and have square-integrable
character and shift differences.  All four conditions reduce to 1-d
integrals over (-inf, t]; after u = e^z they become finite-interval
problems with at worst an endpoint singularity at u = 0, which adaptive
quadrature handles directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffElement",
    "LineFunction",
    "apply_U",
    "left_indicator",
    "gaussian_bump",
    "ConditionReport",
    "AlmostInvariantReport",
    "almost_invariant_check",
]

# Cutoff ladder (in z) used for the divergence assessment of condition (ii).
_CUTOFFS = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
_CONV_REL = 1e-6


@dataclass(frozen=True)
class AffElement:
    """The transformation x -> exp(beta) x + a."""

    beta: float
    a: float

    @classmethod
    def identity(cls) -> "AffElement":
        return cls(0.0, 0.0)

    def compose(self, other: "AffElement") -> "AffElement":
        return AffElement(self.beta + other.beta, self.a + math.exp(self.beta) * other.a)

    def inverse(self) -> "AffElement":
        return AffElement(-self.beta, -self.a * math.exp(-self.beta))


class LineFunction:
    """Complex-valued function on the line with vectorized evaluation."""

    __slots__ = ("_evaluate",)

    def __init__(self, evaluate):
        self._evaluate = evaluate

    def __call__(self, z) -> np.ndarray:
        return np.asarray(self._evaluate(np.asarray(z, dtype=float)), dtype=complex)


def apply_U(g: AffElement, fn: LineFunction) -> LineFunction:
    """(U F)(z) = exp(i a e^z) F(z + beta); a pointwise homomorphism."""
    return LineFunction(lambda z: np.exp(1j * g.a * np.exp(z)) * fn(z + g.beta))


def left_indicator(t: float = 0.0) -> LineFunction:
    return LineFunction(lambda z: (z < t).astype(complex))


def gaussian_bump() -> LineFunction:
    return LineFunction(lambda z: np.exp(-(z**2)).astype(complex))


@dataclass(frozen=True)
class ConditionReport:
    name: str
    holds: bool | None  # None = inconclusive
    value: float | None
    detail: str


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


def _quad(func, lo: float, hi: float) -> tuple[float, float]:
    from scipy import integrate  # deferred: keeps SciPy off u22lab's import path

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(func, lo, hi, epsabs=1e-12, epsrel=1e-9, limit=400)
    return value, err


def _tail_integral(density_u, upper_u: float) -> tuple[str, float, list[float]]:
    """Assess integral of density over u in (0, upper_u] via a cutoff ladder.

    Returns (verdict, value, increments); the verdict is 'convergent' when
    the increments become negligible relative to the total, 'divergent'
    when they keep growing or stay level, otherwise 'inconclusive'.
    """
    pieces = []
    hi = upper_u
    for cut in _CUTOFFS:
        lo = math.exp(-cut) * min(upper_u, 1.0)
        value, _ = _quad(density_u, lo, hi)
        pieces.append(value)
        hi = lo
    totals = np.cumsum(pieces)
    increments = pieces[1:]
    total = totals[-1]
    if abs(increments[-1]) <= _CONV_REL * max(abs(total), 1e-300) + 1e-14:
        return "convergent", float(total), pieces
    if increments[-1] >= 0.5 * increments[0] > 0:
        return "divergent", float(total), pieces
    return "inconclusive", float(total), pieces


def almost_invariant_check(
    fn: LineFunction,
    t: float,
    a: float,
    b: float,
    rel_tol: float = 1e-6,
) -> AlmostInvariantReport:
    """Verify the four witness conditions for a candidate function.

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
    verdict, total, _ = _tail_integral(
        lambda u: float(abs(f_of_u(u)) ** 2 / u), upper_u
    )
    not_l2 = ConditionReport(
        "not-square-integrable",
        True if verdict == "divergent" else (False if verdict == "convergent" else None),
        total,
        f"cutoff ladder verdict: {verdict}",
    )

    # (iii) character difference in L2:
    # |1 - exp(i b u)|^2 = 4 sin^2(b u / 2), integrand ~ b^2 u |f|^2 near 0
    def char_density(u):
        return float(4.0 * math.sin(b * u / 2.0) ** 2 * abs(f_of_u(u)) ** 2 / u)

    verdict3, value3, _ = _tail_integral(char_density, upper_u)
    char_diff = ConditionReport(
        "character-difference",
        True if verdict3 == "convergent" else (False if verdict3 == "divergent" else None),
        value3,
        f"value {value3:.9g} ({verdict3})",
    )

    # (iv) shift difference in L2; support of the difference reaches t + |a|
    upper4 = math.exp(t + abs(a))

    def shift_density(u):
        z = math.log(u)
        diff = complex(fn(z)) - complex(fn(z + a))
        return float(abs(diff) ** 2 / u)

    verdict4, value4, _ = _tail_integral(shift_density, upper4)
    shift_diff = ConditionReport(
        "shift-difference",
        True if verdict4 == "convergent" else (False if verdict4 == "divergent" else None),
        value4,
        f"value {value4:.9g} ({verdict4})",
    )

    return AlmostInvariantReport(support, not_l2, char_diff, shift_diff)
