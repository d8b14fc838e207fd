"""The nonunitary action on functions over the triangular chart.

For a pair q = (s0, n) the operator is

    (T(q) F)(s) = exp(i tr(m_k s n s*)) * F(s s0),

a unit-modulus multiplier times a right translation.  The vacuum
f(s) = exp(-|s|/2) is not square integrable against the |s|^-4 measure
(its norm integral log-diverges at small radius), yet every difference
b(q) = T(q) f - f is; that membership gap is what ``specialness_report``
verifies.  Functions are closed-form evaluators on point batches, never
grids, so algebraic identities can be tested pointwise with no
discretization error.  A function takes the chart points as one
``TriangularS``, a single element or a batch, and returns complex values:
a ``GroupFunction`` or a plain function such as ``CocycleVector.evaluate``,
which the Monte-Carlo engines of ``measures`` take as they are.

``apply_T`` is the one operator on general functions; it builds the
multiplier itself.  T(q) takes one pair or a stack: the fields of q
broadcast against the chart points, so a stack with fields of shape (m, 1)
on n points gives (m, n) values in one call, through the closed forms
``TriangularS.multiply`` and ``orbits.character_phase``.

``CocycleVector.vacuum_and_rows`` is the one place where T(p) f - f is
written: the vacuum row, then one row per term.  It does not go through
``apply_T`` or ``TriangularS.multiply``: for the vacuum, |s s0|^2 and the
phase are both linear in five monomials of the chart point
(``orbits.chart_monomials``), so each row is one small matmul followed by
elementwise exponentials.  The pointwise evaluator and the Gram matrix
read its coboundary rows (``CocycleVector.rows``), and the specialness
probe reads all of them.

A ``CocycleVector`` is a coefficient array over one ``QElement`` stack of
its shape: terms on the last axis, independent vectors on any leading axes.
Nothing is merged: a sum concatenates terms, and an identity term's row is
exactly 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import orbits
from .groups import QElement, SkewHermitian2, TriangularS, q_join
from .matrices import U22Error
from .measures import (
    DivergenceVerdict,
    PolarShellSampler,
    divergence_probe,
    half_angle_cis,
    mc_estimate,
    mc_sum,
    nu_measure,
    require_finite,
    truncated_nu,
)
from .orbits import OrbitLabel

__all__ = [
    "GroupFunction",
    "vacuum",
    "inverse_norm",
    "apply_T",
    "CocycleVector",
    "coboundary",
    "gram_matrix",
    "SpecialnessReport",
    "specialness_report",
    "default_test_set",
]

# Relative distance at or below which gram_matrix rejects two basis elements.
DISTINCT_TOL = 1e-12
# The radius below which specialness_report's control measure drops nu.
CONTROL_CUTOFF = 1.0


class GroupFunction:
    """A complex-valued closed-form function on the chart, evaluated on one
    ``TriangularS`` element or a batch."""

    __slots__ = ("_evaluate",)

    def __init__(self, evaluate):
        self._evaluate = evaluate

    def __call__(self, pts: TriangularS) -> np.ndarray:
        return np.asarray(self._evaluate(pts), dtype=complex)


def vacuum() -> GroupFunction:
    """f(s) = exp(-|s|/2); values in (0, 1], tending to 1 at small radius."""
    return GroupFunction(lambda pts: np.exp(-pts.norm() / 2.0))


def inverse_norm() -> GroupFunction:
    """|s|^-1, the synthetic power-divergence control."""
    return GroupFunction(lambda pts: 1.0 / pts.norm())


def _moves(s: TriangularS):
    """Which members of s differ from the identity translation."""
    return (s.r1 != 1.0) | (s.r2 != 1.0) | (s.r != 0.0)


def _turns(n: SkewHermitian2):
    """Which members of n differ from the zero character."""
    return (n.a != 0.0) | (n.b != 0.0) | (n.z != 0.0)


def apply_T(q: QElement, label: OrbitLabel, fn: GroupFunction) -> GroupFunction:
    """(T(q) F)(s) = exp(i tr(m_k s n s*)) * F(s s0) for q = (s0, n).

    The operator on general functions: F is evaluated at the translated
    points s s0 (``TriangularS.multiply``), and the phase comes from
    ``orbits.character_phase``.  The coboundary rows of ``CocycleVector``
    do not come through here; they use the closed form of the vacuum.

    q is one pair or a stack whose fields broadcast against the points:
    fields of shape (m, 1) on n points give (m, n) values.  The translation
    part preserves the vacuum family; the multiplier part has unit modulus,
    so it never changes |F| pointwise; it is built from the half-angle
    tangent of the phase, ``half_angle_cis(tan(phase / 2))``.  A part is
    skipped only when every member is exactly the identity translation or
    exactly the zero character: it would translate by exactly s or multiply
    by exactly 1.
    """
    s, n = q.s, q.n
    moves, turns = np.any(_moves(s)), np.any(_turns(n))
    if not (moves or turns):
        return fn

    def evaluate(pts: TriangularS) -> np.ndarray:
        values = fn(pts.multiply(s)) if moves else fn(pts)
        if not turns:
            return values
        phase = orbits.character_phase(label, n, pts.r1, pts.r2, pts.r)
        return half_angle_cis(np.tan(0.5 * phase)) * values

    return GroupFunction(evaluate)


# ---------------------------------------------------------------------------
# cocycle vectors: coefficient arrays over element stacks, with a derived evaluator


@dataclass(frozen=True, eq=False)
class CocycleVector:
    """Combinations sum_i c_i b(p_i), b(p) = T(p) f - f with f the vacuum; the
    evaluator is derived from the two fields, so the views cannot drift apart."""

    label: OrbitLabel
    coefficients: np.ndarray  # terms on the last axis, vectors on any leading axes
    elements: QElement  # a stack of the coefficients' shape

    def rows(self, pts: TriangularS) -> np.ndarray:
        """T(p_i) f - f at the points for every term, without its coefficient:
        shape ``coefficients.shape + pts.shape``, with f evaluated once."""
        return self.vacuum_and_rows(pts)[1:].reshape(self.coefficients.shape + np.shape(pts.r))

    def vacuum_and_rows(self, pts: TriangularS) -> np.ndarray:
        """The vacuum f at the points, then every term's row in C order, on one axis.

        Each row exp(i phase) exp(-|s s0| / 2) - f comes from one matmul of
        the term's coefficient block with the ``orbits.chart_monomials`` of
        the points, which are formed once.  f = exp(-|s| / 2) reads the
        points' cached norm.  As in ``apply_T``, s0 = e reuses f and n = 0
        gets no multiplier, so an identity term's row is exactly 0.

        Where s0 nearly annihilates s, the closed form of |s s0|^2 cancels,
        and exp(-|s s0| / 2) can lose more than the few ulps of ``apply_T``:
        at most about 18 u cond(s0)^2 absolutely, u the unit roundoff.
        """
        out = np.empty((1 + self.coefficients.size,) + np.shape(pts.r), dtype=complex)
        f = np.exp(-pts.norm() / 2.0)
        out[0] = f
        # one flat row per entry: 0-d points become one column, so a point
        # and a length-1 batch take the same path
        rows, f = out.reshape(len(out), -1)[1:], np.reshape(f, -1)
        monomials = orbits.chart_monomials(pts.r1, pts.r2, pts.r).reshape(5, -1)
        for row, (moves, turns, block) in zip(rows, self._exponent_blocks):
            exponents = block @ monomials if block is not None else None
            values = f
            if moves:
                values = exponents[0]
                np.maximum(values, 0.0, out=values)  # a cancelling cross term can round below 0
                np.sqrt(values, out=values)
                values *= -0.5
                np.exp(values, out=values)
            if turns:
                np.multiply(half_angle_cis(np.tan(0.5 * exponents[-1])), values, out=row)
            else:
                row[:] = values
            row -= f
        return out

    @functools.cached_property
    def _exponent_blocks(self) -> list:
        """Per term, in the C order of ``coefficients``, (moves, turns,
        block): the rows of the block are the ``orbits.chart_monomials``
        coefficients of |s s0|^2 when s0 = (p1, p2, p) moves, (p1^2, p1^2,
        p2^2 + |p|^2, 2 p1 Re p, 2 p1 Im p), then of the phase when n turns;
        None for the identity."""
        shape = self.coefficients.shape
        flat = q_join(lambda fields: np.broadcast_to(fields[0], shape).ravel(), [self.elements])
        p1, p2, p = flat.s.r1, flat.s.r2, flat.s.r
        norm = [p1 * p1, p1 * p1, p2 * p2 + (p.real * p.real + p.imag * p.imag),
                2.0 * p1 * p.real, 2.0 * p1 * p.imag]
        blocks = np.stack((np.stack(norm, axis=-1), orbits.phase_coefficients(self.label, flat.n)), axis=1)
        return [(moves, turns, block[[moves, turns]] if moves or turns else None)
                for moves, turns, block in zip(_moves(flat.s), _turns(flat.n), blocks)]

    def evaluate(self, pts: TriangularS) -> np.ndarray:
        """sum_i c_i (T(p_i) f - f) at the points, one value array per
        vector: the rows added in term order."""
        lead = self.coefficients.ndim - 1
        out = np.zeros(self.coefficients.shape[:-1] + np.shape(pts.r), dtype=complex)
        coefficients = self.coefficients.reshape(self.coefficients.shape + (1,) * np.ndim(pts.r))
        for c, row in zip(np.moveaxis(coefficients, lead, 0), np.moveaxis(self.rows(pts), lead, 0)):
            out += c * row
        return out

    def __add__(self, other: "CocycleVector") -> "CocycleVector":
        """The terms of both vectors, concatenated on the last axis."""
        if other.label is not self.label:
            raise ValueError("cannot mix orbit labels in one combination")
        join = functools.partial(np.concatenate, axis=-1)
        return CocycleVector(self.label, join([self.coefficients, other.coefficients]),
                             q_join(join, [self.elements, other.elements]))


def coboundary(q: QElement, label: OrbitLabel) -> CocycleVector:
    """b(q) = T(q) f - f as a one-term cocycle vector, one per member of q;
    an identity member's row is exactly 0."""
    shape = np.broadcast_shapes(np.shape(q.s.r), np.shape(q.n.z)) + (1,)
    return CocycleVector(label, np.ones(shape, dtype=complex), q_join(functools.partial(np.stack, axis=-1), [q]))


# ---------------------------------------------------------------------------
# Gram matrices


def gram_matrix(
    p_list: Sequence[QElement],
    label: OrbitLabel,
    sampler: PolarShellSampler,
    n: int,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the coboundaries b(p_i) under the measure nu, plus
    per-entry standard errors.

    All entries share one sample stream, which keeps the estimated matrix
    exactly positive semidefinite.  Requires pairwise-distinct, nonidentity
    basis labels (no two within relative ``DISTINCT_TOL``).  One
    ``CocycleVector.rows`` call gives a block's k rows b_i, and each block of
    points gives the k x k sums of w b_i conj(b_j) as one small matmul; the
    entries below the diagonal are the conjugates of those above, and each
    entry's error comes from its replicate sums.
    """
    k = len(p_list)
    if k == 0:
        raise U22Error("need at least one basis element")
    basis = q_join(np.stack, p_list)
    if np.any(basis.is_identity()):
        raise U22Error("identity element has a zero coboundary")
    column = q_join(lambda fields: np.stack(fields)[:, None], p_list)
    close = column.distance(basis) <= DISTINCT_TOL * np.maximum(1.0, column.s.norm())
    if np.any(np.triu(close, 1)):
        raise U22Error("basis elements must be pairwise distinct")
    vector = CocycleVector(label, np.ones(k, dtype=complex), basis)

    def partial(view: TriangularS) -> np.ndarray:
        weights = nu_measure(view) / sampler.density(view)
        values = require_finite(vector.rows(view))
        weighted = values.conj()
        weighted *= weights
        return values @ weighted.T

    upper = np.triu(np.ones((k, k), bool))
    gram, stderr = mc_estimate(mc_sum(sampler, n, rng, partial), n)
    gram = np.where(upper, gram, gram.T.conj())
    stderr = np.where(upper, stderr, stderr.T)
    return gram, stderr


# ---------------------------------------------------------------------------
# the specialness verdict


@dataclass(frozen=True)
class SpecialnessReport:
    """Outcome of the witness check for one measure."""

    vacuum_verdict: DivergenceVerdict
    element_verdicts: tuple  # (description, DivergenceVerdict) per test element
    confirmed: bool
    verdict: str


def default_test_set() -> list[QElement]:
    """Four pure translations and four pure character directions."""
    translations = [
        TriangularS(2.0, 1.0, 0.0),
        TriangularS(1.0, 2.0, 0.0),
        TriangularS(0.5, 1.0, 0.0),
        TriangularS(1.0, 1.0, 1.0),
    ]
    characters = [
        SkewHermitian2(1.0, 0.0, 0.0),
        SkewHermitian2(0.0, 1.0, 0.0),
        SkewHermitian2(0.0, 0.0, 1.0),
        SkewHermitian2(0.0, 0.0, 1j),
    ]
    out = [QElement(s, SkewHermitian2.zero()) for s in translations]
    out += [QElement(TriangularS.identity(), n) for n in characters]
    return out


def _describe(q: QElement) -> str:
    s, n = q.s, q.n
    if not _turns(n):
        return f"translate(r1={s.r1:g}, r2={s.r2:g}, r={s.r:g})"
    if not _moves(s):
        return f"character(a={n.a:g}, b={n.b:g}, z={n.z:g})"
    return "mixed"


def specialness_report(
    label: OrbitLabel, eps_ladder, r_max: float, samples: int, rng
) -> tuple[SpecialnessReport, SpecialnessReport]:
    """Check that the vacuum escapes the square-integrable space while its
    coboundaries stay inside it: (report under nu, report of the control).

    A verdict is confirmed when the vacuum's norm integral diverges and the
    probe classifies b(q) as convergent for every element of
    ``default_test_set``.  The control is nu cut off below radius
    ``CONTROL_CUTOFF``, where the vacuum's integral converges, so it must
    not confirm; both measures are judged on one shared sample stream.
    """
    test_set = default_test_set()
    measures = (nu_measure, truncated_nu(CONTROL_CUTOFF))
    vector = CocycleVector(label, np.ones(len(test_set), dtype=complex), q_join(np.stack, test_set))
    # the vacuum row, then b(q) per element
    rows = divergence_probe(vector.vacuum_and_rows, measures, eps_ladder, r_max, samples, rng)
    descriptions = [_describe(q) for q in test_set]
    # one column of verdicts per measure
    return tuple(_judge(vacuum_verdict, tuple(zip(descriptions, element_verdicts)))
                 for vacuum_verdict, *element_verdicts in zip(*rows))


def _judge(vacuum_verdict, element_verdicts) -> SpecialnessReport:
    all_convergent = all(v.classification == "convergent" for _, v in element_verdicts)
    confirmed = vacuum_verdict.is_divergent and all_convergent
    if confirmed:
        verdict = "special witness confirmed"
    elif not vacuum_verdict.is_divergent:
        verdict = "not special (vacuum square-integrable)"
    else:
        verdict = "not special (a coboundary failed to converge)"
    return SpecialnessReport(vacuum_verdict, element_verdicts, confirmed, verdict)
