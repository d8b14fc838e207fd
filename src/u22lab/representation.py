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
``TriangularS``, a single element or a batch.

T(q) takes one pair or a stack: the fields of q broadcast against the
chart points, so a stack with fields of shape (m, 1) on n points gives
(m, n) values in one call, through the closed forms ``s_product`` and
``orbits.character_phase``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import orbits
from .groups import QElement, SkewHermitian2, TriangularS
from .measures import (
    DivergenceVerdict,
    MCAccumulator,
    MeasureSpec,
    PolarShellSampler,
    divergence_probe,
    require_finite,
    sample_batches,
)
from .orbits import OrbitLabel

__all__ = [
    "GroupFunction",
    "vacuum",
    "inverse_norm",
    "translate",
    "character_factor",
    "character_product",
    "apply_T",
    "CocycleVector",
    "coboundary",
    "gram_matrix",
    "SpecialnessReport",
    "specialness_report",
    "default_test_set",
]

# Near-duplicate merge cutoff for formal combinations of basis vectors.
CANONICAL_TOL = 1e-12


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


def translate(fn: GroupFunction, s0: TriangularS) -> GroupFunction:
    """Right translation (F -> F(. s0)); a batch s0 broadcasts against the points."""
    return GroupFunction(lambda pts: fn(pts.multiply(s0)))


def character_factor(label: OrbitLabel, n) -> GroupFunction:
    """The unit-modulus multiplier s -> exp(i tr(m_k s n s*))."""

    def evaluate(pts: TriangularS) -> np.ndarray:  # cos + i sin: cheaper than a complex exp
        phase = orbits.character_phase(label, n, pts.r1, pts.r2, pts.r)
        out = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=out.real)
        np.sin(phase, out=out.imag)
        return out

    return GroupFunction(evaluate)


def character_product(label: OrbitLabel, n, fn: GroupFunction) -> GroupFunction:
    factor = character_factor(label, n)
    return GroupFunction(lambda pts: factor(pts) * fn(pts))


def apply_T(q: QElement, label: OrbitLabel, fn: GroupFunction) -> GroupFunction:
    """(T(q) F)(s) = multiplier(s, n) * F(s s0) for q = (s0, n).

    q is one pair or a stack whose fields broadcast against the points:
    fields of shape (m, 1) on n points give (m, n) values.  The translation
    part preserves the vacuum family; the multiplier part has unit modulus,
    so it never changes |F| pointwise.  A part is skipped only when every
    member is exactly the identity translation or exactly the zero
    character: it would translate by exactly s or multiply by exactly 1.
    """
    s, n = q.s, q.n
    if np.any((s.r1 != 1.0) | (s.r2 != 1.0) | (s.r != 0.0)):
        fn = translate(fn, s)
    if np.any((n.a != 0.0) | (n.b != 0.0) | (n.z != 0.0)):
        fn = character_product(label, n, fn)
    return fn


# ---------------------------------------------------------------------------
# cocycle vectors: formal combinations of b(p) with a derived evaluator


@dataclass(frozen=True)
class CocycleVector:
    """Formal combination sum_i c_i b(p_i) with a consistent pointwise evaluator.

    b(p) = T(p) f - f with f the vacuum; the evaluator is always derived
    from the stored terms, so the two views cannot drift apart.
    """

    label: OrbitLabel
    terms: tuple  # tuple of (complex coefficient, QElement)

    @classmethod
    def zero(cls, label: OrbitLabel) -> "CocycleVector":
        return cls(label, ())

    @classmethod
    def basis(cls, p: QElement, label: OrbitLabel) -> "CocycleVector":
        if p.is_identity():
            return cls.zero(label)
        return cls(label, ((1.0 + 0.0j, p),))

    def evaluate(self, pts: TriangularS) -> np.ndarray:
        """sum_i c_i (T(p_i) f - f) at the points, with f evaluated once."""
        out = np.zeros(np.shape(pts.r), dtype=complex)
        if not self.terms:
            return out
        f = vacuum()
        base = f(pts)
        for c, p in self.terms:
            out += c * (apply_T(p, self.label, f)(pts) - base)
        return out

    def as_group_function(self) -> GroupFunction:
        return GroupFunction(self.evaluate)

    def __add__(self, other: "CocycleVector") -> "CocycleVector":
        if other.label is not self.label:
            raise ValueError("cannot mix orbit labels in one combination")
        return CocycleVector(self.label, self.terms + other.terms).canonical()

    def canonical(self, tol: float = CANONICAL_TOL) -> "CocycleVector":
        """Merge coincident basis labels, drop identities and zero coefficients."""
        kept: list[list] = []
        for c, p in self.terms:
            if p.is_identity():
                continue
            scale = max(1.0, p.s.norm())
            for entry in kept:
                if entry[1].distance(p) <= tol * scale:
                    entry[0] += c
                    break
            else:
                kept.append([complex(c), p])
        terms = tuple((c, p) for c, p in kept if abs(c) > tol)
        return CocycleVector(self.label, terms)


def coboundary(q: QElement, label: OrbitLabel) -> CocycleVector:
    """b(q) = T(q) f - f as a basis cocycle vector."""
    return CocycleVector.basis(q, label)


# ---------------------------------------------------------------------------
# Gram matrices


def gram_matrix(
    p_list: Sequence[QElement],
    label: OrbitLabel,
    measure: MeasureSpec,
    sampler: PolarShellSampler,
    n: int,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the coboundaries b(p_i) plus per-entry standard errors.

    All entries share one sample stream, which keeps the estimated matrix
    exactly positive semidefinite.  Requires pairwise-distinct, nonidentity
    basis labels.
    """
    k = len(p_list)
    if k == 0:
        raise ValueError("need at least one basis element")
    for i, p in enumerate(p_list):
        if p.is_identity():
            raise ValueError("identity element has a zero coboundary")
        for other in p_list[i + 1 :]:
            if p.distance(other) <= CANONICAL_TOL * max(1.0, p.s.norm()):
                raise ValueError("basis elements must be pairwise distinct")
    vectors = [CocycleVector.basis(p, label) for p in p_list]
    accs = [[MCAccumulator() for _ in range(k)] for _ in range(k)]
    for pts, (weights,) in sample_batches(sampler, (measure,), n, rng):
        values = [require_finite(v.evaluate(pts)) for v in vectors]
        for i in range(k):
            weighted = weights * values[i]
            for j in range(i, k):
                accs[i][j].add(weighted * np.conj(values[j]))
    gram = np.zeros((k, k), dtype=complex)
    stderr = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            est = accs[i][j].estimate()
            gram[i, j] = est.value
            gram[j, i] = np.conj(est.value)
            stderr[i, j] = stderr[j, i] = est.std_error
    return gram, stderr


# ---------------------------------------------------------------------------
# the specialness verdict


@dataclass(frozen=True)
class SpecialnessReport:
    """Outcome of the witness check for one measure and orbit label."""

    measure_name: str
    label: OrbitLabel
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
    if q.is_translation():
        s = q.s
        return f"translate(r1={s.r1:g}, r2={s.r2:g}, r={s.r:g})"
    if q.is_character_direction():
        n = q.n
        return f"character(a={n.a:g}, b={n.b:g}, z={n.z:g})"
    return "mixed"


def specialness_report(
    test_set: Sequence[QElement],
    label: OrbitLabel,
    measure,
    eps_ladder,
    r_max: float = 30.0,
    samples: int = 200_000,
    rng=0,
):
    """Check that the vacuum escapes the square-integrable space while its
    coboundaries stay inside it.

    The verdict is confirmed when the vacuum's norm integral diverges and
    the probe classifies b(q) as convergent for every element of the test
    set.  The set must contain at least one pure translation and one pure
    character direction.  A sequence of measures is judged on one shared
    sample stream, giving one report per measure.
    """
    if not test_set:
        raise ValueError("test set must be nonempty")
    if not any(q.is_translation() for q in test_set):
        raise ValueError("test set needs at least one pure translation")
    if not any(q.is_character_direction() for q in test_set):
        raise ValueError("test set needs at least one pure character direction")
    measures = measure if isinstance(measure, (list, tuple)) else (measure,)
    functions = [vacuum()] + [coboundary(q, label).as_group_function() for q in test_set]
    rows = divergence_probe(functions, measures, eps_ladder, r_max, samples, rng)
    descriptions = [_describe(q) for q in test_set]
    reports = []
    for j, m in enumerate(measures):
        elements = tuple((desc, row[j]) for desc, row in zip(descriptions, rows[1:]))
        reports.append(_judge(m.name, label, rows[0][j], elements))
    return tuple(reports) if measures is measure else reports[0]


def _judge(measure_name: str, label: OrbitLabel, vacuum_verdict, element_verdicts) -> SpecialnessReport:
    all_convergent = all(v.classification == "convergent" for _, v in element_verdicts)
    confirmed = vacuum_verdict.is_divergent and all_convergent
    if confirmed:
        verdict = "special witness confirmed"
    elif not vacuum_verdict.is_divergent:
        verdict = "not special (vacuum square-integrable)"
    else:
        verdict = "not special (a coboundary failed to converge)"
    return SpecialnessReport(measure_name, label, vacuum_verdict, element_verdicts, confirmed, verdict)
