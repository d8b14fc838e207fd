"""Extending the triangular-group action and its cocycle to the whole group.

On the span of the basis vectors b(p) the remaining generators act by

* compact elements:   T(k) b(p) = b(p') where k p = p' k';
* the block swap:     T(sigma) b(p) = b(p^), p^ the triangular part of
  sigma p = p^ k^, so that p^ p^* = sigma p p* sigma;
* triangular factors: T(p0) b(p) = b(p0 p) - b(p0), the pointwise identity.

p' and p^ are the triangular parts of the products k p and sigma p, read by
the one factorization kernel behind ``iwasawa_decompose`` (``p_part``); no
p p* is formed.  A general element acts through its unique factorization
g = p k, and the extended cocycle is b(g) = b(p), constant on right cosets
of the compact part.  The swap operator exists only on this span; it is
never applied to general functions.
"""

from __future__ import annotations

import math

from .groups import (
    KElement,
    QElement,
    SkewHermitian2,
    TriangularS,
    U22Element,
    as_generator,
    iwasawa_decompose,
    p_part,
    q_multiply,
    sigma_hat,
)
from .measures import MeasureSpec, PolarShellSampler, integrate_mc
from .orbits import OrbitLabel
from .representation import CocycleVector

__all__ = [
    "act_k",
    "extend_cocycle",
    "apply_extended",
    "apply_k_on_vector",
    "apply_p_on_vector",
    "unboundedness_experiment",
]


def act_k(k: KElement, p: QElement) -> QElement:
    """The triangular part p' of k p = p' k'."""
    return p_part(k.m @ p.matrix())


def extend_cocycle(g: U22Element, label: OrbitLabel) -> CocycleVector:
    """b(g) = b(p) for g = p k; zero when g lies in the compact part."""
    p, _ = iwasawa_decompose(g)
    return CocycleVector.basis(p, label)


def apply_k_on_vector(k: KElement, v: CocycleVector) -> CocycleVector:
    terms = tuple((c, act_k(k, p)) for c, p in v.terms)
    return CocycleVector(v.label, terms).canonical()


def apply_p_on_vector(p0: QElement, v: CocycleVector) -> CocycleVector:
    """T(p0) sum c_i b(p_i) = sum c_i b(p0 p_i) - (sum c_i) b(p0)."""
    terms = [(c, q_multiply(p0, p)) for c, p in v.terms]
    total = sum(c for c, _ in v.terms)
    terms.append((-total, p0))
    return CocycleVector(v.label, tuple(terms)).canonical()


def apply_extended(g: U22Element, v: CocycleVector) -> CocycleVector:
    """T(g) = T(p) T(k) through the factorization g = p k."""
    p, k = iwasawa_decompose(g)
    return apply_p_on_vector(p, apply_k_on_vector(k, v))


def unboundedness_experiment(
    scales,
    label: OrbitLabel,
    measure: MeasureSpec,
    sampler: PolarShellSampler,
    samples: int,
    rng,
) -> list[dict]:
    """Norm ratios |b(p^)| / |b(p)| along a ladder of diagonal translations.

    Exploratory: returns (|s(p)|, ratio, stderr) rows for the swap-operator
    growth probe.  No verdict is attached.
    """
    rng = as_generator(rng)
    rows = []
    for c in scales:
        p = QElement(TriangularS(float(c), 1.0, 0.0), SkewHermitian2.zero())
        p_hat = sigma_hat(p)
        num = integrate_mc(CocycleVector.basis(p_hat, label).as_group_function(), measure, sampler, samples, rng)
        den = integrate_mc(CocycleVector.basis(p, label).as_group_function(), measure, sampler, samples, rng)
        ratio = math.sqrt(num.real / den.real)
        # first-order error propagation for sqrt(a/b)
        rel = 0.5 * math.sqrt(
            (num.std_error / num.real) ** 2 + (den.std_error / den.real) ** 2
        )
        rows.append(
            {
                "s_norm": p.s.norm(),
                "ratio": ratio,
                "stderr": ratio * rel,
                "numerator": num.real,
                "denominator": den.real,
            }
        )
    return rows
