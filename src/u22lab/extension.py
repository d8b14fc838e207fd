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
never applied to general functions.  ``unboundedness_experiment`` probes its
growth on the fixed ladder ``UNBOUNDEDNESS_SCALES``.

``apply_extended`` maps stacks: g holds one element per vector of a
``CocycleVector``, and its factors k and p act on all the vector's terms
in one call each.  Nothing is merged or dropped: T(p) appends the term
-(sum c_i) b(p).
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
from .measures import PolarShellSampler, integrate_mc, nu_measure
from .orbits import OrbitLabel
from .representation import CocycleVector, coboundary

__all__ = [
    "act_k",
    "extend_cocycle",
    "apply_extended",
    "unboundedness_experiment",
]

# The swap-operator ladder: the scales c of the translations p with
# s = diag(c, 1), and the outer radius of its polar samples.
UNBOUNDEDNESS_SCALES = (2, 4, 8, 16, 32)
UNBOUNDEDNESS_R_MAX = 120.0


def act_k(k: KElement, p: QElement) -> QElement:
    """The triangular part p' of k p = p' k', for k and p that broadcast."""
    return p_part(k.m @ p.matrix())


def extend_cocycle(g: U22Element, label: OrbitLabel) -> CocycleVector:
    """b(g) = b(p) for g = p k, one vector per member of g; ~0 on the compact part."""
    return coboundary(p_part(g.m), label)


def apply_extended(g: U22Element, v: CocycleVector) -> CocycleVector:
    """T(g) = T(p) T(k) through the factorization g = p k, one g per vector:
    T(k) sum c_i b(p_i) = sum c_i b(k p_i), then
    T(p) sum c_i b(p_i) = sum c_i b(p p_i) - (sum c_i) b(p)."""
    p, k = iwasawa_decompose(g)
    moved = act_k(KElement(k.m[..., None, :, :]), v.elements)  # the same k for every term
    b0 = coboundary(p, v.label)
    translated = CocycleVector(v.label, v.coefficients, q_multiply(b0.elements, moved))
    return translated + CocycleVector(v.label, -v.coefficients.sum(axis=-1, keepdims=True), b0.elements)


def unboundedness_experiment(label: OrbitLabel, samples: int, rng) -> list[dict]:
    """Norm ratios |b(p^)| / |b(p)| under nu along the ladder of diagonal
    translations diag(c, 1), c in ``UNBOUNDEDNESS_SCALES``, with polar
    samples out to radius ``UNBOUNDEDNESS_R_MAX``.

    Exploratory: returns (|s(p)|, ratio, stderr) rows for the swap-operator
    growth probe.  No verdict is attached.
    """
    rng = as_generator(rng)
    sampler = PolarShellSampler(r_max=UNBOUNDEDNESS_R_MAX)
    rows = []
    for c in UNBOUNDEDNESS_SCALES:
        p = QElement(TriangularS(float(c), 1.0, 0.0), SkewHermitian2.zero())
        p_hat = sigma_hat(p)
        num, num_stderr = integrate_mc(coboundary(p_hat, label).evaluate, nu_measure, sampler, samples, rng)
        den, den_stderr = integrate_mc(coboundary(p, label).evaluate, nu_measure, sampler, samples, rng)
        ratio = math.sqrt(num / den)
        # first-order error propagation for sqrt(a/b)
        rel = 0.5 * math.sqrt((num_stderr / num) ** 2 + (den_stderr / den) ** 2)
        rows.append(
            {
                "s_norm": p.s.norm(),
                "ratio": ratio,
                "stderr": ratio * rel,
                "numerator": num,
                "denominator": den,
            }
        )
    return rows
