"""Halton points: the table of the Monte-Carlo pass and the deterministic
pointwise test set, a batch of chart points.

``_halton`` is the one Halton construction (Halton, 1960): the radical
inverses of the first indices in bases 2, 3, 5 and 7, made once per size on
first use and never at import.  ``measures.mc_sum`` shifts its prefixes,
and ``reference_points`` reads its rows from index 1 on.
"""

from __future__ import annotations

import functools

import numpy as np

from .groups import TriangularS

__all__ = ["reference_points"]

REFERENCE_R_MIN, REFERENCE_R_MAX = 1e-3, 10.0  # the range of the radii
# The most reference points a battery takes: C05 evaluates its 200 pairs on
# every point, (200, 2^14) complex arrays of 50 MiB, and peaks near 440 MB.
MAX_REFERENCE_POINTS = 1 << 14


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse: the base-``base`` digits of each index
    mirrored about the radix point, accumulated most significant first."""
    out = np.zeros(indices.shape)
    q = indices.copy()
    weight = 1.0 / base
    while q.any():
        out += (q % base) * weight
        weight /= base
        q //= base
    return out


@functools.cache
def _halton(size: int) -> np.ndarray:
    """The Halton points of indices 0 .. size - 1 in bases 2, 3, 5 and 7 as a
    read-only (4, size) array, made once per size on first use.  A point
    does not depend on the size: the loop passes a longer table adds to an
    index's digits are exact zeros."""
    table = np.stack([_radical_inverse(np.arange(size), base) for base in (2, 3, 5, 7)])
    table.setflags(write=False)
    return table


def reference_points(n: int) -> TriangularS:
    """Deterministic low-discrepancy test points with log-spaced radii.

    Directions come from the unscrambled Halton points of indices 1..n
    (``_halton``; index 0, the origin, is skipped) pushed through the
    normal quantile and normalized onto the unit patch (first two
    coordinates positive), so the set probes both the small-radius and
    large-radius regimes.  The normal quantile is ``statistics.NormalDist``'s
    ``inv_cdf`` (Wichura's Algorithm AS 241, 1988).
    """
    from statistics import NormalDist  # deferred: keeps statistics off u22lab's import path

    radii = np.logspace(np.log10(REFERENCE_R_MIN), np.log10(REFERENCE_R_MAX), n)
    u = _halton(n + 1)[:, 1:].T
    x = np.vectorize(NormalDist().inv_cdf)(np.clip(u, 1e-12, 1 - 1e-12))
    x[:, 0] = np.abs(x[:, 0]) + 1e-9
    x[:, 1] = np.abs(x[:, 1]) + 1e-9
    lengths = np.sqrt(np.sum(x**2, axis=1))
    x = x / lengths[:, None]
    return TriangularS(
        radii * x[:, 0],
        radii * x[:, 1],
        radii * (x[:, 2] + 1j * x[:, 3]),
    )
