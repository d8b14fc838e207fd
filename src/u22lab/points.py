"""Batched chart points and the deterministic pointwise test set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import TriangularS, s_product

__all__ = ["SPoints", "reference_points"]


@dataclass(frozen=True)
class SPoints:
    """A batch of triangular-chart points held as parallel arrays."""

    r1: np.ndarray
    r2: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r1", np.asarray(self.r1, dtype=float))
        object.__setattr__(self, "r2", np.asarray(self.r2, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=complex))

    @property
    def size(self) -> int:
        return int(self.r1.size)

    def norms(self) -> np.ndarray:
        """Frobenius norms sqrt(r1^2 + r2^2 + |r|^2), cached because the
        sampler, the measures and the integrands of a batch all read them;
        callers must not write to the result."""
        cached = self.__dict__.get("_norms")
        if cached is None:
            cached = np.sqrt(self.r1**2 + self.r2**2 + np.abs(self.r) ** 2)
            self.__dict__["_norms"] = cached
        return cached

    def right_translate(self, s0: TriangularS) -> "SPoints":
        """Pointwise s -> s s0 in chart coordinates."""
        return SPoints(*s_product(self.r1, self.r2, self.r, s0.r1, s0.r2, s0.r))

    def element(self, i: int) -> TriangularS:
        return TriangularS(float(self.r1[i]), float(self.r2[i]), complex(self.r[i]))

    @classmethod
    def from_elements(cls, elements) -> "SPoints":
        return cls(
            np.array([s.r1 for s in elements]),
            np.array([s.r2 for s in elements]),
            np.array([s.r for s in elements]),
        )

    @classmethod
    def single(cls, s: TriangularS) -> "SPoints":
        return cls.from_elements([s])


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


def reference_points(n: int = 100, r_min: float = 1e-3, r_max: float = 10.0) -> SPoints:
    """Deterministic low-discrepancy test points with log-spaced radii.

    Directions come from the unscrambled Halton sequence in bases 2, 3, 5
    and 7 (radical inverses of 1..n; index 0, the origin, is skipped) pushed
    through the normal quantile and normalized onto the unit patch (first
    two coordinates positive), so the set probes both the small-radius and
    large-radius regimes.
    """
    from scipy.special import ndtri  # deferred: keeps SciPy off u22lab's import path

    radii = np.logspace(np.log10(r_min), np.log10(r_max), n)
    indices = np.arange(1, n + 1)
    u = np.stack([_radical_inverse(indices, base) for base in (2, 3, 5, 7)], axis=1)
    x = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    x[:, 0] = np.abs(x[:, 0]) + 1e-9
    x[:, 1] = np.abs(x[:, 1]) + 1e-9
    lengths = np.sqrt(np.sum(x**2, axis=1))
    x = x / lengths[:, None]
    return SPoints(
        radii * x[:, 0],
        radii * x[:, 1],
        radii * (x[:, 2] + 1j * x[:, 3]),
    )
