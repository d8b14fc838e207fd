"""The dual of the additive subgroup, its four open orbits, and characters.

A skew-Hermitian point m pairs with translations n through the real number
tr(m n); a character is chi_m(n) = exp(i tr(m n)).  The triangular group
acts by m -> s m s*.  Writing H = -i m (Hermitian), the open orbits are cut
out by the signs of H11 and det H; their representatives are
m_k = i diag(e1, e2), and the orbit chart is the unique triangular factor
of H against diag(e1, e2).
"""

from __future__ import annotations

import enum

import numpy as np

from .groups import SkewHermitian2, TriangularS
from .matrices import HermitianSignature, signed_triangular_factor, WrongOrbit

__all__ = [
    "DegenerateOrbit",
    "OrbitLabel",
    "character_phase",
    "classify_orbit",
    "orbit_coordinates",
]

# Absolute degeneracy cutoff applied after normalizing the input.
DEGENERACY_TOL = 1e-10


class DegenerateOrbit(ValueError):
    """The point lies on a zero-measure orbit and has no triangular chart."""


class OrbitLabel(enum.Enum):
    """The four open orbits, keyed by the sign pair of the Hermitian form."""

    PLUS_PLUS = (1, 1)
    PLUS_MINUS = (1, -1)
    MINUS_PLUS = (-1, 1)
    MINUS_MINUS = (-1, -1)

    @property
    def eps1(self) -> int:
        return self.value[0]

    @property
    def eps2(self) -> int:
        return self.value[1]

    @property
    def index(self) -> int:
        return 1 + list(OrbitLabel).index(self)

    @property
    def signature(self) -> HermitianSignature:
        return HermitianSignature(*self.value)

    def representative(self) -> SkewHermitian2:
        """The base point i diag(e1, e2)."""
        return SkewHermitian2(float(self.eps1), float(self.eps2), 0.0)

    def __str__(self) -> str:
        return str(self.signature)

    @classmethod
    def from_signature(cls, sig: HermitianSignature) -> "OrbitLabel":
        return cls((sig.eps1, sig.eps2))

    @classmethod
    def from_string(cls, text: str) -> "OrbitLabel":
        return cls.from_signature(HermitianSignature.from_string(text))

    @classmethod
    def from_index(cls, k: int) -> "OrbitLabel":
        labels = list(cls)
        if not 1 <= k <= 4:
            raise ValueError(f"orbit index must be 1..4, got {k}")
        return labels[k - 1]


def character_phase(label: OrbitLabel, n: SkewHermitian2, r1, r2, r):
    """Phase tr(m_k s n s*) as a function of the chart coordinates of s.

    Accepts scalars or numpy arrays for (r1, r2, r); broadcasting applies.
    Closed form:

        -e1 a r1^2 - e2 (a |r|^2 + b r2^2 + 2 r2 Im(r z)).
    """
    r = np.asarray(r, dtype=complex)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    e1, e2 = label.eps1, label.eps2
    return -e1 * n.a * r1**2 - e2 * (
        n.a * np.abs(r) ** 2 + n.b * r2**2 + 2.0 * r2 * (r * n.z).imag
    )


def classify_orbit(m: SkewHermitian2, tol: float = DEGENERACY_TOL) -> OrbitLabel | None:
    """Orbit label of a skew-Hermitian point, or None when degenerate.

    With H = -i m: e1 = sign(H11) and e1 e2 = sign(det H).  The input is
    normalized first, so the cutoff is scale free.
    """
    scale = m.norm()
    if scale == 0.0:
        return None
    h11 = m.a
    det = m.a * m.b - abs(m.z) ** 2
    if abs(h11) < tol * scale or abs(det) < tol * scale * scale:
        return None
    e1 = 1 if h11 > 0 else -1
    e2 = e1 * (1 if det > 0 else -1)
    return OrbitLabel((e1, e2))


def orbit_coordinates(m: SkewHermitian2) -> TriangularS:
    """The unique chart point s with s m_k s* = m on the orbit of m.

    Equivariant under the group action: the point of s0 m s0* is
    s0 times the point of m, exactly.
    """
    label = classify_orbit(m)
    if label is None:
        raise DegenerateOrbit("point has no open-orbit chart")
    h = -1j * m.matrix()
    try:
        s_mat = signed_triangular_factor(h, label.signature)
    except WrongOrbit as exc:  # classification already passed; defensive only
        raise DegenerateOrbit(str(exc)) from exc
    return TriangularS.from_matrix(s_mat)
