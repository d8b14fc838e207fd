"""The dual of the additive subgroup, its four open orbits, and characters.

A skew-Hermitian point m pairs with translations n through the real number
tr(m n); a character is chi_m(n) = exp(i tr(m n)).  The triangular group
acts by m -> s m s*.  Writing H = -i m (Hermitian), the open orbits are cut
out by the signs of H11 and det H; their representatives are
m_k = i diag(e1, e2), and the orbit chart of m is the unique triangular s
with s m_k s* = m.

The open-orbit decision and the chart exist once, here, as closed forms on
the fields (a, b, z) of the point: ``classify_orbit`` holds the one
degeneracy gate, and ``orbit_coordinates`` charts exactly the points it
labels.  Both work on the point divided by an exact power of 4, so a point
at any finite scale is classified and charted without overflow or
underflow, and no result in the normal range changes by a bit.
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .groups import SkewHermitian2, TriangularS
from .matrices import U22Error

__all__ = [
    "DegenerateOrbit",
    "OrbitLabel",
    "character_phase",
    "classify_orbit",
    "orbit_coordinates",
]

# The one degeneracy cutoff, relative to the size of the point.
DEGENERACY_TOL = 1e-10


class DegenerateOrbit(U22Error):
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

    def representative(self) -> SkewHermitian2:
        """The base point i diag(e1, e2)."""
        return SkewHermitian2(float(self.eps1), float(self.eps2), 0.0)

    def __str__(self) -> str:
        return "".join("+" if e > 0 else "-" for e in self.value)

    @classmethod
    def from_string(cls, text: str) -> "OrbitLabel":
        """Inverse of ``str``: "++", "+-", "-+" or "--"."""
        if len(text) != 2 or any(c not in "+-" for c in text):
            raise U22Error(f"bad orbit label string: {text!r}")
        return cls(tuple(1 if c == "+" else -1 for c in text))

    @classmethod
    def from_index(cls, k: int) -> "OrbitLabel":
        labels = list(cls)
        if not 1 <= k <= 4:
            raise U22Error(f"orbit index must be 1..4, got {k}")
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


def _normalized(m: SkewHermitian2) -> tuple[float, float, complex, int]:
    """The fields of m / 4^j, and j, with 4^j near the largest field.

    Dividing by a power of 4 is exact, and it halves to a power of 2 on
    the chart: the chart of m is 2^j times the chart of m / 4^j.
    """
    a, b, z = m.a, m.b, m.z
    if not (math.isfinite(a) and math.isfinite(b) and cmath.isfinite(z)):
        raise U22Error("orbit point has a non-finite entry")
    j = math.frexp(max(abs(a), abs(b), abs(z.real), abs(z.imag)))[1] // 2
    return (math.ldexp(a, -2 * j), math.ldexp(b, -2 * j),
            complex(math.ldexp(z.real, -2 * j), math.ldexp(z.imag, -2 * j)), j)


def classify_orbit(m: SkewHermitian2) -> OrbitLabel | None:
    """Orbit label of a skew-Hermitian point, or None when degenerate.

    With H = -i m: e1 = sign(H11) = sign(a) and e1 e2 = sign(det H), where
    det H = a b - |z|^2.  The point is degenerate when |a| or |det H| falls
    below ``DEGENERACY_TOL`` relative to |m| or |m|^2.  Raises ``U22Error``
    on a non-finite point.
    """
    a, b, z, _ = _normalized(m)
    scale = math.sqrt(a**2 + b**2 + 2.0 * abs(z) ** 2)
    if scale == 0.0:
        return None
    det = a * b - abs(z) ** 2
    if abs(a) < DEGENERACY_TOL * scale or abs(det) < DEGENERACY_TOL * scale * scale:
        return None
    e1 = 1 if a > 0 else -1
    e2 = e1 * (1 if det > 0 else -1)
    return OrbitLabel((e1, e2))


def orbit_coordinates(m: SkewHermitian2) -> TriangularS:
    """The unique chart point s with s m_k s* = m on the orbit of m.

    Raises ``DegenerateOrbit`` exactly when ``classify_orbit`` returns None.
    With H = -i m, s is the Cholesky recurrence with the signs threaded
    through:

        r1 = sqrt(e1 H11),  r = e1 H21 / r1,  r2 = sqrt(e2 (H22 - e1 |r|^2)),

    where H11 = a, H21 = i conj(z) and H22 = b.  The gate makes e1 a and
    e2 (b - e1 |r|^2) = e1 e2 det H / r1^2 positive.  Equivariant under the
    group action: the point of s0 m s0* is s0 times the point of m.
    """
    label = classify_orbit(m)
    if label is None:
        raise DegenerateOrbit("point has no open-orbit chart")
    e1, e2 = label.value
    a, b, z, j = _normalized(m)
    r1 = math.sqrt(e1 * a)
    # H21 = -i (-conj z) in NumPy complex scalars, in the operation order
    # of a factor of the matrix H
    r = e1 * (np.complex128(-1j) * -np.conj(z)) / r1
    r2 = math.sqrt(e2 * (b - e1 * abs(r) ** 2))
    return TriangularS(math.ldexp(r1, j), math.ldexp(r2, j),
                       complex(math.ldexp(r.real, j), math.ldexp(r.imag, j)))
