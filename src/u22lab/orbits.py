"""The dual of the additive subgroup, its four open orbits, and characters.

A skew-Hermitian point m pairs with translations n through the real number
tr(m n); a character is chi_m(n) = exp(i tr(m n)).  The triangular group
acts by m -> s m s*.  Writing H = -i m (Hermitian), the open orbits are cut
out by the signs of H11 and det H; their representatives are
m_k = i diag(e1, e2), and the orbit chart of m is the unique triangular s
with s m_k s* = m.

The open-orbit decision and the chart exist once, here, as one closed form
on the fields (a, b, z) of a point or a stack, with one code path for both:
``classify_orbit`` labels one point, and ``orbit_coordinates`` charts a
point or a stack, exactly the points that pass the one degeneracy gate.
Each point is divided by its own exact power of 4, so a point at any finite
scale is classified and charted without overflow or underflow, and a
member of a stack gets the same bits as the point alone.

The character phase tr(m_k s n s*) is written once too, as exact
coefficients (``phase_coefficients``) of five monomials of the chart point
(``chart_monomials``); ``character_phase`` contracts the two.
"""

from __future__ import annotations

import enum

import numpy as np

from .groups import SkewHermitian2, TriangularS
from .matrices import U22Error

__all__ = [
    "DegenerateOrbit",
    "OrbitLabel",
    "chart_monomials",
    "phase_coefficients",
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

    def __str__(self) -> str:
        return "".join("+" if e > 0 else "-" for e in self.value)

    @classmethod
    def parse(cls, text: str) -> "OrbitLabel":
        """The label written as ``str`` writes it ("++", "+-", "-+" or "--"),
        or as its ``index`` 1..4 in at most 9 ASCII digits.  (``str.isdigit``
        accepts "²", which ``int`` refuses, as it refuses over 4300 digits.)"""
        if text.isascii() and text.isdigit() and len(text) < 10:
            k = int(text)
            if not 1 <= k <= 4:
                raise U22Error(f"orbit index must be 1..4, got {k}")
            return list(cls)[k - 1]
        if len(text) != 2 or any(c not in "+-" for c in text):
            raise U22Error(f"bad orbit label string: {text!r}")
        return cls(tuple(1 if c == "+" else -1 for c in text))


def chart_monomials(r1, r2, r) -> np.ndarray:
    """The five monomials (r1^2, |r|^2, r2^2, r2 Re r, r2 Im r) of chart
    points s = (r1, r2, r), on a leading axis of length 5.

    Accepts scalars or numpy arrays; broadcasting applies.  Both exponents
    of the operator T(q) are linear in them: the character phase
    (``phase_coefficients``) and the squared norm of a right translate,

        |s s0|^2 = p1^2 (r1^2 + |r|^2) + (p2^2 + |p|^2) r2^2 + 2 p1 r2 Re(r conj p)

    for s0 = (p1, p2, p).
    """
    r = np.asarray(r, dtype=complex)
    re, im = r.real, r.imag
    return np.stack(np.broadcast_arrays(r1 * r1, re * re + im * im, r2 * r2, r2 * re, r2 * im))


def phase_coefficients(label: OrbitLabel, n: SkewHermitian2) -> np.ndarray:
    """The phase tr(m_k s n s*) as coefficients of ``chart_monomials``, on a
    trailing axis of length 5 (n one element or a stack).

    From the closed form -e1 a r1^2 - e2 (a |r|^2 + b r2^2 + 2 r2 Im(r z))
    with Im(r z) = Re r Im z + Im r Re z; each coefficient is a field of n
    times +-1 or +-2, so exact.
    """
    e1, e2 = label.eps1, label.eps2
    z = np.asarray(n.z, dtype=complex)
    return np.stack(np.broadcast_arrays(-e1 * n.a, -e2 * n.a, -e2 * n.b, -2 * e2 * z.imag, -2 * e2 * z.real),
                    axis=-1)


def character_phase(label: OrbitLabel, n: SkewHermitian2, r1, r2, r):
    """Phase tr(m_k s n s*) as a function of the chart coordinates of s:
    ``phase_coefficients`` contracted with ``chart_monomials``.

    Accepts scalars or numpy arrays for (r1, r2, r); the fields of n
    broadcast against the points, so a stack with fields of shape (m, 1)
    on n points gives (m, n) phases.
    """
    return np.einsum("...k,k...->...", phase_coefficients(label, n), chart_monomials(r1, r2, r))


def _orbit_chart(m: SkewHermitian2):
    """The sign pair and chart fields (e1, e2, r1, r2, r) of a point or a
    stack, lane by lane; e1 = e2 = 0 marks a degenerate lane, whose chart
    fields are meaningless.  Only real elementwise operations act on a lane,
    so it gets the same bits alone and in any stack.  Raises ``U22Error`` on
    a non-finite entry.
    """
    a, b, x, y = m.a, m.b, m.z.real, m.z.imag
    largest = np.maximum(np.maximum(abs(a), abs(b)), np.maximum(abs(x), abs(y)))  # NaN propagates
    if not np.isfinite(largest).all():
        raise U22Error("point has a non-finite entry")
    j = np.frexp(largest)[1] // 2  # divide by 4^j, exact: the chart is 2^j times that of m / 4^j
    a, b, x, y = (np.ldexp(f, -2 * j) for f in (a, b, x, y))
    modulus = np.hypot(x, y)
    zz = modulus * modulus
    scale = np.sqrt(a * a + b * b + 2.0 * zz)
    det = a * b - zz
    open_orbit = (scale > 0.0) & (abs(a) >= DEGENERACY_TOL * scale) & (abs(det) >= DEGENERACY_TOL * scale * scale)
    e1 = np.sign(a) * open_orbit
    e2 = e1 * np.sign(det)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate lanes divide by r1 = 0
        r1 = np.sqrt(e1 * a)
        # r = e1 H21 / r1 with H21 = i conj(z) = y + i x, times 1 / r1 as the
        # complex division of the matrix factor rounds; + 0.0 makes a zero +0
        inverse = 1.0 / r1
        re, im = e1 * y * inverse + 0.0, e1 * x * inverse + 0.0
        modulus = np.hypot(re, im)
        r2 = np.sqrt(e2 * (b - e1 * modulus * modulus))
    return e1, e2, np.ldexp(r1, j), np.ldexp(r2, j), np.ldexp(re, j) + 1j * np.ldexp(im, j)


def classify_orbit(m: SkewHermitian2) -> OrbitLabel | None:
    """Orbit label of a skew-Hermitian point, or None when degenerate.

    With H = -i m: e1 = sign(H11) = sign(a) and e1 e2 = sign(det H), where
    det H = a b - |z|^2.  The point is degenerate when |a| or |det H| falls
    below ``DEGENERACY_TOL`` relative to |m| or |m|^2.  Raises ``U22Error``
    on a non-finite point.
    """
    e1, e2 = _orbit_chart(m)[:2]
    return OrbitLabel((int(e1), int(e2))) if e1 else None


def orbit_coordinates(m: SkewHermitian2) -> TriangularS:
    """The unique chart point s with s m_k s* = m on the orbit of m; on a
    stack, the batch of chart points.

    Raises ``DegenerateOrbit`` exactly when ``classify_orbit`` returns None,
    on a stack when any member is degenerate.  With H = -i m, s is the
    Cholesky recurrence with the signs threaded through:

        r1 = sqrt(e1 H11),  r = e1 H21 / r1,  r2 = sqrt(e2 (H22 - e1 |r|^2)),

    where H11 = a, H21 = i conj(z) and H22 = b.  The gate makes e1 a and
    e2 (b - e1 |r|^2) = e1 e2 det H / r1^2 positive.  Equivariant under the
    group action: the point of s0 m s0* is s0 times the point of m.
    """
    e1, _, r1, r2, r = _orbit_chart(m)
    if not e1.all():
        raise DegenerateOrbit("point has no open-orbit chart")
    return TriangularS(r1, r2, r)
