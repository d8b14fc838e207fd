"""Block elements of the pseudo-unitary group and its triangular subgroup.

The ambient group is the set of 4x4 complex matrices g with g S g* = S,
where S is the block swap ``matrices.SIGMA``.  Inside it live:

* ``SkewHermitian2`` n, embedded as [[e, 0], [n, e]] (an additive group);
* ``TriangularS`` s (lower triangular, positive diagonal), embedded as
  block diag(s*^-1, s);
* ``QElement`` (s, n), the one type for the triangular group P = S N, with
  product (s1 s2, n1 + s1 n2 s1*) (``q_multiply``) and block matrix
  [[s*^-1, 0], [X, s]], X = n s*^-1, so s X* + X s* = 0 by construction;
* ``KElement``, the compact part: unitary members, block shape
  [[alpha, beta], [beta, alpha]].

Every ambient element factors uniquely as g = p k.  ``iwasawa_decompose``
reads the factors off the top blocks of g: g11 + g12 = s*^-1 u and
g11 - g12 = s*^-1 v with u, v unitary, so u and v come from two 2x2 RQ
factorizations (row Gram-Schmidt, re-orthogonalized once), k from u and v,
and p = g k*.  Nothing squares the conditioning of s, as a factorization of
g g* would.  The relative residual |p k - g| / |g| grows like the unit
roundoff u times cond(s); the tests hold it below u cond(s) on a
conditioning ladder from cond(s) = 10 to 1e6 (unit-size n = X s*), where
every gate passes at its tolerance (``PRODUCT_TOL``, 1e-10).  Beyond that
range the gates start to reject, always with ``DecompositionFailed``.
``sigma_hat`` and ``extension.act_k`` use the same kernel through ``p_part``.

Batch-first: the fields of ``TriangularS`` and ``SkewHermitian2`` are
Python scalars for one element or equal-shape arrays for a batch, and the
matrices of ``QElement``, ``KElement`` and ``U22Element`` are one matrix or
a stack (..., n, n).  Every method and the membership test work on both,
and a batch is validated member by member at the tolerance of the scalar
constructor; a failing batch raises the error of its first failing member.
A ``U22Element`` keeps the membership report of that validation, and a
slice of a stack reuses its parent's report: members are validated once.
``TriangularS`` is the package's only chart type: the Monte-Carlo samplers,
the test points and the functions of ``representation`` all use it.  Each
closed form on chart components is written once, as the method that uses
it: ``TriangularS.multiply``, ``TriangularS.inverse`` and
``SkewHermitian2.conjugate_by`` (s n s*).  All samplers, ``random_k`` too,
draw a batch in one call when given ``size``.  The factors p and k of a
decomposition are written to JSON (``element_to_json``, for the CLI);
nothing reads them back.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import lie
from .matrices import (
    E4,
    SIGMA,
    U22Error,
    adjoint,
    assemble,
    blocks,
    freeze,
    frob,
    matrix_exp,
    matrix_to_json,
    pow2_scaled,
)

__all__ = [
    "InvariantViolation",
    "NotFactorizable",
    "DecompositionFailed",
    "NotInGroup",
    "MembershipReport",
    "TriangularS",
    "SkewHermitian2",
    "QElement",
    "KElement",
    "U22Element",
    "is_in_u22",
    "q_join",
    "q_multiply",
    "q_inverse",
    "structured_p_factor",
    "iwasawa_decompose",
    "p_part",
    "sigma_hat",
    "nested_q_commutator",
    "as_generator",
    "random_s",
    "random_n",
    "random_q",
    "random_p",
    "random_k",
    "random_u22",
    "element_to_json",
]

# Tolerance ladder: construction, one product, long chains.  ``KElement``
# is checked at the product rung, as are the gates of the p k factorization;
# ``U22Element`` at the chain rung unless its maker passes another
# (``random_u22`` the construction rung, ``decompose --tol`` its value).
CONSTRUCTION_TOL = 1e-12
PRODUCT_TOL = 1e-10
CHAIN_TOL = 1e-9
IDENTITY_TOL = 1e-13  # QElement.is_identity

# Scale-invariant cutoff for positivity of the leading minors in
# ``structured_p_factor``.
MINOR_TOL_FACTOR = 1e-12

RANDOM_U22_RADIUS = 2.0  # the largest norm of random_u22's algebra element

_NORMAL_MIN = sys.float_info.min
_SIGMA_REAL = np.ascontiguousarray(SIGMA.real)
_NORMAL_MAX = sys.float_info.max


class InvariantViolation(U22Error):
    """A typed element failed its structural invariant."""


class NotFactorizable(U22Error):
    """The input is outside the domain of the structured factorization."""


class DecompositionFailed(U22Error):
    """A factorization produced a residual above tolerance."""


class NotInGroup(U22Error):
    """A matrix failed the ambient-group membership residuals."""

    def __init__(self, report: "MembershipReport"):
        super().__init__(f"not a group member: {report}")
        self.report = report


@dataclass(frozen=True)
class MembershipReport:
    """The four membership residuals, each relative to the size of its terms.

    For a stack of matrices every field is an array over the stack axes.
    """

    ok: bool
    sigma_relation: float
    block_unit: float
    block_upper: float
    block_lower: float
    tol: float

    def residuals(self) -> tuple[float, float, float, float]:
        return (self.sigma_relation, self.block_unit, self.block_upper, self.block_lower)

    def named_residuals(self) -> dict[str, float]:
        return dict(zip(("sigma_relation", "block_unit", "block_upper", "block_lower"), self.residuals()))

    def max_residual(self):
        return np.max(self.residuals(), axis=0)

    def at(self, index) -> "MembershipReport":
        """The report of the stack members at ``index``, as an index of the
        stack axes reads them (index () for a single matrix)."""
        values = (np.asarray(v)[index] for v in (self.ok, *self.residuals()))
        return MembershipReport(*values, self.tol)

    def __str__(self) -> str:
        return (
            f"sigma={self.sigma_relation:.3e} unit={self.block_unit:.3e} "
            f"upper={self.block_upper:.3e} lower={self.block_lower:.3e} (tol={self.tol:.1e})"
        )


def _first_failure(ok):
    """None when the check ``ok`` holds, else the index of the first member
    where it fails.

    ``ok`` is one bool for a single element or an array for a batch.  The
    index of a single element is (), so ``np.asarray(v)[index]`` reads the
    failing value of a single element and of a batch member alike.
    """
    if ok is True or ok is np.True_:  # one element: skip the array round trip
        return None
    ok = np.asarray(ok)
    if ok.all():
        return None
    return np.unravel_index(int(np.argmin(ok)), ok.shape)


def _components(x, y, w):
    """Two real and one complex field: plain scalars, or broadcast arrays.

    Arrays of the right dtypes and one shape, as every batch in the package
    is built, are kept as they are: no broadcast views, no copies.
    """
    if getattr(x, "ndim", 0) == getattr(y, "ndim", 0) == getattr(w, "ndim", 0) == 0:
        return float(x), float(y), complex(w)
    x, y, w = np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(w, dtype=complex)
    if x.shape == y.shape == w.shape:
        return x, y, w
    return np.broadcast_arrays(x, y, w)


@dataclass(frozen=True)
class TriangularS:
    """Lower-triangular 2x2 matrix [[r1, 0], [r, r2]] with r1, r2 > 0.

    One element (float fields) or a batch (equal-shape arrays): the one type
    for points of the triangular chart, from a group element to a
    Monte-Carlo sample of 2^18 points.
    """

    r1: float
    r2: float
    r: complex

    def __post_init__(self):
        r1, r2, r = _components(self.r1, self.r2, self.r)
        if type(r1) is float:
            positive = r1 > 0.0 and r2 > 0.0
        else:  # one reduction, as batches are built on hot paths; NaN fails
            positive = np.minimum(r1, r2).min(initial=np.inf) > 0.0
        if not positive:
            bad = _first_failure((r1 > 0.0) & (r2 > 0.0))
            raise InvariantViolation(
                f"diagonal must be positive, got {np.asarray(r1)[bad]}, {np.asarray(r2)[bad]}"
            )
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)
        object.__setattr__(self, "r", r)

    @classmethod
    def identity(cls) -> "TriangularS":
        return cls(1.0, 1.0, 0.0)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "TriangularS":
        m = np.asarray(m, dtype=complex)
        limit = PRODUCT_TOL * np.maximum(1.0, frob(m))
        if _first_failure(abs(m[..., 0, 1]) <= limit) is not None:
            raise InvariantViolation("matrix is not lower triangular")
        real_diagonal = (abs(m[..., 0, 0].imag) <= limit) & (abs(m[..., 1, 1].imag) <= limit)
        if _first_failure(real_diagonal) is not None:
            raise InvariantViolation("diagonal is not real")
        return cls(m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0])

    def matrix(self) -> np.ndarray:
        out = np.zeros(getattr(self.r, "shape", ()) + (2, 2), dtype=complex)
        out[..., 0, 0] = self.r1
        out[..., 1, 0] = self.r
        out[..., 1, 1] = self.r2
        return out

    def multiply(self, other: "TriangularS") -> "TriangularS":
        """[[r1, 0], [r, r2]] [[p1, 0], [p, p2]] = [[r1 p1, 0], [r p1 + r2 p, r2 p2]]."""
        return TriangularS(self.r1 * other.r1, self.r2 * other.r2, self.r * other.r1 + self.r2 * other.r)

    def inverse(self) -> "TriangularS":
        """[[r1, 0], [r, r2]]^-1 = [[1/r1, 0], [-r/(r1 r2), 1/r2]].

        Where r1 r2 under- or overflows (is not a normal float), the corner is
        computed as (r/r1)/r2 instead.
        """
        r1, r2, r = self.r1, self.r2, self.r
        if type(r1) is float:
            d = r1 * r2
            return TriangularS(1.0 / r1, 1.0 / r2, -r / d if _NORMAL_MIN <= d <= _NORMAL_MAX else -(r / r1) / r2)
        with np.errstate(all="ignore"):  # the lanes that under- or overflow are replaced
            d = r1 * r2
            corner = np.where((d >= _NORMAL_MIN) & (d <= _NORMAL_MAX), -r / d, -(r / r1) / r2)
        return TriangularS(1.0 / r1, 1.0 / r2, corner)

    @property
    def size(self) -> int:
        """Number of elements: 1, or the size of a batch."""
        return int(np.size(self.r))

    def norm(self):
        """Frobenius norm sqrt(r1^2 + r2^2 + |r|^2), computed once per element
        or batch, because the sampler, the measures and the integrands of a
        batch all read it; callers must not write to the result.

        One element and a batch take the same formula, products instead of
        powers and NumPy's complex modulus, so they agree to rounding, not
        to the bit: ``np.abs`` of a long complex array is not hypot on about
        a third of its values.
        """
        cached = self.__dict__.get("_norm")
        if cached is None:
            modulus = np.abs(self.r)
            cached = np.sqrt(self.r1 * self.r1 + self.r2 * self.r2 + modulus * modulus)
            self.__dict__["_norm"] = cached
        return cached

    def distance(self, other: "TriangularS"):
        """Frobenius distance, by ``np.hypot``: no field squares, so no overflow."""
        return np.hypot(np.hypot(self.r1 - other.r1, self.r2 - other.r2), np.abs(self.r - other.r))


@dataclass(frozen=True)
class SkewHermitian2:
    """Skew-Hermitian 2x2 matrix [[i a, z], [-conj(z), i b]], a, b real.

    The parametrization keeps n + n* = 0 exact by construction.
    """

    a: float
    b: float
    z: complex

    def __post_init__(self):
        a, b, z = _components(self.a, self.b, self.z)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "z", z)

    @classmethod
    def zero(cls) -> "SkewHermitian2":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SkewHermitian2":
        # halves first: the sum of two entries near the float limit would overflow
        m = np.asarray(m, dtype=complex)
        half = m / 2.0
        if _first_failure(frob(half + adjoint(half)) <= PRODUCT_TOL / 2.0 * np.maximum(1.0, frob(m))) is not None:
            raise InvariantViolation("matrix is not skew-Hermitian at tolerance")
        return cls.skew_part(m)

    @classmethod
    def skew_part(cls, m: np.ndarray) -> "SkewHermitian2":
        """The skew-Hermitian part (m - m*) / 2 of any 2x2 m, unchecked; the
        halves are taken first, so no entry of a finite m overflows."""
        z = m[..., 0, 1] / 2.0 - np.conj(m[..., 1, 0]) / 2.0
        return cls(m[..., 0, 0].imag, m[..., 1, 1].imag, z)

    def matrix(self) -> np.ndarray:
        out = np.empty(getattr(self.z, "shape", ()) + (2, 2), dtype=complex)
        out[..., 0, 0] = 1j * self.a
        out[..., 0, 1] = self.z
        out[..., 1, 0] = -np.conj(self.z)
        out[..., 1, 1] = 1j * self.b
        return out

    def add(self, other: "SkewHermitian2") -> "SkewHermitian2":
        return SkewHermitian2(self.a + other.a, self.b + other.b, self.z + other.z)

    def neg(self) -> "SkewHermitian2":
        return SkewHermitian2(-self.a, -self.b, -self.z)

    def conjugate_by(self, s: TriangularS) -> "SkewHermitian2":
        """Closed form of s n s*: the image is again of this form, so it
        stays exactly skew-Hermitian.  |r| is hypot on a point and a stack
        alike, as in the orbit chart; NumPy's complex abs on a stack is not."""
        a, r1, r2, r = self.a, s.r1, s.r2, s.r
        modulus = np.hypot(r.real, r.imag)
        return SkewHermitian2(
            a * r1 * r1,
            a * (modulus * modulus) + self.b * r2 * r2 + 2.0 * r2 * (r * self.z).imag,
            r1 * (1j * a * r.conjugate() + r2 * self.z),
        )

    def norm(self):
        """Frobenius norm sqrt(a^2 + b^2 + 2 |z|^2), by ``np.hypot``: no overflow."""
        return np.hypot(np.hypot(self.a, self.b), math.sqrt(2.0) * np.abs(self.z))

    def distance(self, other: "SkewHermitian2"):
        return self.add(other.neg()).norm()


@dataclass(frozen=True)
class QElement:
    """Element (s, n) of the triangular group, for the block matrix
    [[s*^-1, 0], [X, s]] with X = n s*^-1; product (s1 s2, n1 + s1 n2 s1*).

    Since n is skew-Hermitian by construction, s X* + X s* = n* + n = 0
    holds exactly: no element needs validating beyond its chart fields.
    """

    s: TriangularS
    n: SkewHermitian2

    @classmethod
    def identity(cls) -> "QElement":
        return cls(TriangularS.identity(), SkewHermitian2.zero())

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "QElement":
        """Read (s, n) off block matrices [[s*^-1, 0], [X, s]], one or a
        stack, with n = X s*; raises ``InvariantViolation`` when a block, or
        the skew-Hermiticity of X s*, misses at ``PRODUCT_TOL``."""
        m = np.asarray(m, dtype=complex)
        g11, g12, g21, g22 = blocks(m)
        limit = PRODUCT_TOL * np.maximum(1.0, frob(m))
        if _first_failure(frob(g12) <= limit) is not None:
            raise InvariantViolation("upper-right block not zero")
        s = TriangularS.from_matrix(g22)
        if _first_failure(frob(g11 - adjoint(s.inverse().matrix())) <= limit) is not None:
            raise InvariantViolation("upper-left block is not s*^-1")
        return cls(s, SkewHermitian2.from_matrix(g21 @ adjoint(s.matrix())))

    @property
    def x(self) -> np.ndarray:
        """The lower-left block X = n s*^-1, computed once per element or
        batch; read-only."""
        cached = self.__dict__.get("_x")
        if cached is None:
            cached = self.n.matrix() @ adjoint(self.s.inverse().matrix())
            cached.setflags(write=False)
            self.__dict__["_x"] = cached
        return cached

    def matrix(self) -> np.ndarray:
        sinv_star = adjoint(self.s.inverse().matrix())
        return assemble(sinv_star, np.zeros((2, 2)), self.x, self.s.matrix())

    def distance(self, other: "QElement"):
        """Distance of the (s, X) pairs: |s - s'| and |X - X'| in quadrature."""
        return np.hypot(self.s.distance(other.s), frob(self.x - other.x))

    def is_identity(self) -> bool:
        return self.distance(QElement.identity()) <= IDENTITY_TOL


def is_in_u22(m: np.ndarray, tol: float = CHAIN_TOL) -> MembershipReport:
    """Membership test: each block relation relative to the size of its terms.

    g S g* = S is equivalent to the three block relations

        g11 g22* + g12 g21* = e,   g11 g12* + g12 g11* = 0,
        g21 g22* + g22 g21* = 0,

    the blocks of D = g S g* - S.  Each block row of g, T = [g11 g12] and
    B = [g21 g22], is first divided by the power of two just above its
    largest entry (exactly, as ``frob`` scales); the residuals are the
    blocks of D for the scaled rows, and ``sigma_relation`` is its norm.
    So each relation is divided by a bound on its products, within a factor
    8 of |T||B|, |T|^2 or |B|^2 (the componentwise bound of Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3): no scale of g
    hides a violation, a block far smaller than its row does not inflate
    one, and no product over- or underflows.

    ``m`` is one 4x4 matrix or a stack (..., 4, 4); for a stack the report
    holds one entry per member.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise U22Error(f"expected 4x4 matrices, got {m.shape}")
    rows, shift = pow2_scaled(m.reshape(m.shape[:-2] + (2, 2, 4)))
    g = rows.reshape(m.shape)
    # e scales as the rows do; past 2^500 the relation fails anyway, and the cap keeps |D|^2 finite
    d = g @ SIGMA @ adjoint(g) - np.ldexp(_SIGMA_REAL, np.minimum(shift.sum(axis=-1), 500)[..., None, None])
    block_sq = (np.abs(d) ** 2).reshape(m.shape[:-2] + (2, 2, 2, 2)).sum(axis=(-3, -1))
    sigma, rel = np.sqrt(block_sq.sum(axis=(-2, -1))), np.sqrt(block_sq)
    # [()] reads one element's entries as scalars
    return MembershipReport(sigma <= tol, sigma, rel[..., 0, 1][()], rel[..., 0, 0][()], rel[..., 1, 1][()], tol)


@dataclass(frozen=True, eq=False)
class U22Element:
    """An ambient group element, one or a stack, validated on construction;
    ``report`` is the membership report of that validation."""

    m: np.ndarray = field(repr=False)
    tol: float = CHAIN_TOL
    report: MembershipReport = field(init=False, repr=False)

    def __post_init__(self):
        m = freeze(self.m)
        object.__setattr__(self, "m", m)
        report = is_in_u22(m, self.tol)
        bad = _first_failure(report.ok)
        if bad is not None:
            raise NotInGroup(report.at(bad))
        object.__setattr__(self, "report", report)

    def __getitem__(self, index) -> "U22Element":
        """Members of a stack, as a smaller stack or a single element, with
        their entries of this stack's report: no member is validated again.

        ``index`` reads the stack axes only, as it reads the report's arrays.
        """
        stack_index = index if isinstance(index, tuple) else (index,)
        m = self.m[stack_index + (slice(None), slice(None))]
        m.setflags(write=False)  # a fancy index copies
        members = object.__new__(U22Element)
        for name, value in (("m", m), ("tol", self.tol), ("report", self.report.at(index))):
            object.__setattr__(members, name, value)
        return members

    def multiply(self, other: "U22Element") -> "U22Element":
        return U22Element(self.m @ other.m, tol=max(self.tol, other.tol))

    def inverse(self) -> "U22Element":
        # g^-1 = S g* S follows from the defining relation; no linear solve.
        return U22Element(SIGMA @ adjoint(self.m) @ SIGMA, tol=self.tol)

@dataclass(frozen=True, eq=False)
class KElement:
    """Compact-part element: unitary, block shape [[alpha, beta], [beta, alpha]].

    One matrix or a stack (..., 4, 4).  Validation reads the residuals off
    one product D = k k* - e: with the block shape in place, the relations
    alpha alpha* + beta beta* = e and alpha beta* + beta alpha* = 0 are D's
    top-left and top-right blocks, so |D| bounds both.  Both residuals are
    checked at ``PRODUCT_TOL``.
    """

    m: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = freeze(self.m)
        object.__setattr__(self, "m", m)
        g11, g12, g21, g22 = blocks(m)
        size = frob(m)
        r_unitary = frob(m @ adjoint(m) - E4) / np.maximum(1.0, size * size)
        r_shape = (frob(g11 - g22) + frob(g12 - g21)) / np.maximum(1.0, size)
        worst = np.maximum(r_unitary, r_shape)
        bad = _first_failure(worst <= PRODUCT_TOL)
        if bad is not None:
            raise InvariantViolation(
                f"compact-part residual {np.asarray(worst)[bad]:.3e} above {PRODUCT_TOL:.1e}"
            )

    def multiply(self, other: "KElement") -> "KElement":
        return KElement(self.m @ other.m)


# ---------------------------------------------------------------------------
# the group law


def q_join(join, members) -> QElement:
    """The element whose every field is ``join`` of the list of that field
    over ``members``: ``q_join(np.stack, qs)`` stacks them on a new axis."""
    s = TriangularS(*(join([getattr(q.s, name) for q in members]) for name in ("r1", "r2", "r")))
    return QElement(s, SkewHermitian2(*(join([getattr(q.n, name) for q in members]) for name in ("a", "b", "z"))))


def q_multiply(q1: QElement, q2: QElement) -> QElement:
    return QElement(q1.s.multiply(q2.s), q1.n.add(q2.n.conjugate_by(q1.s)))


def q_inverse(q: QElement) -> QElement:
    s_inv = q.s.inverse()
    return QElement(s_inv, q.n.neg().conjugate_by(s_inv))


# ---------------------------------------------------------------------------
# structured factorization and the triangular-times-compact decomposition


def structured_p_factor(m: np.ndarray, tol: float = PRODUCT_TOL) -> QElement:
    """Triangular factor p with p p* = m.

    Not used by the factorization (``iwasawa_decompose`` never forms g g*);
    kept for the benchmark's tracer, which looks it up by name.

    Requires m Hermitian positive-definite with m S m = S.  The factor is
    read off blockwise: (s s*)^-1 = m11 gives s = chol(m11^-1), then
    X = m21 s and n = X s*.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise NotFactorizable(f"expected 4x4 matrix, got {m.shape}")
    scale = max(1.0, frob(m))
    if frob(m - adjoint(m)) > tol * scale:
        raise NotFactorizable("input is not Hermitian")
    if frob(m @ SIGMA @ m - SIGMA) > tol * scale * scale:
        raise NotFactorizable("input does not satisfy m.sigma.m = sigma")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= tol * scale:
        raise NotFactorizable(f"input not positive definite (min eig {eigs[0]:.3e})")
    # s = chol(m11^-1) in the fused closed form, which skips the rounding
    # stage of forming the inverse
    a, d, c = m[0, 0].real, m[1, 1].real, m[1, 0]
    det = a * d - abs(c) ** 2
    scale11 = frob(m[:2, :2])
    if d <= MINOR_TOL_FACTOR * scale11 or det <= MINOR_TOL_FACTOR * scale11 * scale11:
        raise NotFactorizable("upper-left block is not positive definite")
    s_mat = np.array([[math.sqrt(d / det), 0.0], [-c / math.sqrt(d * det), 1.0 / math.sqrt(d)]])
    x = m[2:, :2] @ s_mat
    n = x @ adjoint(s_mat)
    skew = frob(n + adjoint(n))  # = |s X* + X s*|
    if skew > PRODUCT_TOL * max(1.0, frob(s_mat) * frob(x)):
        raise NotFactorizable(f"relative skew-Hermiticity residual {skew:.3e}")
    p = QElement(TriangularS.from_matrix(s_mat), SkewHermitian2.skew_part(n))
    residual = frob(p.matrix() @ adjoint(p.matrix()) - m)
    if residual > tol * scale:
        raise NotFactorizable(f"reconstruction residual {residual:.3e}")
    return p


def _rq_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factors u of 2x2 matrices m = a u, a upper triangular with
    positive diagonal, for a stack (..., 2, 2).

    Bottom-up row Gram-Schmidt: the bottom row of u is the bottom row of m,
    normalized; the top row is the top row of m orthogonalized against it
    twice (one re-orthogonalization is enough) and normalized.  Each row is
    first divided by an exact power of two near its largest part, which
    keeps the squares in the norms clear of under- and overflow at any
    scale and changes no bit of u where they were clear already.  ``m``
    must be C-contiguous.
    """
    parts = m.view(float)  # the real and imaginary parts of each row
    m = np.ldexp(parts, -np.frexp(np.abs(parts).max(axis=-1, keepdims=True))[1]).view(complex)
    low = m[..., 1, :]
    low = low / np.linalg.norm(low, axis=-1, keepdims=True)
    top = m[..., 0, :]
    for _ in range(2):
        top = top - np.sum(top * low.conj(), axis=-1, keepdims=True) * low
    return np.stack((top / np.linalg.norm(top, axis=-1, keepdims=True), low), axis=-2)


def _factor(m: np.ndarray) -> tuple[QElement, np.ndarray]:
    """The p k factorization of 4x4 matrices in U(2,2), one or a stack;
    returns p and the matrix of k; every gate is at ``PRODUCT_TOL``.

    With p = [[A, 0], [X, s]], A = s*^-1, and k = [[alpha, beta], [beta,
    alpha]], the top blocks of g = p k are g11 = A alpha and g12 = A beta, so
    g11 + g12 = A u and g11 - g12 = A v for the unitaries u = alpha + beta and
    v = alpha - beta: both are RQ factors with the same triangular A.  k is
    built from u and v, and p = g k* is one product.  Its top-left block is
    the triangular factor A, which Gram-Schmidt computes to working accuracy,
    so s is read from there; the bottom-right block must agree with it.  The
    lower-left block enters through n = X s*, whose skew-Hermitian part is
    kept, so p is a ``QElement`` with no constraint left to check.  k has the
    compact block shape by construction; its unitarity is left to the caller.
    """
    g11, g12, _, _ = blocks(m)
    # a singular or overflowing input gives non-finite factors, which every
    # gate below rejects (a NaN compares false)
    with np.errstate(all="ignore"):
        u, v = _rq_unitary(np.stack((g11 + g12, g11 - g12)))
        alpha, beta = (u + v) / 2.0, (u - v) / 2.0
    k = assemble(alpha, beta, beta, alpha)
    scale = np.maximum(1.0, frob(m))  # = max(1, |g k*|), as k is unitary
    try:
        a, zero, x, b = blocks(m @ adjoint(k))
        s = TriangularS.from_matrix(adjoint(a)).inverse()
        limit = PRODUCT_TOL * scale
        if _first_failure(frob(zero) <= limit) is not None:
            raise InvariantViolation("upper-right block not zero")
        if _first_failure(frob(b - s.matrix()) <= limit) is not None:
            raise InvariantViolation("lower-right block is not (upper-left block)*^-1")
        p = QElement(s, SkewHermitian2.skew_part(x @ adjoint(s.matrix())))
    except InvariantViolation as exc:
        raise DecompositionFailed(f"factor invalid: {exc}") from exc
    residual = frob(p.matrix() @ k - m) / scale
    bad = _first_failure(residual <= PRODUCT_TOL)
    if bad is not None:
        raise DecompositionFailed(f"reconstruction residual {np.asarray(residual)[bad]:.3e}")
    return p, k


def iwasawa_decompose(g: U22Element) -> tuple[QElement, KElement]:
    """Unique factorization g = p k with p triangular and k compact.

    ``g`` holds one element or a stack; p and k come back in the same shape.
    The factors are read off the top blocks of g (see ``_factor``): two 2x2
    RQ factorizations by Gram-Schmidt with one re-orthogonalization, then
    p = g k*.  No g g* is formed, so the conditioning of s is not squared:
    |k k* - e| stays at rounding level and the relative residual
    |p k - g| / |g| below u cond(s) (u = eps / 2, the unit roundoff),
    tested for cond(s) from 10 to 1e6 with unit-size n = X s*.  Gates: the
    block shape of g k* and |p k - g| <= tol max(1, |g|), and the compact
    part (``KElement``), all at tol = ``PRODUCT_TOL``.
    A rejection, beyond the tested range or on a singular input, is a
    ``DecompositionFailed``.
    """
    p, k = _factor(g.m)
    try:
        return p, KElement(k)
    except InvariantViolation as exc:
        raise DecompositionFailed(f"compact factor invalid: {exc}") from exc


def p_part(m: np.ndarray) -> QElement:
    """The triangular factor p of m = p k, for m a product of validated group
    elements (one or a stack); raises ``DecompositionFailed``.

    The kernel and gates of ``iwasawa_decompose``, except that k, which is
    discarded, is not validated: Gram-Schmidt makes it unitary to rounding,
    and a non-finite k fails the gates on p.
    """
    return _factor(m)[0]


def sigma_hat(p: QElement) -> QElement:
    """The involution partner p^: the triangular part of sigma p = p^ k^.

    Then p^ p^* = sigma p p* sigma, since k^ is unitary.
    """
    return p_part(SIGMA @ p.matrix())


# ---------------------------------------------------------------------------
# commutators


def nested_q_commutator(qs: list[QElement]) -> QElement:
    """Balanced nested commutator of 2^d semidirect pairs; each commutator
    [q1, q2] = q1 q2 q1^-1 q2^-1 is taken in closed form throughout."""
    n = len(qs)
    if n == 1:
        return qs[0]
    if n % 2 != 0:
        raise ValueError("need a power-of-two number of elements")
    q1, q2 = nested_q_commutator(qs[: n // 2]), nested_q_commutator(qs[n // 2 :])
    return q_multiply(q_multiply(q_multiply(q1, q2), q_inverse(q1)), q_inverse(q2))


# ---------------------------------------------------------------------------
# random samplers (deterministic per seed; one generator per task)


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ``size`` None draws one element; an integer draws a batch of that many, in
# one generator call per field.


def random_s(seed, size: int | tuple[int, ...] | None = None) -> TriangularS:
    """r1, r2 log-uniform on [e^-2, e^2]; r standard complex Gaussian."""
    rng = as_generator(seed)
    # -2 + 4 u is rng.uniform(-2, 2) to the bit, without its per-call overhead
    r1 = np.exp(-2.0 + 4.0 * rng.random(size))
    r2 = np.exp(-2.0 + 4.0 * rng.random(size))
    r = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return TriangularS(r1, r2, r)


def random_n(seed, size: int | tuple[int, ...] | None = None) -> SkewHermitian2:
    rng = as_generator(seed)
    a = rng.standard_normal(size)
    b = rng.standard_normal(size)
    return SkewHermitian2(a, b, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def random_q(seed, size: int | tuple[int, ...] | None = None) -> QElement:
    rng = as_generator(seed)
    return QElement(random_s(rng, size), random_n(rng, size))


def random_p(seed, size: int | None = None) -> QElement:
    """``random_q``; kept for the benchmark's tracer, which looks it up by name."""
    return random_q(seed, size)


def _haar_u2(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar unitaries (*shape, 2, 2); each draws its real, then its imaginary part."""
    z = rng.standard_normal(shape + (2, 2, 2))
    q, r = np.linalg.qr((z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_k(seed, size: int | None = None) -> KElement:
    """Haar-ish compact element via a pair of random 2x2 unitaries; a batch
    draws one (size, 4, 2, 2) normal block, the stream of ``size`` single draws."""
    u, v = np.moveaxis(_haar_u2(as_generator(seed), (2,) if size is None else (size, 2)), -3, 0)
    alpha = (u + v) / 2.0
    beta = (u - v) / 2.0
    return KElement(assemble(alpha, beta, beta, alpha))


def random_u22(seed, size: int | None = None) -> U22Element:
    """exp of a random algebra combination, rescaled to norm <= ``RANDOM_U22_RADIUS``.

    A batch draws its coefficients as one (size, 16) block, the same stream
    as ``size`` single draws.
    """
    rng = as_generator(seed)
    coeffs = rng.standard_normal(len(lie.U22_BASIS) if size is None else (size, len(lie.U22_BASIS)))
    xi = np.tensordot(coeffs, lie.U22_BASIS, axes=1)
    xi = xi * (RANDOM_U22_RADIUS / np.maximum(frob(xi), RANDOM_U22_RADIUS))[..., None, None]
    return U22Element(matrix_exp(xi), tol=CONSTRUCTION_TOL)


# ---------------------------------------------------------------------------
# JSON encoding (tagged unions over the shared matrix encoding)


def _s_to_json(s: TriangularS) -> dict:
    return {"r1": s.r1, "r2": s.r2, "r": [s.r.real, s.r.imag]}


def element_to_json(el) -> dict:
    if isinstance(el, QElement):
        return {"kind": "p", "data": {"s": _s_to_json(el.s), "x": matrix_to_json(el.x)}}
    if isinstance(el, KElement):
        return {"kind": "k", "data": {"m": matrix_to_json(el.m)}}
    raise TypeError(f"cannot encode {type(el).__name__}")
