"""Block elements of the pseudo-unitary group and its triangular subgroup.

The ambient group is the set of 4x4 complex matrices g with g S g* = S,
where S is the block swap ``matrices.SIGMA``.  Inside it live:

* ``SkewHermitian2`` n, embedded as [[e, 0], [n, e]] (an additive group);
* ``TriangularS`` s (lower triangular, positive diagonal), embedded as
  block diag(s*^-1, s);
* ``PElement`` (s, X), embedded as [[s*^-1, 0], [X, s]] with the relative
  skew-Hermiticity constraint s X* + X s* = 0;
* ``QElement`` (s, n), the same group in semidirect-product coordinates,
  with product (s1 s2, n1 + s1 n2 s1*);
* ``KElement``, the compact part: unitary members, block shape
  [[alpha, beta], [beta, alpha]].

The coordinate change between P and Q is (s, X) -> (s, X s*), inverse
(s, n) -> (s, n (s*)^-1).

Every ambient element factors uniquely as g = p k.  ``iwasawa_decompose``
reads the factors off the top blocks of g: g11 + g12 = s*^-1 u and
g11 - g12 = s*^-1 v with u, v unitary, so u and v come from two 2x2 RQ
factorizations (row Gram-Schmidt, re-orthogonalized once), k from u and v,
and p = g k*.  Nothing squares the conditioning of s, as a factorization of
g g* would.  The relative residual |p k - g| / |g| grows like the unit
roundoff u times cond(s); the tests hold it below u cond(s) on a
conditioning ladder from cond(s) = 10 to 1e6 (unit-size n = X s*), where
every gate passes at the default tolerance 1e-10.  Beyond that range the
gates start to reject, always with ``DecompositionFailed``.  ``sigma_hat``
and ``extension.act_k`` use the same kernel through ``p_part``.

Batch-first: the fields of ``TriangularS`` and ``SkewHermitian2`` are
Python scalars for one element or equal-shape arrays for a batch, and the
matrices of ``PElement``, ``KElement`` and ``U22Element`` are one matrix or
a stack (..., n, n).  Every method, the coordinate changes and the
membership test work on both, and a batch is validated member by member at
the tolerance of the scalar constructor; a failing batch raises the error
of its first failing member.  The closed forms on chart components
(``s_product``, ``s_inverse``, ``n_conjugate``) exist once and are shared
with the batched chart points in ``points``.  The samplers draw a batch in
one call when given ``size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lie
from .matrices import (
    E2,
    E4,
    MINOR_TOL_FACTOR as MINOR_TOL,
    SIGMA,
    adjoint,
    assemble,
    blocks,
    freeze,
    frob,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "InvariantViolation",
    "NotFactorizable",
    "DecompositionFailed",
    "NotInGroup",
    "MembershipReport",
    "s_product",
    "s_inverse",
    "n_conjugate",
    "TriangularS",
    "SkewHermitian2",
    "PElement",
    "QElement",
    "KElement",
    "U22Element",
    "is_in_u22",
    "embed_n",
    "embed_s",
    "embed_p",
    "p_to_q",
    "q_to_p",
    "q_multiply",
    "q_inverse",
    "p_from_matrix",
    "structured_p_factor",
    "iwasawa_decompose",
    "p_part",
    "sigma_hat",
    "q_commutator",
    "nested_q_commutator",
    "is_n_shaped",
    "is_s_shaped",
    "as_generator",
    "random_s",
    "random_n",
    "random_q",
    "random_p",
    "random_k",
    "random_u22",
    "element_to_json",
    "element_from_json",
]

# Tolerance ladder: construction, one product, long chains.
CONSTRUCTION_TOL = 1e-12
PRODUCT_TOL = 1e-10
CHAIN_TOL = 1e-9

# Type-level validation is slightly looser than the construction rung so that
# round trips through ill-conditioned triangular factors never reject their
# own output.
VALIDATION_TOL = 1e-10


class InvariantViolation(ValueError):
    """A typed element failed its structural invariant."""


class NotFactorizable(ValueError):
    """The input is outside the domain of the structured factorization."""


class DecompositionFailed(RuntimeError):
    """A factorization produced a residual above tolerance."""


class NotInGroup(ValueError):
    """A matrix failed the ambient-group membership residuals."""

    def __init__(self, report: "MembershipReport"):
        super().__init__(f"not a group member: {report}")
        self.report = report


@dataclass(frozen=True)
class MembershipReport:
    """The four membership residuals, normalized by max(1, |g|_F^2).

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

    def max_residual(self):
        return np.max(self.residuals(), axis=0)

    def at(self, index) -> "MembershipReport":
        """The report of one stack member (index () for a single matrix)."""
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
    """Two real and one complex field: plain scalars, or broadcast arrays."""
    if getattr(x, "ndim", 0) == getattr(y, "ndim", 0) == getattr(w, "ndim", 0) == 0:
        return float(x), float(y), complex(w)
    return np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(w, dtype=complex)
    )


# ---------------------------------------------------------------------------
# closed forms on chart components: scalars or arrays (which broadcast) in,
# the same kind out


def s_product(r1, r2, r, p1, p2, p):
    """[[r1, 0], [r, r2]] [[p1, 0], [p, p2]] = [[r1 p1, 0], [r p1 + r2 p, r2 p2]]."""
    return r1 * p1, r2 * p2, r * p1 + r2 * p


def s_inverse(r1, r2, r):
    """[[r1, 0], [r, r2]]^-1 = [[1/r1, 0], [-r/(r1 r2), 1/r2]]."""
    return 1.0 / r1, 1.0 / r2, -r / (r1 * r2)


def n_conjugate(a, b, z, r1, r2, r):
    """s n s* for n = [[i a, z], [-conj(z), i b]]; the image is again of that
    form, so it stays exactly skew-Hermitian."""
    return (
        a * r1 * r1,
        a * abs(r) ** 2 + b * r2 * r2 + 2.0 * r2 * (r * z).imag,
        r1 * (1j * a * r.conjugate() + r2 * z),
    )


@dataclass(frozen=True)
class TriangularS:
    """Lower-triangular 2x2 matrix [[r1, 0], [r, r2]] with r1, r2 > 0."""

    r1: float
    r2: float
    r: complex

    def __post_init__(self):
        r1, r2, r = _components(self.r1, self.r2, self.r)
        bad = _first_failure((r1 > 0.0) & (r2 > 0.0))
        if bad is not None:
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
    def from_matrix(cls, m: np.ndarray, tol: float = VALIDATION_TOL) -> "TriangularS":
        m = np.asarray(m, dtype=complex)
        limit = tol * np.maximum(1.0, frob(m))
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
        return TriangularS(*s_product(self.r1, self.r2, self.r, other.r1, other.r2, other.r))

    def inverse(self) -> "TriangularS":
        return TriangularS(*s_inverse(self.r1, self.r2, self.r))

    def norm(self):
        """Frobenius norm sqrt(r1^2 + r2^2 + |r|^2)."""
        return np.sqrt(self.r1**2 + self.r2**2 + abs(self.r) ** 2)

    def scale(self, c: float) -> "TriangularS":
        if c <= 0:
            raise InvariantViolation("scale factor must be positive")
        return TriangularS(c * self.r1, c * self.r2, c * self.r)

    def distance(self, other: "TriangularS"):
        return np.sqrt(
            (self.r1 - other.r1) ** 2 + (self.r2 - other.r2) ** 2 + abs(self.r - other.r) ** 2
        )


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
    def from_matrix(cls, m: np.ndarray, tol: float = VALIDATION_TOL) -> "SkewHermitian2":
        m = np.asarray(m, dtype=complex)
        if _first_failure(frob(m + adjoint(m)) <= tol * np.maximum(1.0, frob(m))) is not None:
            raise InvariantViolation("matrix is not skew-Hermitian at tolerance")
        return cls.skew_part(m)

    @classmethod
    def skew_part(cls, m: np.ndarray) -> "SkewHermitian2":
        """The skew-Hermitian part (m - m*) / 2 of any 2x2 m, unchecked."""
        z = (m[..., 0, 1] - np.conj(m[..., 1, 0])) / 2.0
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

    def scale(self, t: float) -> "SkewHermitian2":
        return SkewHermitian2(t * self.a, t * self.b, t * self.z)

    def conjugate_by(self, s: TriangularS) -> "SkewHermitian2":
        """Closed form of s n s*, staying exactly skew-Hermitian."""
        return SkewHermitian2(*n_conjugate(self.a, self.b, self.z, s.r1, s.r2, s.r))

    def norm(self):
        return np.sqrt(self.a**2 + self.b**2 + 2.0 * abs(self.z) ** 2)

    def distance(self, other: "SkewHermitian2"):
        return self.add(other.neg()).norm()


@dataclass(frozen=True, eq=False)
class PElement:
    """Pair (s, X) for the block matrix [[s*^-1, 0], [X, s]].

    The lower-left block satisfies the relative skew-Hermiticity
    s X* + X s* = 0; construction validates it.
    """

    s: TriangularS
    x: np.ndarray = field(repr=False)

    def __post_init__(self):
        x = freeze(self.x)
        if x.shape[-2:] != (2, 2):
            raise InvariantViolation(f"X must be 2x2, got {x.shape}")
        object.__setattr__(self, "x", x)
        smat = self.s.matrix()
        residual = frob(smat @ adjoint(x) + x @ adjoint(smat))
        scale = np.maximum(1.0, frob(smat) * frob(x))
        bad = _first_failure(residual <= VALIDATION_TOL * scale)
        if bad is not None:
            raise InvariantViolation(
                f"relative skew-Hermiticity residual {np.asarray(residual)[bad]:.3e}"
            )

    @classmethod
    def identity(cls) -> "PElement":
        return cls(TriangularS.identity(), np.zeros((2, 2)))

    def matrix(self) -> np.ndarray:
        smat = self.s.matrix()
        sinv_star = adjoint(self.s.inverse().matrix())
        return assemble(sinv_star, np.zeros((2, 2)), self.x, smat)

    def multiply(self, other: "PElement") -> "PElement":
        # (s1, X1)(s2, X2) = (s1 s2, X1 s2*^-1 + s1 X2)
        s2_inv_star = adjoint(other.s.inverse().matrix())
        x12 = self.x @ s2_inv_star + self.s.matrix() @ other.x
        return PElement(self.s.multiply(other.s), x12)

    def inverse(self) -> "PElement":
        s_inv = self.s.inverse()
        x_inv = -(s_inv.matrix() @ self.x @ adjoint(s_inv.matrix()))
        return PElement(s_inv, x_inv)

    def distance(self, other: "PElement"):
        return np.sqrt(self.s.distance(other.s) ** 2 + frob(self.x - other.x) ** 2)

    def is_identity(self, tol: float = 1e-13) -> bool:
        return self.distance(PElement.identity()) <= tol


@dataclass(frozen=True)
class QElement:
    """Semidirect-product coordinates (s, n); product (s1 s2, n1 + s1 n2 s1*)."""

    s: TriangularS
    n: SkewHermitian2

    @classmethod
    def identity(cls) -> "QElement":
        return cls(TriangularS.identity(), SkewHermitian2.zero())

    def is_translation(self, tol: float = 1e-13) -> bool:
        return self.n.norm() <= tol

    def is_character_direction(self, tol: float = 1e-13) -> bool:
        return self.s.distance(TriangularS.identity()) <= tol


def is_in_u22(m: np.ndarray, tol: float = CHAIN_TOL) -> MembershipReport:
    """Membership test with the four residuals, each normalized by max(1, |g|^2).

    One product D = g S g* - S gives all four: |D| is the defining relation
    g S g* = S, and D's top-right, top-left and bottom-right blocks are the
    three block relations it is equivalent to:

        g12 g21* + g11 g22* = e,   g11 g12* + g12 g11* = 0,
        g22 g21* + g21 g22* = 0.

    ``m`` is one 4x4 matrix or a stack (..., 4, 4); for a stack the report
    holds one entry per member.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got {m.shape}")
    d = m @ SIGMA @ adjoint(m) - SIGMA
    d11, d12, _, d22 = blocks(d)
    scale = np.maximum(1.0, frob(m) ** 2)
    residuals = [frob(block) / scale for block in (d, d12, d11, d22)]
    ok = np.max(residuals, axis=0) <= tol
    return MembershipReport(ok, *residuals, tol)


@dataclass(frozen=True, eq=False)
class U22Element:
    """An ambient group element, validated on construction."""

    m: np.ndarray = field(repr=False)
    tol: float = CHAIN_TOL

    def __post_init__(self):
        m = freeze(self.m)
        object.__setattr__(self, "m", m)
        report = is_in_u22(m, self.tol)
        bad = _first_failure(report.ok)
        if bad is not None:
            raise NotInGroup(report.at(bad))

    @classmethod
    def identity(cls) -> "U22Element":
        return cls(E4)

    def __getitem__(self, index) -> "U22Element":
        """Members of a stack, as a smaller stack or a single element."""
        return U22Element(self.m[index], tol=self.tol)

    def multiply(self, other: "U22Element") -> "U22Element":
        return U22Element(self.m @ other.m, tol=max(self.tol, other.tol))

    def inverse(self) -> "U22Element":
        # g^-1 = S g* S follows from the defining relation; no linear solve.
        return U22Element(SIGMA @ adjoint(self.m) @ SIGMA, tol=self.tol)

    def distance(self, other: "U22Element"):
        return frob(self.m - other.m)


@dataclass(frozen=True, eq=False)
class KElement:
    """Compact-part element: unitary, block shape [[alpha, beta], [beta, alpha]].

    One matrix or a stack (..., 4, 4).  Validation reads the residuals off
    one product D = k k* - e: with the block shape in place, the relations
    alpha alpha* + beta beta* = e and alpha beta* + beta alpha* = 0 are D's
    top-left and top-right blocks, so |D| bounds both.
    """

    m: np.ndarray = field(repr=False)
    tol: float = CHAIN_TOL

    def __post_init__(self):
        m = freeze(self.m)
        object.__setattr__(self, "m", m)
        g11, g12, g21, g22 = blocks(m)
        size = frob(m)
        r_unitary = frob(m @ adjoint(m) - E4) / np.maximum(1.0, size**2)
        r_shape = (frob(g11 - g22) + frob(g12 - g21)) / np.maximum(1.0, size)
        worst = np.maximum(r_unitary, r_shape)
        bad = _first_failure(worst <= self.tol)
        if bad is not None:
            raise InvariantViolation(
                f"compact-part residual {np.asarray(worst)[bad]:.3e} above {self.tol:.1e}"
            )

    @classmethod
    def identity(cls) -> "KElement":
        return cls(E4)

    @property
    def alpha(self) -> np.ndarray:
        return self.m[..., :2, :2]

    @property
    def beta(self) -> np.ndarray:
        return self.m[..., :2, 2:]

    def multiply(self, other: "KElement") -> "KElement":
        return KElement(self.m @ other.m, tol=max(self.tol, other.tol))

    def inverse(self) -> "KElement":
        return KElement(adjoint(self.m), tol=self.tol)

    def as_u22(self) -> U22Element:
        return U22Element(self.m, tol=self.tol)


# ---------------------------------------------------------------------------
# embeddings and coordinate changes


def embed_n(n: SkewHermitian2) -> U22Element:
    return U22Element(assemble(E2, np.zeros((2, 2)), n.matrix(), E2), tol=CONSTRUCTION_TOL)


def embed_s(s: TriangularS) -> U22Element:
    smat = s.matrix()
    return U22Element(
        assemble(adjoint(s.inverse().matrix()), np.zeros((2, 2)), np.zeros((2, 2)), smat),
        tol=CONSTRUCTION_TOL,
    )


def embed_p(p: PElement) -> U22Element:
    return U22Element(p.matrix(), tol=CONSTRUCTION_TOL)


def p_to_q(p: PElement) -> QElement:
    """Coordinate change (s, X) -> (s, X s*); the image is skew-Hermitian."""
    n_mat = p.x @ adjoint(p.s.matrix())
    return QElement(p.s, SkewHermitian2.from_matrix(n_mat))


def q_to_p(q: QElement) -> PElement:
    """Inverse coordinate change (s, n) -> (s, n (s*)^-1)."""
    x = q.n.matrix() @ adjoint(q.s.inverse().matrix())
    return PElement(q.s, x)


def q_multiply(q1: QElement, q2: QElement) -> QElement:
    return QElement(q1.s.multiply(q2.s), q1.n.add(q2.n.conjugate_by(q1.s)))


def q_inverse(q: QElement) -> QElement:
    s_inv = q.s.inverse()
    return QElement(s_inv, q.n.neg().conjugate_by(s_inv))


def p_from_matrix(m: np.ndarray, tol: float = PRODUCT_TOL) -> PElement:
    """Read a PElement off its 4x4 block matrix (validating the shape)."""
    m = np.asarray(m, dtype=complex)
    g11, g12, g21, g22 = blocks(m)
    limit = tol * np.maximum(1.0, frob(m))
    if _first_failure(frob(g12) <= limit) is not None:
        raise InvariantViolation("upper-right block not zero")
    s = TriangularS.from_matrix(g22, tol)
    if _first_failure(frob(g11 - adjoint(s.inverse().matrix())) <= limit) is not None:
        raise InvariantViolation("upper-left block is not s*^-1")
    return PElement(s, g21)


# ---------------------------------------------------------------------------
# structured factorization and the triangular-times-compact decomposition


def _triangular_factor_of_inverse(m11: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of m11^-1 without forming the inverse.

    For Hermitian positive-definite m11 the factor of the inverse has the
    fused closed form

        s11 = sqrt(m22/det),  s21 = -m21/sqrt(m22 det),  s22 = 1/sqrt(m22),

    which skips one rounding stage compared to invert-then-factor.
    """
    a = m11[0, 0].real
    d = m11[1, 1].real
    c = m11[1, 0]
    det = a * d - abs(c) ** 2
    scale = frob(m11)
    if d <= MINOR_TOL * scale or det <= MINOR_TOL * scale * scale:
        raise NotFactorizable("upper-left block is not positive definite")
    s11 = math.sqrt(d / det)
    s21 = -c / math.sqrt(d * det)
    s22 = 1.0 / math.sqrt(d)
    return np.array([[s11, 0.0], [s21, s22]], dtype=complex)


def structured_p_factor(m: np.ndarray, tol: float = PRODUCT_TOL) -> PElement:
    """Triangular factor p with p p* = m.

    Not used by the factorization (``iwasawa_decompose`` never forms g g*);
    kept for the benchmark's tracer, which looks it up by name.

    Requires m Hermitian positive-definite with m S m = S.  The factor is
    read off blockwise: (s s*)^-1 = m11 gives s = chol(m11^-1), then
    X = m21 s.
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
    m11 = m[:2, :2]
    m21 = m[2:, :2]
    s_mat = _triangular_factor_of_inverse(m11)
    s = TriangularS.from_matrix(s_mat)
    x = m21 @ s_mat
    try:
        p = PElement(s, x)
    except InvariantViolation as exc:
        raise NotFactorizable(str(exc)) from exc
    residual = frob(p.matrix() @ adjoint(p.matrix()) - m)
    if residual > tol * scale:
        raise NotFactorizable(f"reconstruction residual {residual:.3e}")
    return p


def _rq_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factors u of 2x2 matrices m = a u, a upper triangular with
    positive diagonal, for a stack (..., 2, 2).

    Bottom-up row Gram-Schmidt: the bottom row of u is the bottom row of m,
    normalized; the top row is the top row of m orthogonalized against it
    twice (one re-orthogonalization is enough) and normalized.
    """
    low = m[..., 1, :]
    low = low / np.linalg.norm(low, axis=-1, keepdims=True)
    top = m[..., 0, :]
    for _ in range(2):
        top = top - np.sum(top * low.conj(), axis=-1, keepdims=True) * low
    return np.stack((top / np.linalg.norm(top, axis=-1, keepdims=True), low), axis=-2)


def _factor(m: np.ndarray, tol: float) -> tuple[PElement, np.ndarray]:
    """The p k factorization of 4x4 matrices in U(2,2), one or a stack;
    returns p and the matrix of k.

    With p = [[A, 0], [X, s]], A = s*^-1, and k = [[alpha, beta], [beta,
    alpha]], the top blocks of g = p k are g11 = A alpha and g12 = A beta, so
    g11 + g12 = A u and g11 - g12 = A v for the unitaries u = alpha + beta and
    v = alpha - beta: both are RQ factors with the same triangular A.  k is
    built from u and v, and p = g k* is one product.  Its top-left block is
    the triangular factor A, which Gram-Schmidt computes to working accuracy,
    so s is read from there; the bottom-right block must agree with it.  The
    lower-left block enters through n = X s*, whose skew-Hermitian part is
    kept, so X satisfies s X* + X s* = 0 to rounding at any size.  k has the
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
        s = TriangularS.from_matrix(adjoint(a), tol).inverse()
        limit = tol * scale
        if _first_failure(frob(zero) <= limit) is not None:
            raise InvariantViolation("upper-right block not zero")
        if _first_failure(frob(b - s.matrix()) <= limit) is not None:
            raise InvariantViolation("lower-right block is not (upper-left block)*^-1")
        p = q_to_p(QElement(s, SkewHermitian2.skew_part(x @ adjoint(s.matrix()))))
    except InvariantViolation as exc:
        raise DecompositionFailed(f"factor invalid: {exc}") from exc
    residual = frob(p.matrix() @ k - m) / scale
    bad = _first_failure(residual <= tol)
    if bad is not None:
        raise DecompositionFailed(f"reconstruction residual {np.asarray(residual)[bad]:.3e}")
    return p, k


def iwasawa_decompose(g: U22Element, tol: float = PRODUCT_TOL) -> tuple[PElement, KElement]:
    """Unique factorization g = p k with p triangular and k compact.

    ``g`` holds one element or a stack; p and k come back in the same shape.
    The factors are read off the top blocks of g (see ``_factor``): two 2x2
    RQ factorizations by Gram-Schmidt with one re-orthogonalization, then
    p = g k*.  No g g* is formed, so the conditioning of s is not squared:
    |k k* - e| stays at rounding level and the relative residual
    |p k - g| / |g| below u cond(s) (u = eps / 2, the unit roundoff),
    tested for cond(s) from 10 to 1e6 with unit-size n = X s*.  Gates: the
    block shape of g k* at ``tol``, the P-element constraint,
    |p k - g| <= tol max(1, |g|), and the compact part at
    max(tol, CHAIN_TOL).  A rejection, beyond the tested range or on a
    singular input, is a ``DecompositionFailed``.
    """
    p, k = _factor(g.m, tol)
    try:
        return p, KElement(k, tol=max(tol, CHAIN_TOL))
    except InvariantViolation as exc:
        raise DecompositionFailed(f"compact factor invalid: {exc}") from exc


def p_part(m: np.ndarray) -> PElement:
    """The triangular factor p of m = p k, for m a product of validated group
    elements (one or a stack); raises ``DecompositionFailed``.

    The kernel and gates of ``iwasawa_decompose``, except that k, which is
    discarded, is not validated: Gram-Schmidt makes it unitary to rounding,
    and a non-finite k fails the gates on p.
    """
    return _factor(m, PRODUCT_TOL)[0]


def sigma_hat(p: PElement) -> PElement:
    """The involution partner p^: the triangular part of sigma p = p^ k^.

    Then p^ p^* = sigma p p* sigma, since k^ is unitary.
    """
    return p_part(SIGMA @ p.matrix())


# ---------------------------------------------------------------------------
# subgroup shape predicates and commutators


def is_n_shaped(m: np.ndarray, tol: float = PRODUCT_TOL) -> bool:
    g11, g12, g21, g22 = blocks(np.asarray(m, dtype=complex))
    scale = max(1.0, frob(m))
    return (
        frob(g11 - E2) <= tol * scale
        and frob(g22 - E2) <= tol * scale
        and frob(g12) <= tol * scale
    )


def is_s_shaped(m: np.ndarray, tol: float = PRODUCT_TOL) -> bool:
    g11, g12, g21, g22 = blocks(np.asarray(m, dtype=complex))
    scale = max(1.0, frob(m))
    if frob(g12) > tol * scale or frob(g21) > tol * scale:
        return False
    try:
        s = TriangularS.from_matrix(g22, tol)
    except InvariantViolation:
        return False
    return frob(g11 - adjoint(s.inverse().matrix())) <= tol * scale


def q_commutator(q1: QElement, q2: QElement) -> QElement:
    """Group commutator in semidirect coordinates (closed form throughout)."""
    return q_multiply(q_multiply(q_multiply(q1, q2), q_inverse(q1)), q_inverse(q2))


def nested_q_commutator(qs: list[QElement]) -> QElement:
    """Balanced nested commutator of 2^d semidirect pairs."""
    n = len(qs)
    if n == 1:
        return qs[0]
    if n % 2 != 0:
        raise ValueError("need a power-of-two number of elements")
    half = n // 2
    return q_commutator(nested_q_commutator(qs[:half]), nested_q_commutator(qs[half:]))


# ---------------------------------------------------------------------------
# random samplers (deterministic per seed; one generator per task)


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ``size`` None draws one element; an integer draws a batch of that many, in
# one generator call per field.


def random_s(seed, size: int | None = None) -> TriangularS:
    """r1, r2 log-uniform on [e^-2, e^2]; r standard complex Gaussian."""
    rng = as_generator(seed)
    # -2 + 4 u is rng.uniform(-2, 2) to the bit, without its per-call overhead
    r1 = np.exp(-2.0 + 4.0 * rng.random(size))
    r2 = np.exp(-2.0 + 4.0 * rng.random(size))
    r = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return TriangularS(r1, r2, r)


def random_n(seed, size: int | None = None) -> SkewHermitian2:
    rng = as_generator(seed)
    a = rng.standard_normal(size)
    b = rng.standard_normal(size)
    return SkewHermitian2(a, b, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def random_q(seed, size: int | None = None) -> QElement:
    rng = as_generator(seed)
    return QElement(random_s(rng, size), random_n(rng, size))


def random_p(seed, size: int | None = None) -> PElement:
    return q_to_p(random_q(as_generator(seed), size))


def _haar_u2(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_k(seed) -> KElement:
    """Haar-ish compact element via a pair of random 2x2 unitaries."""
    rng = as_generator(seed)
    u = _haar_u2(rng)
    v = _haar_u2(rng)
    alpha = (u + v) / 2.0
    beta = (u - v) / 2.0
    return KElement(assemble(alpha, beta, beta, alpha), tol=PRODUCT_TOL)


def random_u22(seed, radius: float = 2.0, size: int | None = None) -> U22Element:
    """exp of a random algebra combination, rescaled to norm <= radius.

    A batch draws its coefficients as one (size, 16) block, the same stream
    as ``size`` single draws.
    """
    rng = as_generator(seed)
    coeffs = rng.standard_normal(len(lie.U22_BASIS) if size is None else (size, len(lie.U22_BASIS)))
    xi = np.tensordot(coeffs, lie.U22_BASIS, axes=1)
    xi = xi * (radius / np.maximum(frob(xi), radius))[..., None, None]
    return U22Element(matrix_exp(xi), tol=CONSTRUCTION_TOL)


# ---------------------------------------------------------------------------
# JSON encoding (tagged unions over the shared matrix encoding)


def _s_to_json(s: TriangularS) -> dict:
    return {"r1": s.r1, "r2": s.r2, "r": [s.r.real, s.r.imag]}


def _s_from_json(data: dict) -> TriangularS:
    return TriangularS(data["r1"], data["r2"], complex(data["r"][0], data["r"][1]))


def _n_to_json(n: SkewHermitian2) -> dict:
    return {"a": n.a, "b": n.b, "z": [n.z.real, n.z.imag]}


def _n_from_json(data: dict) -> SkewHermitian2:
    return SkewHermitian2(data["a"], data["b"], complex(data["z"][0], data["z"][1]))


def element_to_json(el) -> dict:
    if isinstance(el, PElement):
        return {"kind": "p", "data": {"s": _s_to_json(el.s), "x": matrix_to_json(el.x)}}
    if isinstance(el, QElement):
        return {"kind": "q", "data": {"s": _s_to_json(el.s), "n": _n_to_json(el.n)}}
    if isinstance(el, KElement):
        return {"kind": "k", "data": {"m": matrix_to_json(el.m)}}
    if isinstance(el, U22Element):
        return {"kind": "u22", "data": {"m": matrix_to_json(el.m)}}
    raise TypeError(f"cannot encode {type(el).__name__}")


def element_from_json(doc: dict):
    try:
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError("element JSON must have 'kind' and 'data'") from exc
    if kind == "p":
        return PElement(_s_from_json(data["s"]), matrix_from_json(data["x"], (2, 2)))
    if kind == "q":
        return QElement(_s_from_json(data["s"]), _n_from_json(data["n"]))
    if kind == "k":
        return KElement(matrix_from_json(data["m"], (4, 4)))
    if kind == "u22":
        return U22Element(matrix_from_json(data["m"], (4, 4)))
    raise ValueError(f"unknown element kind {kind!r}")
