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
(s, n) -> (s, n (s*)^-1).  Every ambient element factors uniquely as p k.
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
    """The four membership residuals, normalized by max(1, |g|_F^2)."""

    ok: bool
    sigma_relation: float
    block_unit: float
    block_upper: float
    block_lower: float
    tol: float

    def residuals(self) -> tuple[float, float, float, float]:
        return (self.sigma_relation, self.block_unit, self.block_upper, self.block_lower)

    def max_residual(self) -> float:
        return max(self.residuals())

    def __str__(self) -> str:
        return (
            f"sigma={self.sigma_relation:.3e} unit={self.block_unit:.3e} "
            f"upper={self.block_upper:.3e} lower={self.block_lower:.3e} (tol={self.tol:.1e})"
        )


@dataclass(frozen=True)
class TriangularS:
    """Lower-triangular 2x2 matrix [[r1, 0], [r, r2]] with r1, r2 > 0."""

    r1: float
    r2: float
    r: complex

    def __post_init__(self):
        if not (self.r1 > 0.0 and self.r2 > 0.0):
            raise InvariantViolation(f"diagonal must be positive, got {self.r1}, {self.r2}")
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))
        object.__setattr__(self, "r", complex(self.r))

    @classmethod
    def identity(cls) -> "TriangularS":
        return cls(1.0, 1.0, 0.0)

    @classmethod
    def from_matrix(cls, m: np.ndarray, tol: float = VALIDATION_TOL) -> "TriangularS":
        m = np.asarray(m, dtype=complex)
        scale = max(1.0, frob(m))
        if abs(m[0, 1]) > tol * scale:
            raise InvariantViolation("matrix is not lower triangular")
        if abs(m[0, 0].imag) > tol * scale or abs(m[1, 1].imag) > tol * scale:
            raise InvariantViolation("diagonal is not real")
        return cls(m[0, 0].real, m[1, 1].real, m[1, 0])

    def matrix(self) -> np.ndarray:
        return np.array([[self.r1, 0.0], [self.r, self.r2]], dtype=complex)

    def multiply(self, other: "TriangularS") -> "TriangularS":
        # [[r1, 0], [r, r2]] [[p1, 0], [p, p2]] = [[r1 p1, 0], [r p1 + r2 p, r2 p2]]
        return TriangularS(
            self.r1 * other.r1,
            self.r2 * other.r2,
            self.r * other.r1 + self.r2 * other.r,
        )

    def inverse(self) -> "TriangularS":
        return TriangularS(1.0 / self.r1, 1.0 / self.r2, -self.r / (self.r1 * self.r2))

    def norm(self) -> float:
        """Frobenius norm sqrt(r1^2 + r2^2 + |r|^2)."""
        return math.sqrt(self.r1**2 + self.r2**2 + abs(self.r) ** 2)

    def scale(self, c: float) -> "TriangularS":
        if c <= 0:
            raise InvariantViolation("scale factor must be positive")
        return TriangularS(c * self.r1, c * self.r2, c * self.r)

    def distance(self, other: "TriangularS") -> float:
        return math.sqrt(
            (self.r1 - other.r1) ** 2 + (self.r2 - other.r2) ** 2 + abs(self.r - other.r) ** 2
        )

    def is_close(self, other: "TriangularS", tol: float = PRODUCT_TOL) -> bool:
        scale = max(1.0, self.norm(), other.norm())
        return self.distance(other) <= tol * scale


@dataclass(frozen=True)
class SkewHermitian2:
    """Skew-Hermitian 2x2 matrix [[i a, z], [-conj(z), i b]], a, b real.

    The parametrization keeps n + n* = 0 exact by construction.
    """

    a: float
    b: float
    z: complex

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "z", complex(self.z))

    @classmethod
    def zero(cls) -> "SkewHermitian2":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_matrix(cls, m: np.ndarray, tol: float = VALIDATION_TOL) -> "SkewHermitian2":
        m = np.asarray(m, dtype=complex)
        scale = max(1.0, frob(m))
        if frob(m + adjoint(m)) > tol * scale:
            raise InvariantViolation("matrix is not skew-Hermitian at tolerance")
        return cls(m[0, 0].imag, m[1, 1].imag, (m[0, 1] - np.conj(m[1, 0])) / 2.0)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[1j * self.a, self.z], [-np.conj(self.z), 1j * self.b]], dtype=complex
        )

    def add(self, other: "SkewHermitian2") -> "SkewHermitian2":
        return SkewHermitian2(self.a + other.a, self.b + other.b, self.z + other.z)

    def neg(self) -> "SkewHermitian2":
        return SkewHermitian2(-self.a, -self.b, -self.z)

    def scale(self, t: float) -> "SkewHermitian2":
        return SkewHermitian2(t * self.a, t * self.b, t * self.z)

    def conjugate_by(self, s: TriangularS) -> "SkewHermitian2":
        """Closed form of s n s*, staying exactly skew-Hermitian."""
        r1, r2, r = s.r1, s.r2, s.r
        a2 = self.a * r1 * r1
        b2 = self.a * abs(r) ** 2 + self.b * r2 * r2 + 2.0 * r2 * (r * self.z).imag
        z2 = r1 * (1j * self.a * np.conj(r) + r2 * self.z)
        return SkewHermitian2(a2, b2, z2)

    def norm(self) -> float:
        return math.sqrt(self.a**2 + self.b**2 + 2.0 * abs(self.z) ** 2)

    def distance(self, other: "SkewHermitian2") -> float:
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
        if x.shape != (2, 2):
            raise InvariantViolation(f"X must be 2x2, got {x.shape}")
        object.__setattr__(self, "x", x)
        smat = self.s.matrix()
        residual = frob(smat @ adjoint(x) + x @ adjoint(smat))
        scale = max(1.0, frob(smat) * frob(x))
        if residual > VALIDATION_TOL * scale:
            raise InvariantViolation(f"relative skew-Hermiticity residual {residual:.3e}")

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

    def distance(self, other: "PElement") -> float:
        return math.sqrt(self.s.distance(other.s) ** 2 + frob(self.x - other.x) ** 2)

    def is_close(self, other: "PElement", tol: float = PRODUCT_TOL) -> bool:
        scale = max(1.0, self.s.norm() + frob(self.x), other.s.norm() + frob(other.x))
        return self.distance(other) <= tol * scale

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

    Checks the defining relation g S g* = S together with the three explicit
    block relations it is equivalent to:

        g12 g21* + g11 g22* = e,   g11 g12* + g12 g11* = 0,
        g22 g21* + g21 g22* = 0.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got {m.shape}")
    g11, g12, g21, g22 = blocks(m)
    scale = max(1.0, frob(m) ** 2)
    r_sigma = frob(m @ SIGMA @ adjoint(m) - SIGMA) / scale
    r_unit = frob(g12 @ adjoint(g21) + g11 @ adjoint(g22) - E2) / scale
    r_upper = frob(g11 @ adjoint(g12) + g12 @ adjoint(g11)) / scale
    r_lower = frob(g22 @ adjoint(g21) + g21 @ adjoint(g22)) / scale
    ok = max(r_sigma, r_unit, r_upper, r_lower) <= tol
    return MembershipReport(ok, r_sigma, r_unit, r_upper, r_lower, tol)


@dataclass(frozen=True, eq=False)
class U22Element:
    """An ambient group element, validated on construction."""

    m: np.ndarray = field(repr=False)
    tol: float = CHAIN_TOL

    def __post_init__(self):
        m = freeze(self.m)
        object.__setattr__(self, "m", m)
        report = is_in_u22(m, self.tol)
        if not report.ok:
            raise NotInGroup(report)

    @classmethod
    def identity(cls) -> "U22Element":
        return cls(E4)

    def multiply(self, other: "U22Element") -> "U22Element":
        return U22Element(self.m @ other.m, tol=max(self.tol, other.tol))

    def inverse(self) -> "U22Element":
        # g^-1 = S g* S follows from the defining relation; no linear solve.
        return U22Element(SIGMA @ adjoint(self.m) @ SIGMA, tol=self.tol)

    def distance(self, other: "U22Element") -> float:
        return frob(self.m - other.m)


@dataclass(frozen=True, eq=False)
class KElement:
    """Compact-part element: unitary, block shape [[alpha, beta], [beta, alpha]]."""

    m: np.ndarray = field(repr=False)
    tol: float = CHAIN_TOL

    def __post_init__(self):
        m = freeze(self.m)
        object.__setattr__(self, "m", m)
        g11, g12, g21, g22 = blocks(m)
        scale = max(1.0, frob(m) ** 2)
        r_unitary = frob(m @ adjoint(m) - E4) / scale
        r_shape = (frob(g11 - g22) + frob(g12 - g21)) / max(1.0, frob(m))
        r_alpha = frob(g11 @ adjoint(g11) + g12 @ adjoint(g12) - E2) / scale
        r_cross = frob(g11 @ adjoint(g12) + g12 @ adjoint(g11)) / scale
        worst = max(r_unitary, r_shape, r_alpha, r_cross)
        if worst > self.tol:
            raise InvariantViolation(f"compact-part residual {worst:.3e} above {self.tol:.1e}")

    @classmethod
    def identity(cls) -> "KElement":
        return cls(E4)

    @property
    def alpha(self) -> np.ndarray:
        return self.m[:2, :2]

    @property
    def beta(self) -> np.ndarray:
        return self.m[:2, 2:]

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
    scale = max(1.0, frob(m))
    if frob(g12) > tol * scale:
        raise InvariantViolation("upper-right block not zero")
    s = TriangularS.from_matrix(g22, tol)
    if frob(g11 - adjoint(s.inverse().matrix())) > tol * scale:
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


def iwasawa_decompose(g: U22Element, tol: float = PRODUCT_TOL) -> tuple[PElement, KElement]:
    """Unique factorization g = p k with p triangular and k compact.

    p is the structured factor of g g* (which is Hermitian positive-definite
    and satisfies the required sigma relation automatically); k = p^-1 g.
    One refinement pass re-decomposes the residual element p^-1 g, which is
    nearly unitary and hence perfectly conditioned, bringing the compact
    factor to machine accuracy even for ill-conditioned triangular parts.
    """
    try:
        p = structured_p_factor(g.m @ adjoint(g.m), tol)
    except NotFactorizable as exc:
        raise DecompositionFailed(f"structured factor failed: {exc}") from exc
    k_mat = np.linalg.solve(p.matrix(), g.m)
    for _ in range(2):
        gram = k_mat @ adjoint(k_mat)
        if frob(gram - E4) <= 1e-15:
            break
        try:
            correction = structured_p_factor(gram, tol)
        except NotFactorizable:
            break
        p = p.multiply(correction)
        k_mat = np.linalg.solve(correction.matrix(), k_mat)
    try:
        k = KElement(k_mat, tol=max(tol, CHAIN_TOL))
    except InvariantViolation as exc:
        raise DecompositionFailed(f"compact factor invalid: {exc}") from exc
    residual = frob(p.matrix() @ k.m - g.m) / max(1.0, frob(g.m))
    if residual > tol:
        raise DecompositionFailed(f"reconstruction residual {residual:.3e}")
    return p, k


def sigma_hat(p: PElement) -> PElement:
    """The involution partner: the triangular factor of sigma (p p*) sigma."""
    m = p.matrix() @ adjoint(p.matrix())
    return structured_p_factor(SIGMA @ m @ SIGMA)


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


def random_s(seed) -> TriangularS:
    """r1, r2 log-uniform on [e^-2, e^2]; r standard complex Gaussian."""
    rng = as_generator(seed)
    r1 = math.exp(rng.uniform(-2.0, 2.0))
    r2 = math.exp(rng.uniform(-2.0, 2.0))
    r = complex(rng.standard_normal(), rng.standard_normal())
    return TriangularS(r1, r2, r)


def random_n(seed) -> SkewHermitian2:
    rng = as_generator(seed)
    return SkewHermitian2(
        rng.standard_normal(),
        rng.standard_normal(),
        complex(rng.standard_normal(), rng.standard_normal()),
    )


def random_q(seed) -> QElement:
    rng = as_generator(seed)
    return QElement(random_s(rng), random_n(rng))


def random_p(seed) -> PElement:
    return q_to_p(random_q(as_generator(seed)))


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


def random_u22(seed, radius: float = 2.0) -> U22Element:
    """exp of a random algebra combination, rescaled to norm <= radius."""
    rng = as_generator(seed)
    basis = lie.u22_basis()
    coeffs = rng.standard_normal(len(basis))
    xi = sum(c * b for c, b in zip(coeffs, basis))
    norm = frob(xi)
    if norm > radius:
        xi = xi * (radius / norm)
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
