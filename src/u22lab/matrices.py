"""Small dense complex-matrix kernels shared by every other module.

Everything in this package lives on 2x2 or 4x4 complex matrices, so the
linear algebra here is closed form throughout: no iteration, no LAPACK
round trips for things a formula does better.  The generic kernels
(``adjoint``, ``frob``, ``blocks``, ``assemble``, ``matrix_exp``) act on one
matrix or on a stack of shape (..., n, n) alike.  The one structured
factorization, ``signed_triangular_factor``, writes a nondegenerate
Hermitian 2x2 H as s diag(e1, e2) s* for a sign pair (e1, e2), with s lower
triangular and a strictly positive diagonal; pinning the diagonal positive
makes s unique, which is what makes it the orbit chart downstream.  Matrices
travel to and from JSON as nested [re, im] pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "E4",
    "SIGMA",
    "HermitianSignature",
    "WrongOrbit",
    "adjoint",
    "frob",
    "freeze",
    "blocks",
    "assemble",
    "signed_triangular_factor",
    "matrix_exp",
    "matrix_to_json",
    "matrix_from_json",
]

# Scale-invariant cutoff for positivity / nondegeneracy of leading minors.
MINOR_TOL_FACTOR = 1e-12


class WrongOrbit(ValueError):
    """The sign pattern of the input does not match the requested signature."""


def freeze(a) -> np.ndarray:
    """Return a read-only complex copy of ``a``."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


E4 = freeze(np.eye(4))
# The fixed block involution: swaps the two 2x2 block rows/columns.
SIGMA = freeze(np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def frob(a: np.ndarray):
    """Frobenius norm: a plain float for one matrix, an array of norms over
    the last two axes for a stack."""
    a = np.asarray(a)
    if a.ndim <= 2:
        return float(np.linalg.norm(a))
    return np.linalg.norm(a, axis=(-2, -1))


def blocks(m: np.ndarray):
    """Split 4x4 matrices into their four 2x2 blocks (g11, g12, g21, g22)."""
    m = np.asarray(m)
    return m[..., :2, :2], m[..., :2, 2:], m[..., 2:, :2], m[..., 2:, 2:]


def assemble(g11, g12, g21, g22) -> np.ndarray:
    """Assemble 4x4 matrices from 2x2 blocks; a single block broadcasts
    against a stack."""
    parts = [np.asarray(g) for g in (g11, g12, g21, g22)]
    out = np.empty(max((p.shape[:-2] for p in parts), key=len) + (4, 4), dtype=complex)
    out[..., :2, :2], out[..., :2, 2:], out[..., 2:, :2], out[..., 2:, 2:] = parts
    return out


@dataclass(frozen=True)
class HermitianSignature:
    """Sign pair (e1, e2) of a nondegenerate Hermitian 2x2 form.

    Exactly four values exist, one per open orbit.
    """

    eps1: int
    eps2: int

    def __post_init__(self):
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise ValueError("signature entries must be +1 or -1")

    def __str__(self) -> str:
        return ("+" if self.eps1 > 0 else "-") + ("+" if self.eps2 > 0 else "-")

    @classmethod
    def from_string(cls, text: str) -> "HermitianSignature":
        if len(text) != 2 or any(c not in "+-" for c in text):
            raise ValueError(f"bad signature string: {text!r}")
        return cls(1 if text[0] == "+" else -1, 1 if text[1] == "+" else -1)


def _require_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {h.shape}")
    scale = max(frob(h), 1e-300)
    if frob(h - adjoint(h)) > 1e-12 * scale:
        raise ValueError("input is not Hermitian")
    return h


def signed_triangular_factor(
    h: np.ndarray,
    signature: HermitianSignature,
    tol_factor: float = MINOR_TOL_FACTOR,
) -> np.ndarray:
    """Triangular factor s with s diag(e1, e2) s* = h for indefinite h.

    The closed form is the Cholesky recurrence with signs threaded through:

        r1 = sqrt(e1 h11),  r = e1 h21 / r1,  r2 = sqrt(e2 (h22 - e1 |r|^2)).

    Preconditions (exactly the condition for h to lie on the orbit of
    diag(e1, e2) under s . s*):  e1 h11 > 0  and  e1 e2 det(h) > 0.
    Raises ``WrongOrbit`` when they fail.  The factor is unique.
    """
    h = _require_hermitian(h)
    scale = frob(h)
    e1, e2 = signature.eps1, signature.eps2
    minor1 = e1 * h[0, 0].real
    det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
    if minor1 <= tol_factor * scale:
        raise WrongOrbit(f"e1*h11 = {minor1:.3e} not positive at tolerance")
    if e1 * e2 * det <= tol_factor * scale * scale:
        raise WrongOrbit(f"e1*e2*det = {e1 * e2 * det:.3e} not positive at tolerance")
    r1 = math.sqrt(minor1)
    r = e1 * h[1, 0] / r1
    t = e2 * (h[1, 1].real - e1 * abs(r) ** 2)
    # t = e1 e2 det / r1^2 > 0 is implied by the checks above.
    r2 = math.sqrt(t)
    return np.array([[r1, 0.0], [r, r2]], dtype=complex)


def matrix_exp(m: np.ndarray, taylor_degree: int = 12, target_norm: float = 0.25) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    Sized for small matrices with bounded norm; with ``target_norm`` 0.25 and
    degree 12 the truncation error is far below 1e-14.  Accepts one matrix or
    a stack (..., n, n).  Each matrix gets its own squaring count, so a stack
    member is scaled and squared as it would be alone: a squaring step keeps
    the old value of every member that needs no further step.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    norm = np.linalg.norm(stack, axis=(-2, -1))
    big = np.isfinite(norm) & (norm > target_norm)
    nsq = np.zeros(norm.shape, dtype=int)
    nsq[big] = np.ceil(np.log2(norm[big] / target_norm))
    scaled = stack / np.ldexp(1.0, nsq)[:, None, None]
    term = scaled
    out = np.eye(n) + scaled
    for k in range(2, taylor_degree + 1):
        term = term @ scaled / k
        out = out + term
    for step in range(nsq.max(initial=0)):
        out = np.where((nsq > step)[:, None, None], out @ out, out)
    return out.reshape(m.shape)


def matrix_to_json(m: np.ndarray) -> list:
    """Encode a complex matrix as nested arrays of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data, shape=None) -> np.ndarray:
    """Decode the nested [re, im] encoding produced by ``matrix_to_json``."""
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise ValueError("matrix JSON must be nested arrays of [re, im] pairs") from exc
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or (shape is not None and m.shape != shape):
        raise ValueError(f"bad matrix shape {m.shape}, expected {shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix JSON has a non-finite entry")
    return m
