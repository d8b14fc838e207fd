"""Small dense complex-matrix kernels shared by every other module.

Everything in this package lives on 2x2 or 4x4 complex matrices, so the
linear algebra here is closed form throughout: no iteration, no LAPACK
round trips for things a formula does better.  The generic kernels
(``adjoint``, ``frob``, ``blocks``, ``assemble``, ``matrix_exp``) act on one
matrix or on a stack of shape (..., n, n) alike.  Only generic kernels live
here; structured factors live with their types (``groups``, ``orbits``).
Matrices travel to and from JSON as nested [re, im] pairs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "E4",
    "SIGMA",
    "adjoint",
    "frob",
    "freeze",
    "blocks",
    "assemble",
    "matrix_exp",
    "matrix_to_json",
    "matrix_from_json",
]


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
    the last two axes for a stack.

    One matrix goes through ``math.hypot`` on its real and imaginary parts,
    which scales internally: entries up to the float limit neither overflow
    nor warn, and a NaN entry gives NaN (also beside an infinite one, where
    ``hypot`` alone would give inf), so every gate of the form
    ``residual <= tol * max(1, frob(m))`` still rejects it.  A stack uses
    ``np.linalg.norm``, which squares its entries, on each member divided by
    an exact power of two near its largest entry, so it neither overflows
    nor warns either, and NaN still wins over inf.  The scaling is exact
    through the squares, the sum and the square root, so a member whose
    squares neither under- nor overflow keeps the bits of its plain norm.
    """
    a = np.asarray(a)
    if a.ndim <= 2:
        norm = math.hypot(*np.asarray(a, dtype=complex).ravel().view(float).tolist())
        return math.nan if norm == math.inf and np.isnan(a).any() else norm
    shift = -np.frexp(np.abs(a).max(axis=(-2, -1), initial=0.0))[1]
    scaled = np.empty(a.shape, dtype=complex)
    scaled.real = np.ldexp(a.real, shift[..., None, None])
    scaled.imag = np.ldexp(a.imag, shift[..., None, None])
    # a norm beyond the float range is inf; an infinite entry gives inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ldexp(np.linalg.norm(scaled, axis=(-2, -1)), -shift)


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
