"""Real bases of the ambient Lie algebra and its triangular subalgebra.

An algebra element is any 4x4 complex xi with xi sigma + sigma xi* = 0;
in blocks [[A, B], [C, D]] this forces B and C skew-Hermitian and D = -A*,
so the real dimension is 16.  The triangular subalgebra consists of
[[-T*, 0], [Y, T]] with T lower triangular real-diagonal and Y
skew-Hermitian, real dimension 8.  Both bases are module constants, stacks
of shape (16, 4, 4) and (8, 4, 4), built once at import and read-only.
"""

from __future__ import annotations

import numpy as np

from .matrices import SIGMA, adjoint, assemble, freeze

__all__ = [
    "U22_BASIS",
    "P_BASIS",
    "sigma_conjugate",
    "bracket",
    "real_span_rank",
    "generated_subalgebra_dimension",
]

RANK_TOL = 1e-8  # singular-value cutoff of every real rank
CLOSURE_ROUNDS = 6  # most bracket rounds of a closure

_Z2 = np.zeros((2, 2), dtype=complex)
_UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)  # E00, E01, E10, E11
# real bases of the 2x2 blocks: skew-Hermitian; all (E_jk, i E_jk); and
# lower triangular with real diagonal (E00, E11, E10, i E10)
_SKEW = np.array([[[1j, 0], [0, 0]], [[0, 0], [0, 1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
_GENERAL = (_UNITS[:, None] * np.array([1.0, 1j])[:, None, None]).reshape(8, 2, 2)
_TRIANGULAR = np.concatenate([_UNITS[[0, 3, 2]], 1j * _UNITS[2:3]])

# 16 real-basis elements of the ambient algebra
U22_BASIS = freeze(np.concatenate([
    assemble(_GENERAL, _Z2, _Z2, -adjoint(_GENERAL)),
    assemble(_Z2, _SKEW, _Z2, _Z2),
    assemble(_Z2, _Z2, _SKEW, _Z2),
]))
# 8 real-basis elements of the triangular subalgebra
P_BASIS = freeze(np.concatenate([
    assemble(-adjoint(_TRIANGULAR), _Z2, _Z2, _TRIANGULAR),
    assemble(_Z2, _Z2, _SKEW, _Z2),
]))


def sigma_conjugate(xi: np.ndarray) -> np.ndarray:
    """sigma xi sigma, for one matrix or a stack."""
    return SIGMA @ np.asarray(xi, dtype=complex) @ SIGMA


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _real_rows(mats) -> np.ndarray:
    """The (k, 32) real view of k complex 4x4 matrices, a stack or a sequence."""
    return np.ascontiguousarray(mats, dtype=complex).reshape(-1, 16).view(float)


def real_span_rank(mats) -> int:
    """Rank of the real span of complex 4x4 matrices, a stack or a sequence."""
    return int(np.linalg.matrix_rank(_real_rows(mats), tol=RANK_TOL))


def generated_subalgebra_dimension(generators) -> int:
    """Dimension of the Lie subalgebra generated by the given matrices.

    Iterates bracket closure until the rank stabilizes.  Each round
    compresses the spanning set to an orthonormal real basis (the right
    singular vectors of its real view) and adds all brackets of that basis
    in one broadcast.
    """
    mats = np.asarray(generators, dtype=complex)
    dim = real_span_rank(mats)
    for _ in range(CLOSURE_ROUNDS):
        _, sing, vt = np.linalg.svd(_real_rows(mats), full_matrices=False)
        basis = np.ascontiguousarray(vt[sing > RANK_TOL * max(1.0, sing[0])]).view(complex).reshape(-1, 4, 4)
        mats = np.concatenate([basis, bracket(basis[:, None], basis[None]).reshape(-1, 4, 4)])
        new_dim = real_span_rank(mats)
        if new_dim == dim:
            return dim
        dim = new_dim
    return dim
