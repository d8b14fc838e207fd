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

_Z2 = np.zeros((2, 2), dtype=complex)
RANK_TOL = 1e-8  # singular-value cutoff of every real rank
CLOSURE_ROUNDS = 6  # most bracket rounds of a closure


def _unit(j: int, k: int) -> np.ndarray:
    e = np.zeros((2, 2), dtype=complex)
    e[j, k] = 1.0
    return e


def _skew_hermitian_basis() -> list[np.ndarray]:
    return [
        1j * _unit(0, 0),
        1j * _unit(1, 1),
        _unit(0, 1) - _unit(1, 0),
        1j * (_unit(0, 1) + _unit(1, 0)),
    ]


def _lower_real_diag_basis() -> list[np.ndarray]:
    return [_unit(0, 0), _unit(1, 1), _unit(1, 0), 1j * _unit(1, 0)]


def _u22_basis() -> np.ndarray:
    out = []
    for j in range(2):
        for k in range(2):
            for unit in (1.0, 1j):
                a = unit * _unit(j, k)
                out.append(assemble(a, _Z2, _Z2, -adjoint(a)))
    for y in _skew_hermitian_basis():
        out.append(assemble(_Z2, y, _Z2, _Z2))
    for y in _skew_hermitian_basis():
        out.append(assemble(_Z2, _Z2, y, _Z2))
    return freeze(out)


def _p_basis() -> np.ndarray:
    out = []
    for t in _lower_real_diag_basis():
        out.append(assemble(-adjoint(t), _Z2, _Z2, t))
    for y in _skew_hermitian_basis():
        out.append(assemble(_Z2, _Z2, y, _Z2))
    return freeze(out)


U22_BASIS = _u22_basis()  # 16 real-basis elements of the ambient algebra
P_BASIS = _p_basis()  # 8 real-basis elements of the triangular subalgebra


def sigma_conjugate(xi: np.ndarray) -> np.ndarray:
    """sigma xi sigma, for one matrix or a stack."""
    return SIGMA @ np.asarray(xi, dtype=complex) @ SIGMA


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _to_real_columns(mats) -> np.ndarray:
    cols = [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
    return np.array(cols).T


def _from_real_columns(cols: np.ndarray) -> list[np.ndarray]:
    out = []
    for j in range(cols.shape[1]):
        v = cols[:, j]
        out.append((v[:16] + 1j * v[16:]).reshape(4, 4))
    return out


def real_span_rank(mats) -> int:
    """Rank of the real span of a list of complex matrices."""
    return int(np.linalg.matrix_rank(_to_real_columns(list(mats)), tol=RANK_TOL))


def generated_subalgebra_dimension(generators) -> int:
    """Dimension of the Lie subalgebra generated by the given matrices.

    Iterates bracket closure, compressing the spanning set to an orthonormal
    real basis between rounds, until the rank stabilizes.
    """
    basis = list(np.asarray(g, dtype=complex) for g in generators)
    dim = real_span_rank(basis)
    for _ in range(CLOSURE_ROUNDS):
        u, sing, _ = np.linalg.svd(_to_real_columns(basis), full_matrices=False)
        keep = sing > RANK_TOL * max(1.0, sing[0])
        compressed = _from_real_columns(u[:, keep])
        candidates = compressed + [bracket(x, y) for x in compressed for y in compressed]
        new_dim = real_span_rank(candidates)
        if new_dim == dim:
            return dim
        dim = new_dim
        basis = candidates
    return dim
