import numpy as np

from u22lab import lie
from u22lab.groups import is_in_u22
from u22lab.matrices import SIGMA, adjoint, frob, matrix_exp


def algebra_residual(xi: np.ndarray) -> float:
    """Residual of the defining relation xi sigma + sigma xi* = 0."""
    return frob(xi @ SIGMA + SIGMA @ adjoint(xi))


def test_ambient_basis_has_sixteen_independent_elements():
    basis = lie.U22_BASIS
    assert len(basis) == 16
    assert lie.real_span_rank(basis) == 16


def test_basis_satisfies_defining_relation():
    assert max(algebra_residual(x) for x in lie.U22_BASIS) == 0.0
    assert max(algebra_residual(x) for x in lie.P_BASIS) == 0.0


def test_triangular_subalgebra_has_dimension_eight():
    basis = lie.P_BASIS
    assert len(basis) == 8
    assert lie.real_span_rank(basis) == 8


def test_conjugated_subalgebra_keeps_dimension_eight():
    conj = [lie.sigma_conjugate(x) for x in lie.P_BASIS]
    assert max(algebra_residual(x) for x in conj) == 0.0
    assert lie.real_span_rank(conj) == 8


def test_union_span_rank_is_fourteen():
    # The two 8-dimensional subalgebras overlap in the 2-dimensional slice
    # diag(-x, -y, x, y), so the plain span of the union has dimension 14.
    basis = lie.P_BASIS
    union = list(basis) + [lie.sigma_conjugate(x) for x in basis]
    assert lie.real_span_rank(union) == 14


def test_bracket_closure_reaches_the_traceless_subalgebra():
    # Every generator is traceless, so the generated subalgebra is the
    # traceless part, dimension 15; the central direction i*identity stays out.
    basis = lie.P_BASIS
    union = list(basis) + [lie.sigma_conjugate(x) for x in basis]
    assert max(abs(np.trace(x)) for x in union) < 1e-14
    assert lie.generated_subalgebra_dimension(union) == 15


def test_center_is_missing_from_the_closure():
    center = 1j * np.eye(4)
    assert algebra_residual(center) < 1e-14
    basis = lie.P_BASIS
    union = list(basis) + [lie.sigma_conjugate(x) for x in basis]
    assert lie.real_span_rank(union + [center]) == 15


def test_exponentials_land_in_the_group(rng):
    basis = lie.U22_BASIS
    for _ in range(20):
        coeffs = rng.standard_normal(16)
        xi = sum(c * b for c, b in zip(coeffs, basis))
        xi *= 1.5 / np.linalg.norm(xi)
        assert is_in_u22(matrix_exp(xi), 1e-12).ok


def test_brackets_stay_in_the_algebra(rng):
    basis = lie.U22_BASIS
    for _ in range(20):
        x = sum(rng.standard_normal() * b for b in basis)
        y = sum(rng.standard_normal() * b for b in basis)
        assert algebra_residual(lie.bracket(x, y)) < 1e-12
