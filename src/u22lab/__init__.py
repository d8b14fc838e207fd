"""Desk-scale numerical laboratory for the triangular subgroup of U(2,2).

Group factorizations, almost-invariant measures on the triangular chart,
the nonunitary action on functions over it, its special cocycle, and the
extension of both to the whole group, with a verification battery behind
the ``u22lab`` command-line tool.
"""

from .matrices import U22Error, matrix_exp
from .groups import (
    TriangularS,
    SkewHermitian2,
    QElement,
    KElement,
    U22Element,
    is_in_u22,
    q_multiply,
    structured_p_factor,
    iwasawa_decompose,
    sigma_hat,
)
from .orbits import OrbitLabel, classify_orbit, orbit_coordinates
from .points import reference_points
from .measures import (
    IntegralEstimate,
    DivergenceVerdict,
    haar_measure,
    nu_measure,
    truncated_nu,
    modulus_pi,
    rn_derivative_right,
    integrate_mc,
    divergence_probe,
    PolarShellSampler,
)
from .representation import (
    GroupFunction,
    CocycleVector,
    vacuum,
    apply_T,
    coboundary,
    gram_matrix,
    specialness_report,
)
from .extension import act_k, extend_cocycle, apply_extended
from .rank1 import almost_invariant_check
from .claims import SuiteConfig, ClaimRecord, run_claims

__version__ = "0.1.0"
