"""Acceptance battery: one test per criterion, each at its pinned tolerance.

Every test runs the corresponding claim from the verification battery at
full scale (one million Monte-Carlo samples per integral) and prints a
pass/fail line.  Runtime ceilings are asserted where a criterion pins one.
"""

import pytest

from u22lab.claims import SuiteConfig, run_claims

CONFIG = SuiteConfig()


def run_claim(claim_id: str):
    record = run_claims(CONFIG, [claim_id])[0]
    print(
        f"[acceptance] {record.claim_id} {record.verdict.upper():4s} "
        f"measured={record.measured:.3e} tolerance={record.tolerance:.3e} "
        f"runtime={record.runtime_s:.2f}s :: {record.anchor}"
    )
    return record


def test_c01_group_algebra():
    record = run_claim("C01")
    assert record.verdict == "pass", record.detail
    assert record.measured < 1e-9
    assert record.runtime_s < 5.0


def test_c02_semidirect_isomorphism():
    record = run_claim("C02")
    assert record.verdict == "pass", record.detail
    assert record.measured < 1e-10
    assert record.runtime_s < 5.0


def test_c03_orbit_chart():
    record = run_claim("C03")
    assert record.verdict == "pass", record.detail
    assert record.detail["label_flips"] == 0
    assert record.detail["max_reconstruction_residual"] < 1e-10


def test_c04_measure_laws():
    record = run_claim("C04")
    assert record.verdict == "pass", record.detail
    assert record.detail["pi_multiplicativity"]["residual"] < 1e-13
    assert record.detail["box_translation"]["deviation_sigmas"] < 3.0
    assert record.detail["haar_invariance"]["residual"] < 3.0
    assert record.detail["nu_derivative_band"]["residual"] == 0.0


def test_c05_representation_property():
    record = run_claim("C05")
    assert record.verdict == "pass", record.detail
    assert record.measured < 1e-11
    assert record.runtime_s < 10.0


def test_c06_specialness():
    record = run_claim("C06")
    assert record.verdict == "pass", record.detail
    assert record.detail["vacuum_classification"] == "log-divergent"
    assert record.detail["vacuum_slope"] > 5 * record.detail["vacuum_slope_stderr"]
    assert record.detail["vacuum_r_squared"] > 0.99
    assert all(c["classification"] == "convergent" for c in record.detail["coboundaries"])
    assert record.detail["control_verdict"] == "not special (vacuum square-integrable)"
    assert record.runtime_s < 120.0


def test_c07_iwasawa_decomposition():
    record = run_claim("C07")
    assert record.verdict == "pass", record.detail
    assert record.measured < 1e-10


def test_c08_extension():
    record = run_claim("C08")
    assert record.verdict == "pass", record.detail
    assert record.detail["k_group_law"]["residual"] < 1e-9
    assert record.detail["sigma_involution"]["residual"] < 1e-10
    assert record.detail["extended_cocycle_identity"]["residual"] < 1e-8


# Suite seeds on which C07 or C08 failed while the factorization went
# through g g*: C07 on 10, 11 and 104; C08 on the suite seeds that the
# battery benchmark derives from its seeds 3118, 3128, 3135, 3175 and 3250
# (SeedSequence([seed, 0])).
FACTORIZATION_SEEDS = [("C07", 10), ("C07", 11), ("C07", 104)] + [
    ("C08", seed) for seed in (2436993052, 3026740686, 1384326534, 1313979974, 260290985)
]


@pytest.mark.parametrize("claim_id, seed", FACTORIZATION_SEEDS)
def test_factorization_claims_hold_on_formerly_failing_seeds(claim_id, seed):
    (record,) = run_claims(SuiteConfig(seed=seed), [claim_id])
    assert record.verdict == "pass", (record.measured, record.detail)


def test_c09_gram_independence():
    record = run_claim("C09")
    assert record.verdict == "pass", record.detail
    assert record.detail["projected_value"] > 3 * record.detail["projected_stderr"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mc_verdicts_hold_across_seeds(seed):
    # the statistical verdicts of C06 and C09 at full scale on seeds other
    # than the pinned one (test_c06_specialness and test_c09_gram_independence)
    c06, c09 = run_claims(SuiteConfig(seed=seed), ["C06", "C09"])
    assert c06.verdict == "pass", c06.detail
    assert c06.detail["vacuum_classification"] == "log-divergent"
    assert [c["classification"] for c in c06.detail["coboundaries"]] == ["convergent"] * 8
    assert c06.detail["control_verdict"] == "not special (vacuum square-integrable)"
    assert c09.verdict == "pass", c09.detail


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_group_claims_hold_across_seeds(seed):
    # C01 and C02 run on stacks; their verdicts at unchanged tolerances on
    # seeds other than the pinned one
    c01, c02 = run_claims(SuiteConfig(seed=seed), ["C01", "C02"])
    assert c01.verdict == "pass" and c01.measured < 1e-9, c01.detail
    assert c02.verdict == "pass" and c02.measured < 1e-10, c02.detail


def test_c10_infinitesimal_generation():
    # Stated expectation: the 16-column real matrix built from the triangular
    # subalgebra basis and its swap conjugate has rank 16.  The measured rank
    # is 14 (the two subspaces overlap in a 2-dimensional diagonal slice), and
    # bracket closure tops out at 15 because every generator is traceless
    # while the ambient algebra has a 1-dimensional center.  The criterion is
    # therefore expected to fail; see the companion tests in test_lie.py for
    # the verified values.
    record = run_claim("C10")
    assert record.verdict == "pass", (
        "span rank is "
        f"{record.detail['union_span_rank']} and bracket closure reaches "
        f"{record.detail['bracket_closure_dimension']} of "
        f"{record.detail['ambient_dimension']}; the determinant-one "
        "obstruction keeps the central direction out of reach"
    )


def test_c11_rank1_baseline():
    record = run_claim("C11")
    assert record.verdict == "pass", record.detail
    assert record.measured < 1e-6
    assert record.detail["witness_all_hold"]
    assert record.detail["gaussian_condition_ii_holds"] is False


def test_c12_derived_length():
    record = run_claim("C12")
    assert record.verdict == "pass", record.detail
    assert record.detail["max_triple_distance"] < 1e-9
    assert record.detail["max_double_distance"] > 1e-2
