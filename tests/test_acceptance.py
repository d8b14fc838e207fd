"""Acceptance battery: one test per criterion, each at its pinned tolerance.

Every test runs the corresponding claim from the verification battery at
full scale (the default 262,144 Monte-Carlo samples per integral: 16
replicates of 2^14 shifted Halton points) and prints a pass/fail line.  Runtime ceilings are asserted where a criterion pins one.
"""

import ast
import collections
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import exp1

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath as umath

from u22lab import claims, extension, measures
from u22lab.claims import SuiteConfig, records_to_json, run_claims

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
# through g g* and the claims drew one element at a time: C07 on 10, 11 and
# 104; C08 on the suite seeds that the battery benchmark derives from its
# seeds 3118, 3128, 3135, 3175 and 3250 (SeedSequence([seed, 0])).  Since
# the claims draw stacks, these seeds no longer draw the elements that
# failed, and they stay as extra seeds.  The conditioning range those
# elements came from is covered by tests/test_groups.py::TestConditioningLadder:
# accurate for cond(s) from 10 to 1e6, only typed failures from 1e7 to 1e16.
FACTORIZATION_SEEDS = [("C07", 10), ("C07", 11), ("C07", 104)] + [
    ("C08", seed) for seed in (2436993052, 3026740686, 1384326534, 1313979974, 260290985)
]


@pytest.mark.parametrize("claim_id, seed", FACTORIZATION_SEEDS)
def test_factorization_claims_hold_on_formerly_failing_seeds(claim_id, seed):
    (record,) = run_claims(SuiteConfig(seed=seed), [claim_id])
    assert record.verdict == "pass", (record.measured, record.detail)


def test_c06_vacuum_rungs_match_the_closed_form(monkeypatch):
    # each rung of the vacuum's squared norm under |s|^-4 ds against
    # (pi^2 / 2)(E1(eps) - E1(r_max)), within 4 of its replicate errors
    reports, original = [], claims.specialness_report

    def recording(*args):
        reports.append(original(*args))
        return reports[-1]

    monkeypatch.setattr(claims, "specialness_report", recording)
    run_claims(CONFIG, ["C06"])
    vacuum = reports[0][0].vacuum_verdict
    assert len(vacuum.estimates) == len(CONFIG.eps_ladder)
    for eps, (value, stderr) in zip(vacuum.eps_ladder, vacuum.estimates):
        exact = math.pi**2 / 2 * (exp1(eps) - exp1(CONFIG.r_max))
        assert abs(value - exact) < 4 * stderr, (eps, value, exact, stderr)


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
    # C01, C02 and C03 run on stacks; their verdicts at unchanged tolerances
    # on seeds other than the pinned one
    c01, c02, c03 = run_claims(SuiteConfig(seed=seed), ["C01", "C02", "C03"])
    assert c01.verdict == "pass" and c01.measured < 1e-9, c01.detail
    assert c02.verdict == "pass" and c02.measured < 1e-10, c02.detail
    assert c03.verdict == "pass", c03.detail
    assert c03.detail["label_flips"] == 0 and c03.detail["max_reconstruction_residual"] < 1e-10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_factorization_claims_hold_across_seeds(seed):
    # C07 and the first two parts of C08 run on stacks
    c07, c08 = run_claims(SuiteConfig(seed=seed), ["C07", "C08"])
    assert c07.verdict == "pass" and c07.measured < 1e-10, c07.detail
    assert c08.verdict == "pass", c08.detail
    assert c08.detail["k_group_law"]["residual"] < 1e-9
    assert c08.detail["sigma_involution"]["residual"] < 1e-10
    assert c08.detail["extended_cocycle_identity"]["residual"] < 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operator_and_measure_claims_hold_across_seeds(seed):
    # C04 draws its pi and derivative-band samples as batches, and C05 runs
    # 200 pairs per label as one stack
    c04, c05 = run_claims(SuiteConfig(seed=seed), ["C04", "C05"])
    assert c04.verdict == "pass" and c04.measured <= 1.0, c04.detail
    assert c04.detail["pi_multiplicativity"]["residual"] <= 1e-13
    assert c04.detail["nu_derivative_band"]["residual"] == 0.0
    assert c05.verdict == "pass" and c05.measured < 1e-11, c05.detail
    assert c05.detail == {"pairs_per_label": 200, "points": 100}

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


# The MC digest: SHA-256 of the C04, C06 and C09 records (runtime_s
# dropped) at 20_000 samples: 16 replicates of 1250 points, one block each,
# so at two workers each worker draws and reduces eight.  Re-pinned when
# each block came to draw its points from a stream of its own, with Hopf-coordinate directions in the polar sampler
# and the half-angle multiplier in apply_T: every Monte-Carlo value moved,
# with every verdict and tolerance unchanged on the pinned seed and on
# seeds 1-3, and the same digest at one and two workers.  Re-pinned when
# the coboundary rows came to be evaluated in closed form from five chart
# monomials: C09's values moved in their last bits; C04 and C06 did not.
# Re-pinned when the pass became randomized quasi-Monte Carlo (shifted
# Halton replicates, Box-Muller normals in the lognormal sampler, errors
# from the replicate spread): every Monte-Carlo value and error moved, and
# the details gained the replicate and sample counts and C04's Haar errors,
# with every verdict unchanged on the pinned seed and on seeds 1-3, and the
# same digest at one, two and three workers.
# The OTHER digest: SHA-256 of the records of the nine claims outside the
# Monte-Carlo layer (runtime_s dropped) at the default config, C10's honest failure included,
# with mc_samples at 10^6, its default when the digest was pinned: these
# claims draw no Monte-Carlo sample, and the count shows only in the
# report's config.
# Re-pinned when C03 came to run as one stacked pass: it draws its 10,000
# points and their moves as stacks, so its points and measured value moved,
# and its detail gained the skipped-draw count and the chart condition
# numbers.  The conjugation s n s* came to take |r| by np.hypot on a stack
# too; the other eight records did not change by a byte.
# Re-pinned when C12 came to draw its 8 x 50 elements as eight stacks of 50:
# its elements and values moved with the new draw order.  C08, which came to
# check its 50 pairs as stacked calls over stacked cocycle vectors, did not
# change by a byte, nor did the other seven records.
OTHER_CLAIMS = ["C01", "C02", "C03", "C05", "C07", "C08", "C10", "C11", "C12"]

# Both digests, one (MC, OTHER) pair per arithmetic they were pinned under:
# the NumPy version and the highest CPU dispatch target it enables.  NumPy's
# AVX-512 and AVX2 (X86_V3) kernels of exp, log, tan, arctan2 and powers
# differ in their last bits, so the details of C04, C06, C09 and C12 differ
# between the two with every verdict the same.  An arithmetic with no pair
# fails the digest tests.  The X86_V3 pair is computed on an AVX-512 machine
# with X86_V3_ENV, which acts on the one process it is given to.
PINNED_DIGESTS = {
    ("2.4.6", "AVX512_SPR"): (
        "d64fd1613c3c1229a5fbd84f07d05694071b2aab3e62328c94faf35ce0d14599",
        "a43fbfb59a6d6f733127272252bf3f85ee5323b52a865024cf0c8da59deb4b0e",
    ),
    ("2.4.6", "X86_V3"): (
        "eaee559e0cb47a1ae98e1d8fada85385bc183e2005ec0d52c9c84f70205c7866",
        "461a9dbf32ca0a3f0bee6f3709e91e61512b93a55075da74db1cdc6571097c66",
    ),
}
X86_V3_ENV = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL AVX512_SKX AVX512F X86_V4"}


def running_arithmetic() -> dict:
    enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return {"numpy": np.__version__, "cpu_dispatch": (enabled or umath.__cpu_baseline__)[-1]}


def pinned_digests(arithmetic: dict) -> tuple[str, str]:
    """The (MC, OTHER) digests pinned under ``arithmetic``; none is a failure."""
    key = (arithmetic["numpy"], arithmetic["cpu_dispatch"])
    if key not in PINNED_DIGESTS:
        pytest.fail(f"no report digests pinned under {arithmetic}; pinned under {sorted(PINNED_DIGESTS)}")
    return PINNED_DIGESTS[key]


def digest_mismatch(pinned: str, running: str, arithmetic: dict) -> str:
    return (f"report digest {running} under {arithmetic} is not the pinned {pinned}; "
            f"digests are pinned under {sorted(PINNED_DIGESTS)}")


def report_digest(config: SuiteConfig, claim_ids) -> str:
    doc = json.loads(records_to_json(run_claims(config, claim_ids), config))
    for record in doc["claims"]:
        del record["runtime_s"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def mc_digest() -> str:
    return report_digest(SuiteConfig(mc_samples=20_000), ["C04", "C06", "C09"])


def other_digest() -> str:
    return report_digest(dataclasses.replace(CONFIG, mc_samples=1_000_000), OTHER_CLAIMS)


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_reports_match_the_pinned_digest(monkeypatch, workers):
    monkeypatch.setattr(measures, "WORKERS", workers)
    arithmetic = running_arithmetic()
    pinned, digest = pinned_digests(arithmetic)[0], mc_digest()
    assert digest == pinned, digest_mismatch(pinned, digest, arithmetic)


def test_other_reports_match_the_pinned_digest():
    arithmetic = running_arithmetic()
    pinned, digest = pinned_digests(arithmetic)[1], other_digest()
    assert digest == pinned, digest_mismatch(pinned, digest, arithmetic)


def test_reports_match_the_pinned_digests_under_x86_v3():
    # a second process with NumPy's AVX-512 targets disabled runs the
    # AVX2 kernels, so a machine with both checks the pins of both
    src = Path(claims.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(src), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    code = ("import json, test_acceptance as t; "
            "print(json.dumps([t.running_arithmetic(), t.mc_digest(), t.other_digest()]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath, **X86_V3_ENV))
    assert proc.returncode == 0, proc.stderr
    arithmetic, *digests = json.loads(proc.stdout)
    assert arithmetic["cpu_dispatch"] == "X86_V3", arithmetic
    for pinned, digest in zip(pinned_digests(arithmetic), digests):
        assert digest == pinned, digest_mismatch(pinned, digest, arithmetic)


def test_a_digest_mismatch_names_both_arithmetics():
    arithmetic = running_arithmetic()
    message = digest_mismatch("a" * 64, "b" * 64, arithmetic)
    assert str(arithmetic) in message and str(sorted(PINNED_DIGESTS)) in message
    assert set(arithmetic) == {"numpy", "cpu_dispatch"}


def test_an_unpinned_arithmetic_fails():
    with pytest.raises(pytest.fail.Exception, match="no report digests pinned"):
        pinned_digests({"numpy": "0.0", "cpu_dispatch": "NONE"})


def test_c08_and_c12_run_on_stacks(monkeypatch):
    # C08 factors its 50 pairs in four stacked calls (was one call per
    # element, 200), and C12 draws its 8 x 50 elements as eight stacks (was
    # 400 one-element draws)
    calls = collections.Counter()
    for module, name in ((claims, "iwasawa_decompose"), (extension, "iwasawa_decompose"), (claims, "random_q")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _name=name, **kwargs: calls.update([_name]) or _f(*args, **kwargs))
    run_claims(CONFIG, ["C08"])
    assert 0 < calls["iwasawa_decompose"] <= 4
    calls.clear()
    run_claims(CONFIG, ["C12"])
    assert 0 < calls["random_q"] <= 8


# The battery's contract: one tolerance per claim, pinned in the registry.
PINNED_TOLERANCES = {
    "C01": 1e-9, "C02": 1e-10, "C03": 1e-10, "C04": 1.0, "C05": 1e-11, "C06": 0.5,
    "C07": 1e-10, "C08": 1.0, "C09": 1.0, "C10": 0.5, "C11": 1e-6, "C12": 1e-9,
}


def test_the_registry_pins_every_tolerance():
    assert {cid: spec.tolerance for cid, spec in claims._REGISTRY.items()} == PINNED_TOLERANCES


def test_claims_return_only_their_measured_value_and_detail():
    # no claim returns a tolerance or a pass flag: run_claims alone judges
    tree = ast.parse(Path(claims.__file__).read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_claim_")]
    assert len(functions) == len(PINNED_TOLERANCES)
    for fn in functions:
        returns = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert returns and all(isinstance(v, ast.Tuple) and len(v.elts) == 2 for v in returns), fn.name


@pytest.mark.parametrize("override", [None, 10.0])
def test_a_value_at_its_tolerance_fails(monkeypatch, override):
    # the one rule, measured < tolerance, on every entry of the table: a loose
    # override does not pass a value at its tolerance, and one ulp below passes
    def verdicts(value_of):
        for cid, spec in claims._REGISTRY.items():
            measure = lambda config, rng, value=value_of(spec.tolerance): (value, {})  # noqa: E731
            monkeypatch.setitem(claims._REGISTRY, cid, dataclasses.replace(spec, fn=measure))
        return {r.verdict for r in run_claims(SuiteConfig(tol_override=override))}

    assert verdicts(lambda tolerance: tolerance) == {"fail"}
    assert verdicts(lambda tolerance: math.nextafter(tolerance, 0.0)) == {"pass"}
