"""The verification battery: every acceptance-grade claim as a ClaimRecord.

Each claim computes a headline measurement, judges it against its pinned
tolerance, and reports sub-measurements in a detail dictionary.  Composite
claims use a normalized headline (worst part residual divided by that
part's tolerance, pass iff <= 1).  Claims derive their random streams from
the suite seed and their registry position, so identical configs reproduce
identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import lie
from .extension import act_k, apply_extended, extend_cocycle
from .groups import (
    QElement,
    TriangularS,
    U22Element,
    is_in_u22,
    iwasawa_decompose,
    nested_q_commutator,
    q_multiply,
    random_k,
    random_n,
    random_q,
    random_s,
    random_u22,
    sigma_hat,
)
from .matrices import E4, frob
from .measures import (
    BoxSampler,
    LogNormalSampler,
    PolarShellSampler,
    haar_measure,
    integrate_mc,
    modulus_pi,
    nu_derivative_band,
    nu_measure,
    right_translation_jacobian_fd,
    rn_derivative_right,
    truncated_nu,
)
from .orbits import OrbitLabel, classify_orbit, orbit_coordinates
from .points import reference_points
from .rank1 import almost_invariant_check, gaussian_bump, left_indicator
from .representation import (
    CocycleVector,
    GroupFunction,
    apply_T,
    default_test_set,
    gram_matrix,
    specialness_report,
    translate,
    vacuum,
)

__all__ = ["SuiteConfig", "ClaimRecord", "CLAIM_IDS", "run_claims", "records_to_json", "records_to_csv"]

DEFAULT_EPS_LADDER = tuple(np.logspace(-1, -4, 7))


@dataclass
class SuiteConfig:
    """Knobs for the verification battery."""

    seed: int = 20240801
    mc_samples: int = 1_000_000
    sample_points: int = 100
    eps_ladder: tuple = DEFAULT_EPS_LADDER
    r_max: float = 30.0
    label: OrbitLabel = OrbitLabel.PLUS_PLUS
    tol_override: float | None = None

    def __post_init__(self):
        if self.mc_samples < 1000:
            raise ValueError("mc_samples must be at least 1000")
        if self.sample_points <= 0:
            raise ValueError("sample_points must be positive")
        if len(self.eps_ladder) < 5:
            raise ValueError("eps ladder needs at least 5 rungs")
        if any(e <= 0 for e in self.eps_ladder):
            raise ValueError("eps ladder entries must be positive")
        if self.r_max <= max(self.eps_ladder):
            raise ValueError("r_max must exceed the ladder")
        if self.tol_override is not None and self.tol_override <= 0:
            raise ValueError("tolerance override must be positive")


@dataclass(frozen=True)
class ClaimRecord:
    """One verified claim: id, human anchor, verdict, measurement, runtime."""

    claim_id: str
    anchor: str
    verdict: str  # pass | fail
    measured: float
    tolerance: float
    runtime_s: float
    detail: dict = field(default_factory=dict)


def _rng_for(config: SuiteConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(index,)))


# ---------------------------------------------------------------------------
# C01: group membership and closure


def _claim_group_membership(config: SuiteConfig, rng):
    # one stack each; every member is validated as its scalar constructor would
    elements = random_u22(rng, size=1000)
    products = elements[0::2].multiply(elements[1::2])
    inverses = elements[:500].inverse()
    stacks = (elements, products, inverses)
    worst = max(float(np.max(is_in_u22(g.m).max_residual())) for g in stacks)
    return worst, 1e-9, worst < 1e-9, {"elements": 1000, "products": 500, "inverses": 500}


# ---------------------------------------------------------------------------
# C02: semidirect coordinates against the matrix product


def _q_distance(q1: QElement, q2: QElement):
    return np.sqrt(q1.s.distance(q2.s) ** 2 + q1.n.distance(q2.n) ** 2)


def _claim_isomorphism(config: SuiteConfig, rng):
    # 1000 pairs as parallel arrays; every step validates member by member
    q1, q2 = random_q(rng, size=1000), random_q(rng, size=1000)
    roundtrip = q1.distance(QElement.from_matrix(q1.matrix()))
    via_matrix = QElement.from_matrix(q1.matrix() @ q2.matrix())
    direct = q_multiply(q1, q2)
    scale = np.maximum(1.0, direct.s.norm() + direct.n.norm())
    worst = float(max(np.max(roundtrip), np.max(_q_distance(via_matrix, direct) / scale)))
    return worst, 1e-10, worst < 1e-10, {"pairs": 1000}


# ---------------------------------------------------------------------------
# C03: orbit chart round trip and label invariance


def _claim_orbit_chart(config: SuiteConfig, rng):
    worst = 0.0
    label_flips = 0
    count = 10_000
    for _ in range(count):
        m = random_n(rng)
        label = classify_orbit(m)
        if label is None:  # zero-measure tail; resample
            continue
        s = orbit_coordinates(m)
        rebuilt = label.representative().conjugate_by(s)
        worst = max(worst, rebuilt.distance(m) / max(1.0, m.norm()))
        for _ in range(10):
            moved = m.conjugate_by(random_s(rng))
            if classify_orbit(moved) is not label:
                label_flips += 1
    measured = worst if label_flips == 0 else 1.0
    return measured, 1e-10, measured < 1e-10, {
        "points": count,
        "max_reconstruction_residual": worst,
        "label_flips": label_flips,
    }


# ---------------------------------------------------------------------------
# C04: measure transformation laws (composite; headline = worst ratio)


def _box_translation_part(s0: TriangularS, n: int, rng) -> dict:
    # The unit box in chart coordinates, pushed through s -> s s0: sample a
    # bounding box of its image, pull the points back by s0^-1 and count
    # those that land in the unit box.
    unit = BoxSampler(1.0, 2.0, 1.0, 2.0, -0.5, 0.5, -0.5, 0.5)
    corners = [(c, t) for c in (unit.re_lo, unit.re_hi) for t in (unit.r2_lo, unit.r2_hi)]
    re_parts = [c * s0.r1 + s0.r.real * t for c, t in corners]
    im_parts = [c * s0.r1 + s0.r.imag * t for c, t in corners]
    box = BoxSampler(
        *sorted((unit.r1_lo * s0.r1, unit.r1_hi * s0.r1)),
        *sorted((unit.r2_lo * s0.r2, unit.r2_hi * s0.r2)),
        min(re_parts), max(re_parts), min(im_parts), max(im_parts),
    )
    preimages = box.sample(n, rng).multiply(s0.inverse())
    p_hat = float(np.mean(unit.contains(preimages)))
    mass = box.volume * p_hat
    sigma = box.volume * math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)
    expected = modulus_pi(s0) * unit.volume
    return {"mass": mass, "expected": expected, "sigma": sigma,
            "deviation_sigmas": abs(mass - expected) / sigma}


def _claim_measure_laws(config: SuiteConfig, rng):
    parts = {}
    # (a) pi multiplicativity
    s1, s2 = random_s(rng, size=10_000), random_s(rng, size=10_000)
    ratio = modulus_pi(s1.multiply(s2)) / (modulus_pi(s1) * modulus_pi(s2))
    worst_pi = float(np.max(np.abs(ratio - 1.0)))
    parts["pi_multiplicativity"] = {"residual": worst_pi, "tolerance": 1e-13}

    # (b) translated-box Monte-Carlo mass against pi(s0) * volume
    s0 = TriangularS(1.4, 0.7, 0.3 + 0.2j)
    box = _box_translation_part(s0, config.mc_samples, rng)
    parts["box_translation"] = {"residual": box["deviation_sigmas"], "tolerance": 3.0, **box}

    # finite-difference Jacobian cross-check of the same law
    fd = right_translation_jacobian_fd(random_s(rng), s0)
    fd_res = abs(fd / modulus_pi(s0) - 1.0)
    parts["jacobian_fd"] = {"residual": fd_res, "tolerance": 1e-6, "value": fd}

    # (c) Haar right-invariance for a smooth decaying bump
    bump = GroupFunction(
        lambda pts: np.exp(-np.log(pts.r1) ** 2 - np.log(pts.r2) ** 2 - np.abs(pts.r) ** 2)
    )
    sampler = LogNormalSampler(tau=1.2, sigma_r=1.2)
    s_shift = TriangularS(1.3, 0.8, 0.2 + 0.1j)
    est_base = integrate_mc(bump, haar_measure(), sampler, config.mc_samples, rng, mode="plain")
    est_moved = integrate_mc(
        translate(bump, s_shift), haar_measure(), sampler, config.mc_samples, rng, mode="plain"
    )
    sigma = math.hypot(est_base.std_error, est_moved.std_error)
    dev = abs(est_base.real - est_moved.real) / sigma
    parts["haar_invariance"] = {
        "residual": dev,
        "tolerance": 3.0,
        "base": est_base.real,
        "moved": est_moved.real,
    }

    # (d) derivative of the almost-invariant measure inside its analytic band
    worst_band = 0.0
    slack = 1.0 + 1e-12
    for s_trans in (s0, TriangularS(0.6, 1.8, 1.0 - 0.5j)):
        lo, hi = nu_derivative_band(s_trans)
        val = rn_derivative_right(nu_measure(), random_s(rng, size=5_000), s_trans)
        out = (val > hi * slack) | (val < lo / slack)
        worst = np.max(np.maximum(val / hi, lo / val), where=out, initial=0.0)
        worst_band = max(worst_band, float(worst))
    parts["nu_derivative_band"] = {"residual": worst_band, "tolerance": 1.0,
                                   "note": "0 means every sample inside the band"}

    headline = max(p["residual"] / p["tolerance"] for p in parts.values())
    return headline, 1.0, headline <= 1.0, parts


# ---------------------------------------------------------------------------
# C05: the pointwise representation property


def _claim_representation_property(config: SuiteConfig, rng):
    pts = reference_points(config.sample_points)
    base = vacuum()
    worst = 0.0
    for label in OrbitLabel:
        # 200 pairs on a leading axis: each operator call gives (200, points) values
        q1, q2 = random_q(rng, size=(200, 1)), random_q(rng, size=(200, 1))
        composed = apply_T(q1, label, apply_T(q2, label, base))
        direct = apply_T(q_multiply(q1, q2), label, base)
        worst = max(worst, float(np.max(np.abs(composed(pts) - direct(pts)))))
    return worst, 1e-11, worst < 1e-11, {"pairs_per_label": 200, "points": pts.size}


# ---------------------------------------------------------------------------
# C06: the special witness


def _claim_specialness(config: SuiteConfig, rng):
    # the working measure and the truncated control share one sample stream
    report, control = specialness_report(
        default_test_set(),
        config.label,
        (nu_measure(), truncated_nu(1.0)),
        config.eps_ladder,
        config.r_max,
        config.mc_samples,
        rng,
    )
    vac = report.vacuum_verdict
    ok = (
        report.confirmed
        and vac.classification == "log-divergent"
        and not control.confirmed
        and control.vacuum_verdict.classification == "convergent"
    )
    detail = {
        "verdict": report.verdict,
        "vacuum_classification": vac.classification,
        "vacuum_slope": vac.slope,
        "vacuum_slope_stderr": vac.slope_stderr,
        "vacuum_r_squared": vac.r_squared,
        "coboundaries": [
            {"element": desc, "classification": v.classification}
            for desc, v in report.element_verdicts
        ],
        "control_verdict": control.verdict,
    }
    return (0.0 if ok else 1.0), 0.5, ok, detail


# ---------------------------------------------------------------------------
# C07: triangular-times-compact factorization


def _claim_iwasawa(config: SuiteConfig, rng):
    worst = 0.0
    for _ in range(1000):
        g = random_u22(rng)
        p, k = iwasawa_decompose(g)
        scale = max(1.0, frob(g.m))
        worst = max(worst, frob(p.matrix() @ k.m - g.m) / scale)
        g11 = k.m[:2, :2]
        g12 = k.m[:2, 2:]
        worst = max(worst, frob(k.m @ k.m.conj().T - E4) / scale)
        worst = max(worst, frob(g11 - k.m[2:, 2:]), frob(g12 - k.m[2:, :2]))
        # uniqueness round trip from a fresh (p, k) pair
        p0, k0 = random_q(rng), random_k(rng)
        g2 = U22Element(p0.matrix() @ k0.m, tol=1e-9)
        p2, k2 = iwasawa_decompose(g2)
        worst = max(worst, p2.distance(p0) / max(1.0, p0.s.norm() + frob(p0.x)))
        worst = max(worst, frob(k2.m - k0.m))
    return worst, 1e-10, worst < 1e-10, {"elements": 1000}


# ---------------------------------------------------------------------------
# C08: the extension (compact action, involution, extended cocycle identity)


def _claim_extension(config: SuiteConfig, rng):
    parts = {}
    worst_k = 0.0
    for _ in range(200):
        k1, k2, p = random_k(rng), random_k(rng), random_q(rng)
        lhs = act_k(k1.multiply(k2), p)
        rhs = act_k(k1, act_k(k2, p))
        worst_k = max(worst_k, lhs.distance(rhs) / max(1.0, lhs.s.norm() + frob(lhs.x)))
    parts["k_group_law"] = {"residual": worst_k, "tolerance": 1e-9}

    worst_sigma = 0.0
    for _ in range(100):
        p = random_q(rng)
        back = sigma_hat(sigma_hat(p))
        worst_sigma = max(worst_sigma, back.distance(p) / max(1.0, p.s.norm() + frob(p.x)))
    parts["sigma_involution"] = {"residual": worst_sigma, "tolerance": 1e-10}

    pts = reference_points(config.sample_points)
    label = config.label
    worst_cocycle = 0.0
    for _ in range(50):
        g1, g2 = random_u22(rng), random_u22(rng)
        lhs = extend_cocycle(g1.multiply(g2), label)
        rhs = apply_extended(g1, extend_cocycle(g2, label)) + extend_cocycle(g1, label)
        worst_cocycle = max(worst_cocycle, float(np.max(np.abs(lhs.evaluate(pts) - rhs.evaluate(pts)))))
    parts["extended_cocycle_identity"] = {"residual": worst_cocycle, "tolerance": 1e-8}

    headline = max(p["residual"] / p["tolerance"] for p in parts.values())
    return headline, 1.0, headline <= 1.0, parts


# ---------------------------------------------------------------------------
# C09: Gram-matrix evidence for linear independence


def _claim_gram(config: SuiteConfig, rng):
    p_list = [random_q(rng) for _ in range(6)]
    sampler = PolarShellSampler(1e-4, config.r_max)
    gram, stderr = gram_matrix(
        p_list, config.label, nu_measure(), sampler, config.mc_samples, rng
    )
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigmin = float(eigvals[0])
    v = eigvecs[:, 0]
    # honest error for the eigenvalue: estimate the squared norm of the
    # least-independent combination with a fresh sample stream; the norm of
    # sum c_i b(p_i) is conj(c)* G conj(c), so the coefficients are conjugated
    combo = CocycleVector(config.label, tuple((complex(np.conj(c)), p) for c, p in zip(v, p_list)))
    proj = integrate_mc(combo.as_group_function(), nu_measure(), sampler, config.mc_samples, rng)
    measured = 3.0 * proj.std_error / proj.real if proj.real > 0 else float("inf")
    return measured, 1.0, measured < 1.0, {
        "smallest_eigenvalue": eigmin,
        "projected_value": proj.real,
        "projected_stderr": proj.std_error,
        "entry_stderr_frobenius": float(np.linalg.norm(stderr)),
        "hermiticity_residual": float(np.linalg.norm(gram - gram.conj().T)),
    }


# ---------------------------------------------------------------------------
# C10: infinitesimal generation (16-column rank; see ledger for the analysis)


def _claim_infinitesimal_generation(config: SuiteConfig, rng):
    columns = np.concatenate([lie.P_BASIS, lie.sigma_conjugate(lie.P_BASIS)])
    rank = lie.real_span_rank(columns, tol=1e-8)
    closure = lie.generated_subalgebra_dimension(columns, tol=1e-8)
    # measured value is the rank deficiency against the full dimension 16,
    # so the usual measured-below-tolerance convention applies
    deficiency = float(16 - rank)
    return deficiency, 0.5, deficiency <= 0.5, {
        "union_span_rank": rank,
        "bracket_closure_dimension": closure,
        "ambient_dimension": lie.real_span_rank(lie.U22_BASIS),
        "note": "every generator is traceless, so bracket closure tops out at "
        "the traceless subalgebra (dimension 15) and the plain span at 14",
    }


# ---------------------------------------------------------------------------
# C11: the rank-1 line model


def _claim_rank1(config: SuiteConfig, rng):
    from scipy.special import sici  # deferred: keeps SciPy off u22lab's import path

    a, b = 0.75, 2.0
    report = almost_invariant_check(left_indicator(0.0), 0.0, a, b)
    # independent closed forms: shift difference integrates to |a|; the
    # character difference to 2 (gamma + log b - Ci(b)) for the indicator
    _, ci_b = sici(b)
    expected_char = 2.0 * (np.euler_gamma + math.log(b) - ci_b)
    rel_char = abs(report.character_difference.value - expected_char) / expected_char
    rel_shift = abs(report.shift_difference.value - a) / a
    gauss = almost_invariant_check(gaussian_bump(), 0.0, a, b)
    quad_ok = max(rel_char, rel_shift)
    ok = (
        report.all_hold
        and gauss.not_square_integrable.holds is False
        and quad_ok < 1e-6
    )
    return quad_ok, 1e-6, ok, {
        "witness_all_hold": report.all_hold,
        "char_value": report.character_difference.value,
        "char_expected": expected_char,
        "shift_value": report.shift_difference.value,
        "shift_expected": a,
        "gaussian_condition_ii_holds": gauss.not_square_integrable.holds,
    }


# ---------------------------------------------------------------------------
# C12: the derived length


def _claim_derived_length(config: SuiteConfig, rng):
    worst_triple = 0.0
    best_double = 0.0
    for _ in range(50):
        qs = [random_q(rng) for _ in range(8)]
        triple = nested_q_commutator(qs)
        worst_triple = max(worst_triple, frob(triple.matrix() - E4))
        double = nested_q_commutator(qs[:4])
        best_double = max(best_double, frob(double.matrix() - E4))
    ok = worst_triple < 1e-9 and best_double > 1e-2
    return worst_triple, 1e-9, ok, {
        "max_triple_distance": worst_triple,
        "max_double_distance": best_double,
    }


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class _ClaimSpec:
    anchor: str
    fn: Callable


_REGISTRY: dict[str, _ClaimSpec] = {
    "C01": _ClaimSpec("products and inverses of random elements stay in the group", _claim_group_membership),
    "C02": _ClaimSpec("semidirect coordinates multiply exactly like the block matrices", _claim_isomorphism),
    "C03": _ClaimSpec("orbit classification and chart reconstruct the point; labels are action invariants", _claim_orbit_chart),
    "C04": _ClaimSpec("translation Jacobian, Haar invariance, and the derivative band of the working measure", _claim_measure_laws),
    "C05": _ClaimSpec("the operators compose pointwise as a representation", _claim_representation_property),
    "C06": _ClaimSpec("the vacuum escapes the square-integrable space while its coboundaries stay inside", _claim_specialness),
    "C07": _ClaimSpec("triangular-times-compact factorization reconstructs uniquely", _claim_iwasawa),
    "C08": _ClaimSpec("compact action, swap involution, and the extended cocycle identity", _claim_extension),
    "C09": _ClaimSpec("the cocycle Gram matrix is numerically nonsingular", _claim_gram),
    "C10": _ClaimSpec("the triangular subalgebra and its swap conjugate span everything", _claim_infinitesimal_generation),
    "C11": _ClaimSpec("line-model almost-invariance conditions verified by quadrature", _claim_rank1),
    "C12": _ClaimSpec("triple commutators vanish while some double commutator does not", _claim_derived_length),
}

CLAIM_IDS = tuple(_REGISTRY)


def run_claims(config: SuiteConfig, claim_ids=None) -> list[ClaimRecord]:
    """Run the battery (or a subset) and return records sorted by claim id."""
    selected = set(claim_ids) if claim_ids else set(CLAIM_IDS)
    unknown = selected - set(CLAIM_IDS)
    if unknown:
        raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    records = []
    for index, (cid, spec) in enumerate(_REGISTRY.items()):
        if cid not in selected:
            continue
        rng = _rng_for(config, index)
        start = time.perf_counter()
        measured, tolerance, passed, detail = spec.fn(config, rng)
        runtime = time.perf_counter() - start
        if config.tol_override is not None:  # may only tighten a verdict
            tolerance = config.tol_override
            passed = passed and measured <= tolerance
        records.append(
            ClaimRecord(
                cid,
                spec.anchor,
                "pass" if passed else "fail",
                float(measured),
                float(tolerance),
                runtime,
                _plain(detail),
            )
        )
    return sorted(records, key=lambda r: r.claim_id)


def _plain(obj):
    """Coerce numpy scalars and containers to JSON-friendly values."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def records_to_json(records, config: SuiteConfig, timestamp: str | None = None) -> str:
    doc = {
        "config": {
            "seed": config.seed,
            "mc_samples": config.mc_samples,
            "sample_points": config.sample_points,
            "eps_ladder": [float(e) for e in config.eps_ladder],
            "r_max": config.r_max,
            "label": str(config.label),
            "tol_override": config.tol_override,
        },
        "claims": [
            {
                "claim_id": r.claim_id,
                "anchor": r.anchor,
                "verdict": r.verdict,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "runtime_s": round(r.runtime_s, 6),
                "detail": r.detail,
            }
            for r in records
        ],
        "summary": {
            "passed": sum(1 for r in records if r.verdict == "pass"),
            "failed": sum(1 for r in records if r.verdict == "fail"),
        },
    }
    if timestamp is not None:
        doc["timestamp"] = timestamp
    return json.dumps(doc, indent=2, sort_keys=True)


def records_to_csv(records) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["claim_id", "anchor", "verdict", "measured", "tolerance", "runtime_s"])
    for r in records:
        writer.writerow([r.claim_id, r.anchor, r.verdict, f"{r.measured:.12g}", f"{r.tolerance:.12g}", f"{r.runtime_s:.6f}"])
    return buffer.getvalue()
