"""The verification battery: every acceptance-grade claim as a ClaimRecord.

Each claim returns its headline measurement and a detail dictionary of
sub-measurements.  The contract is one table and one rule: the registry
(``_REGISTRY``, at the end of this module) pins each claim's tolerance, and
``run_claims`` alone judges, passing a claim when its measured value is
below that tolerance.  A claim with a condition besides its headline
(C03's label flips, C06's classifications, C11's witness conditions, C12's
nonzero double commutator) measures 1.0 when the condition fails, above its
tolerance.  Composite claims (C04, C08) measure the worst part residual
divided by that part's tolerance, against 1.  Every record reports its
registry tolerance.  A run varies only ``SuiteConfig``'s seed, sample count
and label; C05's and C08's test points (``SAMPLE_POINTS``), C06's ladder
and the shells' outer radius are constants.  Claims derive their random
streams from the suite seed and their registry position, so identical
configs reproduce identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np

from . import lie
from .extension import act_k, apply_extended, extend_cocycle
from .groups import (
    QElement,
    SkewHermitian2,
    TriangularS,
    U22Element,
    iwasawa_decompose,
    nested_q_commutator,
    q_join,
    q_multiply,
    random_k,
    random_n,
    random_q,
    random_s,
    random_u22,
    sigma_hat,
)
from .matrices import E4, U22Error, adjoint, blocks, frob
from .measures import (
    BLOCK,
    DEFAULT_R_MAX,
    REPLICATES,
    BoxSampler,
    LogNormalSampler,
    PolarShellSampler,
    check_samples,
    haar_measure,
    integrate_mc,
    mc_estimate,
    mc_sum,
    modulus_pi,
    nu_derivative_band,
    nu_measure,
    right_translation_jacobian_fd,
    rn_derivative_right,
    _warm_heap,
)
from .orbits import OrbitLabel, _orbit_chart
from .points import reference_points
from .rank1 import almost_invariant_check, gaussian_bump, left_indicator
from .representation import (
    CocycleVector,
    GroupFunction,
    apply_T,
    gram_matrix,
    specialness_report,
    vacuum,
)

__all__ = ["SuiteConfig", "ClaimRecord", "CLAIM_IDS", "run_claims", "to_json", "to_csv", "records_to_json", "records_to_csv"]


# C05's and C08's pointwise test set: the first SAMPLE_POINTS reference points
SAMPLE_POINTS = 100

# The values each annotation of a SuiteConfig field admits: an int is not a bool.
_KNOB_TYPES = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "OrbitLabel": lambda v: isinstance(v, OrbitLabel),
}


@dataclass
class SuiteConfig:
    """What a run of the battery varies: its seed, its Monte-Carlo sample
    count and its orbit label.  C06's cutoff ladder and the outer radius of
    C06's and C09's shells are constants of the battery, not fields."""

    seed: int = 20240801
    mc_samples: int = REPLICATES * BLOCK  # one block per replicate
    label: OrbitLabel = OrbitLabel.PLUS_PLUS
    eps_ladder: ClassVar[tuple[float, ...]] = tuple(np.logspace(-1, -4, 7))
    r_max: ClassVar[float] = DEFAULT_R_MAX

    def __post_init__(self):
        """Every command's knobs enter here: a value of the wrong type, then
        one out of range, is a ``U22Error``, from the owner of its bound."""
        for knob in fields(self):
            value = getattr(self, knob.name)
            if not _KNOB_TYPES[knob.type](value):
                raise U22Error(f"config field {knob.name!r} has a bad value: {value!r}")
        if self.seed < 0:
            raise U22Error(f"seed must be nonnegative, got {self.seed}")
        check_samples(self.mc_samples)


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
    # one stack each; every member is validated once, as its scalar
    # constructor would, and the claim reads the constructors' reports
    elements = random_u22(rng, size=1000)
    products = elements[0::2].multiply(elements[1::2])
    inverses = elements[:500].inverse()
    stacks = (elements, products, inverses)
    worst = max(float(np.max(g.report.max_residual())) for g in stacks)
    return worst, {"elements": 1000, "products": 500, "inverses": 500}


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
    return worst, {"pairs": 1000}


# ---------------------------------------------------------------------------
# C03: orbit chart round trip and label invariance


def _claim_orbit_chart(config: SuiteConfig, rng):
    # one stack: the labels and charts of 10,000 points, their
    # reconstructions, and ten moved copies of each charted point
    count = 10_000
    m = random_n(rng, size=count)
    e1, e2, r1, r2, r = _orbit_chart(m)
    keep = e1 != 0  # the degenerate points are a zero-measure tail; skipped
    e1, e2 = e1[keep], e2[keep]
    m, s = SkewHermitian2(m.a[keep], m.b[keep], m.z[keep]), TriangularS(r1[keep], r2[keep], r[keep])
    residual = SkewHermitian2(e1, e2, 0.0).conjugate_by(s).distance(m) / np.maximum(1.0, m.norm())
    condition = s.norm() ** 2 / np.maximum(1.0, m.norm())  # kappa = |s|^2 / max(1, |m|)
    moved_e1, moved_e2 = _orbit_chart(m.conjugate_by(random_s(rng, size=(10, e1.size))))[:2]
    label_flips = np.count_nonzero((moved_e1 != e1) | (moved_e2 != e2))
    worst = np.argmax(residual)
    measured = residual[worst] if label_flips == 0 else 1.0
    return measured, {
        "points": count,
        "degenerate_skipped": count - e1.size,
        "max_reconstruction_residual": residual[worst],
        "label_flips": label_flips,
        "max_chart_condition": condition.max(),
        "worst_residual_chart_condition": condition[worst],
    }


# ---------------------------------------------------------------------------
# C04: measure transformation laws (composite; headline = worst ratio)


def _box_translation_part(s0: TriangularS, n: int, rng) -> dict:
    # The unit box in chart coordinates, pushed through s -> s s0: sample a
    # bounding box of its image, pull the points back by s0^-1 and count
    # those that land in the unit box, block by block in the one Monte-Carlo
    # pass: exact integer counts, whose replicate spread gives sigma.
    # The map is linear in the chart coordinates, so the images of the 16
    # corners bound the image of the box.
    unit = BoxSampler((1.0, 1.0, -0.5, -0.5), (2.0, 2.0, 0.5, 0.5))
    corners = np.stack(np.meshgrid(*zip(unit.lo, unit.hi), indexing="ij")).reshape(4, -1)
    image = TriangularS(corners[0], corners[1], corners[2] + 1j * corners[3]).multiply(s0)
    image = np.stack([image.r1, image.r2, image.r.real, image.r.imag])
    box = BoxSampler(tuple(image.min(axis=1).tolist()), tuple(image.max(axis=1).tolist()))
    inverse = s0.inverse()
    inside = mc_sum(box, n, rng, lambda view: np.count_nonzero(unit.contains(view.multiply(inverse))))
    fraction, spread = mc_estimate(inside, n)
    mass, sigma = box.volume * fraction, box.volume * spread
    expected = modulus_pi(s0) * unit.volume
    return {"mass": mass, "expected": expected, "sigma": sigma,
            "deviation_sigmas": abs(mass - expected) / sigma, "replicates": REPLICATES, "sample_count": n}


def _claim_measure_laws(config: SuiteConfig, rng):
    """C04, the worst part residual over its tolerance.  Two parts are 3-sigma
    gates on Monte-Carlo estimates, which fail by chance at a design rate of
    about 1.43 % per seed: the box deviation follows t with 15 degrees of
    freedom (0.90 % beyond 3), the Haar difference about t with 30 (0.54 %).
    Measured: 9 failures in seeds 1-1000, 3 of the box part and 6 of Haar."""
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
    sampler = LogNormalSampler()
    # n = 0: apply_T only right-translates the bump, with no multiplier
    shift = QElement(TriangularS(1.3, 0.8, 0.2 + 0.1j), SkewHermitian2.zero())
    base, base_stderr = integrate_mc(bump, haar_measure, sampler, config.mc_samples, rng, mode="plain")
    moved, moved_stderr = integrate_mc(
        apply_T(shift, config.label, bump), haar_measure, sampler, config.mc_samples, rng, mode="plain"
    )
    sigma = math.hypot(base_stderr, moved_stderr)
    dev = abs(base - moved) / sigma
    parts["haar_invariance"] = {
        "residual": dev,
        "tolerance": 3.0,
        "base": base,
        "moved": moved,
        "base_stderr": base_stderr,
        "moved_stderr": moved_stderr,
        "replicates": REPLICATES,
        "sample_count": config.mc_samples,
    }

    # (d) derivative of the almost-invariant measure inside its analytic band
    worst_band = 0.0
    slack = 1.0 + 1e-12
    for s_trans in (s0, TriangularS(0.6, 1.8, 1.0 - 0.5j)):
        lo, hi = nu_derivative_band(s_trans)
        val = rn_derivative_right(nu_measure, random_s(rng, size=5_000), s_trans)
        out = (val > hi * slack) | (val < lo / slack)
        worst = np.max(np.maximum(val / hi, lo / val), where=out, initial=0.0)
        worst_band = max(worst_band, float(worst))
    parts["nu_derivative_band"] = {"residual": worst_band, "tolerance": 1.0,
                                   "note": "0 means every sample inside the band"}

    return max(p["residual"] / p["tolerance"] for p in parts.values()), parts


# ---------------------------------------------------------------------------
# C05: the pointwise representation property


def _claim_representation_property(config: SuiteConfig, rng):
    pts = reference_points(SAMPLE_POINTS)
    base = vacuum()
    worst = 0.0
    for label in OrbitLabel:
        # 200 pairs on a leading axis: each operator call gives (200, points) values
        q1, q2 = random_q(rng, size=(200, 1)), random_q(rng, size=(200, 1))
        composed = apply_T(q1, label, apply_T(q2, label, base))
        direct = apply_T(q_multiply(q1, q2), label, base)
        worst = max(worst, float(np.max(np.abs(composed(pts) - direct(pts)))))
    return worst, {"pairs_per_label": 200, "points": pts.size}


# ---------------------------------------------------------------------------
# C06: the special witness


def _claim_specialness(config: SuiteConfig, rng):
    # the working measure and the truncated control share one sample stream
    report, control = specialness_report(config.label, config.eps_ladder, config.r_max, config.mc_samples, rng)
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
        "replicates": REPLICATES,
        "sample_count": config.mc_samples,
    }
    return (0.0 if ok else 1.0), detail


# ---------------------------------------------------------------------------
# C07: triangular-times-compact factorization


def _relative_distance(q: QElement, ref: QElement):
    return q.distance(ref) / np.maximum(1.0, ref.s.norm() + frob(ref.x))


def _claim_iwasawa(config: SuiteConfig, rng):
    g = random_u22(rng, size=1000)
    p, k = iwasawa_decompose(g)
    scale = np.maximum(1.0, frob(g.m))
    k11, k12, k21, k22 = blocks(k.m)
    # uniqueness round trip from fresh (p, k) pairs
    p0, k0 = random_q(rng, size=1000), random_k(rng, size=1000)
    p2, k2 = iwasawa_decompose(U22Element(p0.matrix() @ k0.m))
    residuals = (
        frob(p.matrix() @ k.m - g.m) / scale,
        frob(k.m @ adjoint(k.m) - E4) / scale,
        frob(k11 - k22),
        frob(k12 - k21),
        _relative_distance(p2, p0),
        frob(k2.m - k0.m),
    )
    worst = float(max(np.max(r) for r in residuals))
    return worst, {"elements": 1000}


# ---------------------------------------------------------------------------
# C08: the extension (compact action, involution, extended cocycle identity)


def _claim_extension(config: SuiteConfig, rng):
    parts = {}
    k1, k2, p = random_k(rng, size=200), random_k(rng, size=200), random_q(rng, size=200)
    lhs = act_k(k1.multiply(k2), p)
    rhs = act_k(k1, act_k(k2, p))
    parts["k_group_law"] = {"residual": float(np.max(_relative_distance(rhs, lhs))), "tolerance": 1e-9}

    p = random_q(rng, size=100)
    back = sigma_hat(sigma_hat(p))
    parts["sigma_involution"] = {"residual": float(np.max(_relative_distance(back, p))), "tolerance": 1e-10}

    pts = reference_points(SAMPLE_POINTS)
    g = random_u22(rng, size=100)
    g1, g2 = g[0::2], g[1::2]
    lhs = extend_cocycle(g1.multiply(g2), config.label)
    rhs = apply_extended(g1, extend_cocycle(g2, config.label)) + extend_cocycle(g1, config.label)
    worst_cocycle = float(np.max(np.abs(lhs.evaluate(pts) - rhs.evaluate(pts))))
    parts["extended_cocycle_identity"] = {"residual": worst_cocycle, "tolerance": 1e-8}

    return max(p["residual"] / p["tolerance"] for p in parts.values()), parts


# ---------------------------------------------------------------------------
# C09: Gram-matrix evidence for linear independence


def _claim_gram(config: SuiteConfig, rng):
    p_list = [random_q(rng) for _ in range(6)]
    sampler = PolarShellSampler(r_max=config.r_max)
    gram, stderr = gram_matrix(p_list, config.label, sampler, config.mc_samples, rng)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigmin = float(eigvals[0])
    v = eigvecs[:, 0]
    # honest error for the eigenvalue: estimate the squared norm of the
    # least-independent combination with a fresh sample stream; the norm of
    # sum c_i b(p_i) is conj(c)* G conj(c), so the coefficients are conjugated
    combo = CocycleVector(config.label, np.conj(v), q_join(np.stack, p_list))
    proj, proj_stderr = integrate_mc(combo.evaluate, nu_measure, sampler, config.mc_samples, rng)
    measured = 3.0 * proj_stderr / proj if proj > 0 else float("inf")
    return measured, {
        "smallest_eigenvalue": eigmin,
        "projected_value": proj,
        "projected_stderr": proj_stderr,
        "entry_stderr_frobenius": float(np.linalg.norm(stderr)),
        "hermiticity_residual": float(np.linalg.norm(gram - gram.conj().T)),
        "replicates": REPLICATES,
        "sample_count": config.mc_samples,
    }


# ---------------------------------------------------------------------------
# C10: infinitesimal generation (16-column rank; see ledger for the analysis)


def _claim_infinitesimal_generation(config: SuiteConfig, rng):
    columns = np.concatenate([lie.P_BASIS, lie.sigma_conjugate(lie.P_BASIS)])
    rank = lie.real_span_rank(columns)
    closure = lie.generated_subalgebra_dimension(columns)
    # measured value is the rank deficiency against the full dimension 16,
    # so the usual measured-below-tolerance convention applies
    deficiency = float(16 - rank)
    return deficiency, {
        "union_span_rank": rank,
        "bracket_closure_dimension": closure,
        "ambient_dimension": lie.real_span_rank(lie.U22_BASIS),
        "note": "every generator is traceless, so bracket closure tops out at "
        "the traceless subalgebra (dimension 15) and the plain span at 14",
    }


# ---------------------------------------------------------------------------
# C11: the rank-1 line model


def _claim_rank1(config: SuiteConfig, rng):
    a, b = 0.75, 2.0
    report = almost_invariant_check(left_indicator(0.0), 0.0, a, b)
    # independent closed forms: shift difference integrates to |a|; the
    # character difference to 2 (gamma + log b - Ci(b)) = 2 Cin(b) for the
    # indicator, summed from Cin's entire power series (DLMF 6.6)
    expected_char = 2.0 * math.fsum(
        (-1) ** (k + 1) * b ** (2 * k) / (2 * k * math.factorial(2 * k)) for k in range(1, 31)
    )
    rel_char = abs(report.character_difference.value - expected_char) / expected_char
    rel_shift = abs(report.shift_difference.value - a) / a
    gauss = almost_invariant_check(gaussian_bump(), 0.0, a, b)
    witness_ok = report.all_hold and gauss.not_square_integrable.holds is False
    return max(rel_char, rel_shift) if witness_ok else 1.0, {
        "witness_all_hold": report.all_hold,
        "char_value": report.character_difference.value,
        "char_expected": expected_char,
        "char_abserr": report.character_difference.abserr,
        "shift_value": report.shift_difference.value,
        "shift_expected": a,
        "shift_abserr": report.shift_difference.abserr,
        "gaussian_condition_ii_holds": gauss.not_square_integrable.holds,
    }


# ---------------------------------------------------------------------------
# C12: the derived length


def _claim_derived_length(config: SuiteConfig, rng):
    # 50 commutators at once: element i of each of the 8 stacks enters the i-th
    qs = [random_q(rng, size=50) for _ in range(8)]
    worst_triple = float(np.max(frob(nested_q_commutator(qs).matrix() - E4)))
    best_double = float(np.max(frob(nested_q_commutator(qs[:4]).matrix() - E4)))
    return worst_triple if best_double > 1e-2 else 1.0, {
        "max_triple_distance": worst_triple,
        "max_double_distance": best_double,
    }


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class _ClaimSpec:
    anchor: str
    tolerance: float
    fn: Callable


_REGISTRY: dict[str, _ClaimSpec] = {
    "C01": _ClaimSpec("products and inverses of random elements stay in the group", 1e-9, _claim_group_membership),
    "C02": _ClaimSpec("semidirect coordinates multiply exactly like the block matrices", 1e-10, _claim_isomorphism),
    "C03": _ClaimSpec("orbit classification and chart reconstruct the point; labels are action invariants", 1e-10, _claim_orbit_chart),
    "C04": _ClaimSpec("translation Jacobian, Haar invariance, and the derivative band of the working measure", 1.0, _claim_measure_laws),
    "C05": _ClaimSpec("the operators compose pointwise as a representation", 1e-11, _claim_representation_property),
    "C06": _ClaimSpec("the vacuum escapes the square-integrable space while its coboundaries stay inside", 0.5, _claim_specialness),
    "C07": _ClaimSpec("triangular-times-compact factorization reconstructs uniquely", 1e-10, _claim_iwasawa),
    "C08": _ClaimSpec("compact action, swap involution, and the extended cocycle identity", 1.0, _claim_extension),
    "C09": _ClaimSpec("the cocycle Gram matrix is numerically nonsingular", 1.0, _claim_gram),
    "C10": _ClaimSpec("the triangular subalgebra and its swap conjugate span everything", 0.5, _claim_infinitesimal_generation),
    "C11": _ClaimSpec("line-model almost-invariance conditions verified by quadrature", 1e-6, _claim_rank1),
    "C12": _ClaimSpec("triple commutators vanish while some double commutator does not", 1e-9, _claim_derived_length),
}

CLAIM_IDS = tuple(_REGISTRY)


def run_claims(config: SuiteConfig, claim_ids=None) -> list[ClaimRecord]:
    """Run the battery (or a subset) and return records sorted by claim id.

    The heap is warmed before the first claim, once per process
    (``measures._warm_heap``), so a claim's multi-MB temporaries, once
    freed, are reused from the heap, not mapped and faulted in anew on every
    run."""
    selected = set(claim_ids) if claim_ids else set(CLAIM_IDS)
    unknown = selected - set(CLAIM_IDS)
    if unknown:
        raise U22Error(f"unknown claim ids: {sorted(unknown)}")
    _warm_heap()
    records = []
    for index, (cid, spec) in enumerate(_REGISTRY.items()):
        if cid not in selected:
            continue
        rng = _rng_for(config, index)
        start = time.perf_counter()
        measured, detail = spec.fn(config, rng)
        runtime = time.perf_counter() - start
        passed = measured < spec.tolerance  # the one pass rule
        records.append(
            ClaimRecord(
                cid,
                spec.anchor,
                "pass" if passed else "fail",
                float(measured),
                float(spec.tolerance),
                runtime,
                _plain(detail),
            )
        )
    return sorted(records, key=lambda r: r.claim_id)


def _plain(obj):
    """Coerce numpy scalars and containers to JSON values; a NaN or an
    infinity becomes None (``null``), as C09's ``measured`` is infinite by
    design when its projected norm is not positive."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def to_json(doc, sort_keys: bool = False) -> str:
    """The package's one JSON encoder: indented, strict JSON of ``doc``
    through ``_plain``, so it never holds a bare NaN or Infinity token."""
    return json.dumps(_plain(doc), indent=2, sort_keys=sort_keys, allow_nan=False)


def records_to_json(records, config: SuiteConfig, timestamp: str | None = None) -> str:
    doc = {
        "config": asdict(config) | {"label": str(config.label)},
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
    return to_json(doc, sort_keys=True)


def to_csv(header, rows) -> str:
    """The package's one CSV writer: the header, then the rows, joined by
    bare LFs; like ``to_json``'s text, it has no terminator after the last
    line (printing adds one)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().removesuffix("\n")


def records_to_csv(records) -> str:
    return to_csv(
        ["claim_id", "anchor", "verdict", "measured", "tolerance", "runtime_s"],
        ([r.claim_id, r.anchor, r.verdict, f"{r.measured:.12g}", f"{r.tolerance:.12g}", f"{r.runtime_s:.6f}"]
         for r in records),
    )
