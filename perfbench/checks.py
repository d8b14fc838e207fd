"""Output checks for every benchmark operation.

Each check compares an output with a closed form, with an input the
benchmark built itself, or with a property the method must have; none
compares with a stored copy of an earlier output.  A check returns a list
of human-readable problems, empty when the output is correct.

Monte-Carlo checks scale their relative tolerances with sqrt(10^6 / n),
so a reduced-size run is held to the same number of standard errors.
The margins below come from 30 seeds at 10^6 samples: the C06 slope error
had sd 0.1 %, the Haar integrals 0.2-0.4 %, the C04 box deviation 0.96
sigma, and the C09 projected-minus-eigenvalue gap 1.7 projected
standard errors.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import numpy as np

SLOPE_REL_TOL = 0.01  # C06 vacuum slope vs closed form, at 10^6 samples
HAAR_REL_TOL = 0.03  # C04 Haar integrals vs pi^2 e, at 10^6 samples
BOX_SIGMAS = 5.0  # C04 box mass vs 1.4^3 * 0.7, in reported sigmas
GRAM_STDERRS = 10.0  # C09 projected value vs smallest eigenvalue
FACTOR_TOL = 1e-9  # decompose: reconstruction, unitarity, block shape
RECOVERY_TOL = 1e-8  # decompose: recovered factors, well conditioned
CHART_TOL = 1e-9  # orbit: recovered chart point


def _close(name, value, expected, tol, problems):
    if not abs(value - expected) <= tol:
        problems.append(f"{name} = {value!r}, expected {expected!r} within {tol:.3g}")


def _require(name, ok, problems):
    if not ok:
        problems.append(name)


def _guarded(check):
    """A missing field or a malformed reply is a problem, not a crash."""

    @functools.wraps(check)
    def guarded(*args):
        try:
            return check(*args)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]

    return guarded


def _reject_constant(token):
    raise ValueError(f"invalid JSON token {token}")


def _parse(reply: str):
    """Strict JSON: NaN and Infinity are not JSON."""
    return json.loads(reply, parse_constant=_reject_constant)


def _mc_scale(config) -> float:
    return math.sqrt(1e6 / config.mc_samples)


# ---------------------------------------------------------------------------
# claim battery


def vacuum_slope(eps_ladder, r_max) -> float:
    """Least-squares slope of (pi^2/2)(E1(eps) - E1(r_max)) against log(1/eps).

    The vacuum's squared norm above radius eps, in polar coordinates for
    |s|^-4 ds, is (pi^2/2) * integral_eps^r_max e^-r dr / r.
    """
    eps = np.array(sorted(float(e) for e in eps_ladder))
    x = np.log(1.0 / eps)
    tail = float(mpmath.e1(r_max))
    y = np.array([math.pi**2 / 2.0 * (float(mpmath.e1(e)) - tail) for e in eps])
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc**2))


def rank1_character_value(b: float) -> float:
    """2 (gamma + ln b - Ci(b)), the character difference of the indicator."""
    return float(2 * (mpmath.euler + mpmath.log(b) - mpmath.ci(b)))


def _check_c04(record, config, problems):
    d = record.detail
    for part in ("pi_multiplicativity", "jacobian_fd", "nu_derivative_band"):
        _require(f"C04 {part} residual above its tolerance",
                 d[part]["residual"] <= d[part]["tolerance"], problems)
    box = d["box_translation"]
    expected_mass = 1.4**3 * 0.7  # pi(s0) times the unit box volume
    _close("C04 box expected", box["expected"], expected_mass, 1e-12, problems)
    _close("C04 box mass", box["mass"], expected_mass, BOX_SIGMAS * box["sigma"], problems)
    haar = d["haar_invariance"]
    target = math.pi**2 * math.e
    tol = HAAR_REL_TOL * _mc_scale(config) * target
    _close("C04 Haar base", haar["base"], target, tol, problems)
    _close("C04 Haar moved", haar["moved"], target, tol, problems)


def _check_c06(record, config, problems):
    d = record.detail
    _require("C06 verdict is not pass", record.verdict == "pass", problems)
    _require("C06 vacuum not log-divergent", d["vacuum_classification"] == "log-divergent", problems)
    classes = [c["classification"] for c in d["coboundaries"]]
    _require("C06 a coboundary is not convergent",
             len(classes) == 8 and set(classes) == {"convergent"}, problems)
    _require("C06 control measure does not find the vacuum square-integrable",
             d["control_verdict"] == "not special (vacuum square-integrable)", problems)
    exact = vacuum_slope(config.eps_ladder, config.r_max)
    _close("C06 vacuum slope", d["vacuum_slope"], exact,
           SLOPE_REL_TOL * _mc_scale(config) * exact, problems)


def _check_c09(record, config, problems):
    d = record.detail
    _require("C09 Gram matrix not Hermitian", d["hermiticity_residual"] <= 1e-12, problems)
    _require("C09 smallest eigenvalue not positive", d["smallest_eigenvalue"] > 0.0, problems)
    _close("C09 projected value", d["projected_value"], d["smallest_eigenvalue"],
           GRAM_STDERRS * d["projected_stderr"], problems)


def _check_c03(record, config, problems):
    _require("C03 labels flipped under the action", record.detail["label_flips"] == 0, problems)


def _check_c10(record, config, problems):
    d = record.detail
    _require("C10 should report the known deficiency as fail", record.verdict == "fail", problems)
    _close("C10 deficiency", record.measured, 2.0, 0.0, problems)
    _close("C10 span rank", d["union_span_rank"], 14, 0, problems)
    _close("C10 closure dimension", d["bracket_closure_dimension"], 15, 0, problems)
    _close("C10 ambient dimension", d["ambient_dimension"], 16, 0, problems)


def _check_c11(record, config, problems):
    d = record.detail
    expected = rank1_character_value(2.0)  # b = 2 in the claim
    _close("C11 character value", d["char_value"], expected, 1e-6 * expected, problems)
    _close("C11 shift value", d["shift_value"], 0.75, 1e-6 * 0.75, problems)  # a = 0.75
    _require("C11 witness conditions do not all hold", d["witness_all_hold"] is True, problems)
    _require("C11 Gaussian bump passes condition (ii)",
             d["gaussian_condition_ii_holds"] is False, problems)


def _check_c12(record, config, problems):
    d = record.detail
    _require("C12 triple commutator does not vanish", d["max_triple_distance"] < 1e-9, problems)
    _require("C12 double commutator vanishes", d["max_double_distance"] > 1e-2, problems)


_CLAIM_CHECKS = {
    "C03": _check_c03,
    "C04": _check_c04,
    "C06": _check_c06,
    "C09": _check_c09,
    "C10": _check_c10,
    "C11": _check_c11,
    "C12": _check_c12,
}

# C04's box and Haar parts are 3-sigma gates with a designed false-alarm
# rate of ~0.5 % per seed; they are checked above at wider margins instead
# of through the claim's verdict.  C10's verdict is fail by design.
_VERDICT_EXEMPT = {"C04", "C10"}


@_guarded
def check_claim(record, config) -> list[str]:
    problems = []
    if record.claim_id not in _VERDICT_EXEMPT:
        _require(f"{record.claim_id} verdict {record.verdict}: measured "
                 f"{record.measured:.3e} vs tolerance {record.tolerance:.3e}",
                 record.verdict == "pass" and record.measured <= record.tolerance, problems)
    check = _CLAIM_CHECKS.get(record.claim_id)
    if check is not None:
        check(record, config, problems)
    return problems


# ---------------------------------------------------------------------------
# single requests


def decode_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def p_block(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 4x4 matrix [[s*^-1, 0], [X, s]] of a triangular element."""
    return np.block([[np.linalg.inv(s).conj().T, np.zeros((2, 2))], [x, s]])


@_guarded
def check_decompose(reply: str, expected: dict) -> list[str]:
    """``expected`` holds the input ``g`` and, for members, its factors."""
    problems = []
    doc = _parse(reply)
    g = expected["g"]
    if expected["p_s"] is None:
        _require("non-member was not rejected", doc.get("error") == "not a group member", problems)
        return problems
    if "error" in doc:
        return [f"member was rejected: {doc}"]
    sd = doc["p"]["data"]["s"]
    s = np.array([[sd["r1"], 0.0], [complex(*sd["r"]), sd["r2"]]])
    x = decode_matrix(doc["p"]["data"]["x"])
    k = decode_matrix(doc["k"]["data"]["m"])
    scale = max(1.0, np.linalg.norm(g))
    _close("p k - g", np.linalg.norm(p_block(s, x) @ k - g) / scale, 0.0, FACTOR_TOL, problems)
    _close("k k* - e", np.linalg.norm(k @ k.conj().T - np.eye(4)), 0.0, FACTOR_TOL, problems)
    _close("k block shape", np.linalg.norm(k[:2, :2] - k[2:, 2:]) + np.linalg.norm(k[:2, 2:] - k[2:, :2]),
           0.0, FACTOR_TOL, problems)
    # uniqueness: the factors the input was built from come back, up to
    # rounding amplified by the squared conditioning of the triangular part
    tol = max(RECOVERY_TOL, 1e-16 * np.linalg.cond(p_block(expected["p_s"], expected["p_x"])) ** 2)
    s0, x0, k0 = expected["p_s"], expected["p_x"], expected["k"]
    _close("recovered s", np.linalg.norm(s - s0) / np.linalg.norm(s0), 0.0, tol, problems)
    _close("recovered X", np.linalg.norm(x - x0) / max(1.0, np.linalg.norm(x0)), 0.0, tol, problems)
    _close("recovered k", np.linalg.norm(k - k0), 0.0, tol, problems)
    return problems


@_guarded
def check_orbit(reply: str, expected: dict) -> list[str]:
    """``expected`` holds the label string and chart point, or label None."""
    problems = []
    doc = _parse(reply)
    if expected["label"] is None:
        _require(f"degenerate point classified as {doc.get('label')!r}",
                 doc == {"label": "degenerate"}, problems)
        return problems
    if doc.get("label") != expected["label"] or doc.get("index") != expected["index"]:
        return [f"label {doc.get('label')!r}/{doc.get('index')!r}, "
                f"expected {expected['label']!r}/{expected['index']}"]
    c = doc["coordinates"]
    s = np.array([[c["r1"], 0.0], [complex(*c["r"]), c["r2"]]])
    s0 = expected["s"]
    _close("recovered chart point", np.linalg.norm(s - s0) / np.linalg.norm(s0), 0.0, CHART_TOL, problems)
    return problems
