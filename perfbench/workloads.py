"""The three workloads: inputs built from a seed, operations, and their checks.

A workload is a function ``(seed, index) -> list[Op]`` that builds round
number ``index``.  Every round of a workload holds the same operations
(the same claims, or the same mix of request classes), so the share of
failed operations is the same in every run; only the values drawn from
the seed change between rounds and runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from u22lab import claims, groups, matrices, orbits

import checks

MC_CLAIMS = ("C04", "C06", "C09")
# C03, C07, C08 and C12 are left out: each fails on some seeds and not on
# others (C03 flips an orbit label; C07 and C08 raise from iwasawa_decompose
# on ill-conditioned random_p elements, and C07 also exceeds its residual
# tolerance; C12 exceeds 1e-9), so no fixed failed share can hold them.
ALGEBRA_CLAIMS = ("C01", "C02", "C05", "C10", "C11")

# Library errors an operation may raise; anything else is a benchmark bug.
OP_ERRORS = (ValueError, RuntimeError, ArithmeticError)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    may_fail: bool = False  # the known failing request class


def rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


# ---------------------------------------------------------------------------
# claim battery: one single-claim `verify` request per claim, as
# `u22lab verify --claims C06`; a round runs each claim once


def _check_records(records, config, claim_ids) -> list:
    if [r.claim_id for r in records] != sorted(claim_ids):
        return [f"claims returned {[r.claim_id for r in records]}, asked for {sorted(claim_ids)}"]
    return [problem for record in records for problem in checks.check_claim(record, config)]


def battery(claim_ids, mc_samples=None):
    def make_round(seed: int, index: int) -> list[Op]:
        suite_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        fields = {"seed": suite_seed}
        if mc_samples is not None:
            fields["mc_samples"] = mc_samples
        config = claims.SuiteConfig(**fields)
        return [Op("verify", lambda cid=cid: claims.run_claims(config, [cid]),
                   lambda records, cid=cid: _check_records(records, config, [cid]))
                for cid in claim_ids]

    return make_round


# ---------------------------------------------------------------------------
# single requests through the functions behind `u22lab decompose` / `orbit`

MEMBERSHIP_TOL = 1e-9  # the CLI's default --tol


def decompose_request(text: str) -> str:
    matrix = matrices.matrix_from_json(json.loads(text), (4, 4))
    report = groups.is_in_u22(matrix, MEMBERSHIP_TOL)
    if not report.ok:
        return json.dumps({"error": "not a group member",
                           "residuals": dict(zip(("sigma_relation", "block_unit", "block_upper",
                                                  "block_lower"), report.residuals())),
                           "tolerance": MEMBERSHIP_TOL}, indent=2)
    g = groups.U22Element(matrix, tol=MEMBERSHIP_TOL)
    p, k = groups.iwasawa_decompose(g)
    residual = float(np.linalg.norm(p.matrix() @ k.m - matrix))
    return json.dumps({"p": groups.element_to_json(p), "k": groups.element_to_json(k),
                       "reconstruction_residual": residual}, indent=2)


def orbit_request(text: str) -> str:
    doc = json.loads(text)
    m = groups.SkewHermitian2(doc["a"], doc["b"], complex(doc["z"][0], doc["z"][1]))
    label = orbits.classify_orbit(m)
    if label is None:
        return json.dumps({"label": "degenerate"}, indent=2)
    try:
        s = orbits.orbit_coordinates(m)
    except orbits.DegenerateOrbit:
        return json.dumps({"label": "degenerate"}, indent=2)
    return json.dumps({"label": str(label), "index": label.index,
                       "coordinates": {"r1": s.r1, "r2": s.r2, "r": [s.r.real, s.r.imag]}}, indent=2)


def _encode_matrix(m: np.ndarray) -> str:
    return json.dumps([[[float(v.real), float(v.imag)] for v in row] for row in m])


def _haar_u2(rng) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _compact(rng) -> np.ndarray:
    """[[a, b], [b, a]] with a = (u+v)/2, b = (u-v)/2 for Haar unitaries u, v."""
    u, v = _haar_u2(rng), _haar_u2(rng)
    a, b = (u + v) / 2.0, (u - v) / 2.0
    return np.block([[a, b], [b, a]])


def _triangular(rng, cond: float, scale: float) -> np.ndarray:
    """Lower-triangular s, positive diagonal, singular values scale*sqrt(cond)^(+-1)."""
    m = _haar_u2(rng) @ np.diag([scale * math.sqrt(cond), scale / math.sqrt(cond)]) @ _haar_u2(rng)
    q, r = np.linalg.qr(m.conj().T)  # m = r* q*, and r* is lower triangular
    s = r.conj().T
    phases = np.diag(s) / np.abs(np.diag(s))
    return s * phases.conj()[None, :]  # s D* keeps the singular values


def _skew(rng) -> np.ndarray:
    a, b, zr, zi = rng.uniform(-1.0, 1.0, 4)
    return np.array([[1j * a, zr + 1j * zi], [-(zr - 1j * zi), 1j * b]])


def _decompose_op(name, s, n, k, may_fail=False) -> Op:
    x = n @ np.linalg.inv(s).conj().T  # X = n s*^-1 keeps s X* + X s* = 0
    g = checks.p_block(s, x) @ k
    expected = {"g": g, "p_s": s, "p_x": x, "k": k}
    text = _encode_matrix(g)
    return Op(name, lambda: decompose_request(text),
              lambda reply: checks.check_decompose(reply, expected), may_fail)


def _non_member_op(rng) -> Op:
    s = _triangular(rng, 10 ** rng.uniform(0.0, 1.0), 1.0)
    x = _skew(rng) @ np.linalg.inv(s).conj().T
    g = checks.p_block(s, x) @ _compact(rng)
    e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = g + 10 ** rng.uniform(-6.0, -1.0) * np.linalg.norm(g) * e / np.linalg.norm(e)
    expected = {"g": g, "p_s": None}
    text = _encode_matrix(g)
    return Op("non-member", lambda: decompose_request(text),
              lambda reply: checks.check_decompose(reply, expected))


LABELS = (("++", 1, (1, 1)), ("+-", 2, (1, -1)), ("-+", 3, (-1, 1)), ("--", 4, (-1, -1)))


def _orbit_op(rng, label) -> Op:
    name, index, (e1, e2) = label
    s = np.array([[math.exp(rng.uniform(-2, 2)), 0.0],
                  [complex(*rng.standard_normal(2)), math.exp(rng.uniform(-2, 2))]])
    m = s @ np.diag([1j * e1, 1j * e2]) @ s.conj().T  # s m_k s*
    text = json.dumps({"a": m[0, 0].imag, "b": m[1, 1].imag, "z": [m[0, 1].real, m[0, 1].imag]})
    expected = {"label": name, "index": index, "s": s}
    return Op("orbit", lambda: orbit_request(text), lambda reply: checks.check_orbit(reply, expected))


def _degenerate_ops(rng) -> list[Op]:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    t = math.exp(rng.uniform(-1, 1))
    points = [
        {"a": 0.0, "b": 0.0, "z": [0.0, 0.0]},  # the origin
        {"a": 0.0, "b": t, "z": list(rng.standard_normal(2))},  # H11 = 0
    ]
    for sign in (1.0, -1.0):  # rank one: H = +-t v v*, det H = 0
        z = sign * 1j * t * v[0] * np.conj(v[1])
        points.append({"a": sign * t * abs(v[0]) ** 2, "b": sign * t * abs(v[1]) ** 2,
                       "z": [z.real, z.imag]})
    expected = {"label": None}
    return [Op("degenerate", lambda text=json.dumps(p): orbit_request(text),
               lambda reply: checks.check_orbit(reply, expected)) for p in points]


# The failing class: valid elements p(s) k with s = [[c, 0], [0.5, 1/c]],
# built without the seed.  iwasawa_decompose factors g g*, which squares
# cond(s) ~ c^2, and its positive-definiteness gate rejects every one.
ILL_CONDITIONED_C = (300.0, 450.0, 700.0, 1000.0)


def _ill_conditioned_ops() -> list[Op]:
    k = _compact(np.random.default_rng(0))
    return [_decompose_op("ill-conditioned", np.array([[c, 0.0], [0.5, 1.0 / c]]),
                          np.zeros((2, 2)), k, may_fail=True) for c in ILL_CONDITIONED_C]


DECOMPOSE_PER_ROUND = 64
NON_MEMBERS_PER_ROUND = 8
ORBITS_PER_LABEL = 5
MAX_LOG10_COND = 2.5  # well-conditioned class: cond(s) log-uniform in [1, 10^2.5]


def requests(seed: int, index: int) -> list[Op]:
    """100 requests: 64 decompositions, 8 non-members, 20 orbit points,
    4 degenerate points and the 4 ill-conditioned decompositions."""
    rng = rng_for(seed, index)
    ops = [
        _decompose_op("decompose",
                      _triangular(rng, 10 ** rng.uniform(0.0, MAX_LOG10_COND), math.exp(rng.uniform(-0.5, 0.5))),
                      _skew(rng), _compact(rng))
        for _ in range(DECOMPOSE_PER_ROUND)
    ]
    ops += [_non_member_op(rng) for _ in range(NON_MEMBERS_PER_ROUND)]
    ops += [_orbit_op(rng, label) for label in LABELS for _ in range(ORBITS_PER_LABEL)]
    ops += _degenerate_ops(rng)
    ops += _ill_conditioned_ops()
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "battery-mc": battery(MC_CLAIMS),
    "battery-algebra": battery(ALGEBRA_CLAIMS),
    "requests": requests,
}
