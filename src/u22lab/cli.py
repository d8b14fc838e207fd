"""Command-line surface: run the claim battery, decompose matrices, classify
orbit points, probe measures, and emit machine-readable reports.

Exit codes: 0 all requested work passed, 1 at least one claim failed,
2 usage or input error, including input the library rejects (one `error:`
line on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from .claims import SuiteConfig, records_to_csv, records_to_json, run_claims
from .extension import unboundedness_experiment
from .groups import (
    DecompositionFailed,
    QElement,
    SkewHermitian2,
    TriangularS,
    U22Element,
    element_to_json,
    is_in_u22,
    iwasawa_decompose,
    random_q,
)
from .matrices import matrix_from_json
from .measures import NonFinite, PolarShellSampler, divergence_probe, nu_measure
from .orbits import OrbitLabel, classify_orbit, orbit_coordinates
from .rank1 import QuadratureFailed
from .representation import coboundary, gram_matrix, inverse_norm, vacuum

__all__ = ["main", "build_parser"]

PROBE_FUNCTIONS = ("vacuum", "coboundary-translation", "coboundary-character", "inverse-norm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u22lab",
        description="Numerical laboratory for the triangular subgroup of U(2,2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification battery")
    _common_flags(verify, with_format=True)
    verify.add_argument("--tol", type=float, default=None, help="override claim tolerances")
    verify.add_argument("--config", help="JSON config file; flags override its fields")
    verify.add_argument("--claims", help="comma-separated claim ids (default: all)")
    verify.add_argument("--timestamp", action="store_true", help="include a timestamp in the report")

    decompose = sub.add_parser("decompose", help="factor a 4x4 matrix as p k")
    decompose.add_argument("--input", default="-", help="matrix JSON file, or - for stdin")
    decompose.add_argument("--tol", type=float, default=1e-9, help="membership tolerance")
    decompose.add_argument("--out", help="output path (default: stdout)")

    orbit = sub.add_parser("orbit", help="classify a skew-Hermitian point")
    orbit.add_argument("--input", default="-", help="point JSON file, or - for stdin")
    orbit.add_argument("--out", help="output path (default: stdout)")

    probe = sub.add_parser("measure-probe", help="classify a squared-norm integral")
    probe.add_argument("--function", choices=PROBE_FUNCTIONS, required=True)
    _common_flags(probe)

    gram = sub.add_parser("gram", help="Gram matrix of random basis coboundaries")
    gram.add_argument("--size", type=int, default=6)
    _common_flags(gram)

    unbounded = sub.add_parser(
        "unboundedness-experiment",
        help="norm-ratio ladder for the swap operator (exploratory)",
    )
    _common_flags(unbounded, with_format=True)
    return parser


# the battery's defaults are the CLI's defaults
_DEFAULTS = SuiteConfig()


def _common_flags(sub: argparse.ArgumentParser, with_format: bool = False):
    # sentinel defaults so a config file's values survive unset flags
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--samples", type=int, default=None, help="Monte-Carlo samples per integral")
    sub.add_argument("--label", default=None, help="orbit label: ++, +-, -+, -- or 1..4")
    if with_format:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="output path (default: stdout)")


def _or_default(value, fallback):
    return fallback if value is None else value


def _parse_label(text: str) -> OrbitLabel:
    if text.isdigit():
        return OrbitLabel.from_index(int(text))
    return OrbitLabel.from_string(text)


def _read_json(path: str):
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.load(fh)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _emit_json(doc, out: str | None):
    # strict JSON: a NaN or infinity raises ValueError (exit 2), never a bare token
    _emit(json.dumps(doc, indent=2, allow_nan=False), out)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the JSON value each SuiteConfig field takes in a --config file
_CONFIG_CHECKS = {
    "seed": _is_integer,
    "mc_samples": _is_integer,
    "sample_points": _is_integer,
    "eps_ladder": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "r_max": _is_number,
    "label": lambda v: isinstance(v, str),
    "tol_override": lambda v: v is None or _is_number(v),
}


def _read_config(path: str) -> dict:
    """SuiteConfig fields from a JSON config file; a file that is not an
    object of known fields with values of the right JSON type is a
    ValueError (exit 2)."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    for name, value in doc.items():
        if name not in _CONFIG_CHECKS:
            raise ValueError(f"unknown config field {name!r}")
        if not _CONFIG_CHECKS[name](value):
            raise ValueError(f"config field {name!r} has a bad value: {value!r}")
    if "label" in doc:
        doc["label"] = _parse_label(doc["label"])
    if "eps_ladder" in doc:
        doc["eps_ladder"] = tuple(float(e) for e in doc["eps_ladder"])
    return doc


def _cmd_verify(args) -> int:
    fields = _read_config(args.config) if args.config else {}
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.samples is not None:
        fields["mc_samples"] = args.samples
    if args.tol is not None:
        fields["tol_override"] = args.tol
    if args.label is not None:
        fields["label"] = _parse_label(args.label)
    config = SuiteConfig(**fields)
    claim_ids = args.claims.split(",") if args.claims else None
    records = run_claims(config, claim_ids)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat() if args.timestamp else None
    text = records_to_json(records, config, stamp) if args.format == "json" else records_to_csv(records)
    _emit(text, args.out)
    return 0 if all(r.verdict == "pass" for r in records) else 1


def _cmd_decompose(args) -> int:
    matrix = matrix_from_json(_read_json(args.input), (4, 4))
    report = is_in_u22(matrix, args.tol)
    if not report.ok:
        _emit_json(
            {
                "error": "not a group member",
                "residuals": {
                    "sigma_relation": report.sigma_relation,
                    "block_unit": report.block_unit,
                    "block_upper": report.block_upper,
                    "block_lower": report.block_lower,
                },
                "tolerance": args.tol,
            },
            args.out,
        )
        return 2
    g = U22Element(matrix, tol=args.tol)
    p, k = iwasawa_decompose(g)
    residual = float(np.linalg.norm(p.matrix() @ k.m - matrix))
    _emit_json(
        {
            "p": element_to_json(p),
            "k": element_to_json(k),
            "reconstruction_residual": residual,
        },
        args.out,
    )
    return 0


def _parse_skew(doc) -> SkewHermitian2:
    if not isinstance(doc, dict):
        return SkewHermitian2.from_matrix(matrix_from_json(doc, (2, 2)))
    z = doc.get("z")
    if not isinstance(z, list) or len(z) != 2:
        raise ValueError("point 'z' must be a [re, im] pair")
    try:
        a, b, re, im = (float(v) for v in (doc["a"], doc["b"], *z))
    except TypeError as exc:
        raise ValueError("point entries must be numbers") from exc
    if not all(math.isfinite(v) for v in (a, b, re, im)):
        raise ValueError("point has a non-finite entry")
    return SkewHermitian2(a, b, complex(re, im))


def _cmd_orbit(args) -> int:
    m = _parse_skew(_read_json(args.input))
    label = classify_orbit(m)
    if label is None:
        _emit_json({"label": "degenerate"}, args.out)
        return 0
    s = orbit_coordinates(m)
    _emit_json(
        {
            "label": str(label),
            "index": label.index,
            "coordinates": {"r1": s.r1, "r2": s.r2, "r": [s.r.real, s.r.imag]},
        },
        args.out,
    )
    return 0


def _probe_target(name: str, label: OrbitLabel):
    if name == "vacuum":
        return vacuum()
    if name == "inverse-norm":
        return inverse_norm()
    if name == "coboundary-translation":
        q = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        return coboundary(q, label).as_group_function()
    q = QElement(TriangularS.identity(), SkewHermitian2(1.0, 0.5, 0.3 + 0.2j))
    return coboundary(q, label).as_group_function()


def _cmd_measure_probe(args) -> int:
    label = _parse_label(_or_default(args.label, "++"))
    target = _probe_target(args.function, label)
    verdict = divergence_probe(
        target,
        nu_measure(),
        _DEFAULTS.eps_ladder,
        _DEFAULTS.r_max,
        _or_default(args.samples, _DEFAULTS.mc_samples),
        _or_default(args.seed, _DEFAULTS.seed),
    )
    doc = {
        "function": args.function,
        "classification": verdict.classification,
        "slope": verdict.slope,
        "slope_stderr": verdict.slope_stderr,
        "r_squared": verdict.r_squared,
        "estimates": [{"eps": e, "value": v, "stderr": se}
                      for e, (v, se) in zip(verdict.eps_ladder, verdict.estimates)],
    }
    if verdict.reason:
        doc["reason"] = verdict.reason
    _emit_json(doc, args.out)
    return 0


def _cmd_gram(args) -> int:
    label = _parse_label(_or_default(args.label, "++"))
    rng = np.random.default_rng(_or_default(args.seed, _DEFAULTS.seed))
    p_list = [random_q(rng) for _ in range(args.size)]
    sampler = PolarShellSampler()
    gram, stderr = gram_matrix(
        p_list, label, nu_measure(), sampler, _or_default(args.samples, _DEFAULTS.mc_samples), rng
    )
    eigmin = float(np.linalg.eigvalsh(gram)[0])
    err = float(np.linalg.norm(stderr))
    doc = {
        "size": args.size,
        "smallest_eigenvalue": eigmin,
        "propagated_error": err,
        "gram_real": np.real(gram).tolist(),
        "gram_imag": np.imag(gram).tolist(),
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_unboundedness(args) -> int:
    label = _parse_label(_or_default(args.label, "++"))
    sampler = PolarShellSampler(r_max=120.0)
    rows = unboundedness_experiment(
        (2.0, 4.0, 8.0, 16.0, 32.0),
        label,
        nu_measure(),
        sampler,
        _or_default(args.samples, _DEFAULTS.mc_samples),
        _or_default(args.seed, _DEFAULTS.seed),
    )
    if args.format == "json":
        _emit_json(rows, args.out)
        return 0
    lines = [",".join(rows[0])] + [",".join(str(v) for v in row.values()) for row in rows]
    _emit("\n".join(lines), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "orbit":
            return _cmd_orbit(args)
        if args.command == "measure-probe":
            return _cmd_measure_probe(args)
        if args.command == "gram":
            return _cmd_gram(args)
        if args.command == "unboundedness-experiment":
            return _cmd_unboundedness(args)
        parser.error(f"unknown command {args.command!r}")
    # library errors are ValueErrors (NotInGroup, NotFactorizable,
    # InvariantViolation, ...), DecompositionFailed, QuadratureFailed or NonFinite
    except (ValueError, DecompositionFailed, QuadratureFailed, NonFinite, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
