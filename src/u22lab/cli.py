"""Command-line surface: run the claim battery, decompose matrices, classify
orbit points, probe measures, and emit machine-readable reports.

Exit codes: 0 all requested work passed, 1 at least one claim failed,
2 usage or input error: a ``U22Error`` (input the library rejects) or an
``OSError``, printed as one `error:` line on stderr.  Any other exception
is a bug and keeps its traceback.  Every JSON written goes through
``claims.to_json``, so it is strict, and every CSV through ``claims.to_csv``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys

import numpy as np

from .claims import SuiteConfig, records_to_csv, records_to_json, run_claims, to_csv, to_json
from .extension import unboundedness_experiment
from .groups import (
    CHAIN_TOL,
    NotInGroup,
    QElement,
    SkewHermitian2,
    TriangularS,
    U22Element,
    _s_to_json,
    element_to_json,
    iwasawa_decompose,
    random_q,
)
from .matrices import U22Error, is_json_number, matrix_from_json
from .measures import MAX_SAMPLES, MIN_SAMPLES, REPLICATES, PolarShellSampler, divergence_probe, nu_measure
from .orbits import OrbitLabel, _orbit_chart
from .representation import coboundary, gram_matrix, inverse_norm, vacuum

__all__ = ["main", "build_parser"]

PROBE_FUNCTIONS = ("vacuum", "coboundary-translation", "coboundary-character", "inverse-norm")
# gram's most basis elements: each block of the pass then holds 64 rows of
# 2^14 complex values, 16 MiB
GRAM_MAX_SIZE = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u22lab",
        description="Numerical laboratory for the triangular subgroup of U(2,2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification battery")
    verify.set_defaults(run=_cmd_verify)
    _common_flags(verify, with_format=True)
    verify.add_argument("--tol", type=float, default=None, help="override claim tolerances")
    verify.add_argument("--config", help="JSON config file; flags override its fields")
    verify.add_argument("--claims", help="comma-separated claim ids (default: all)")
    verify.add_argument("--timestamp", action="store_true", help="include a timestamp in the report")

    decompose = sub.add_parser("decompose", help="factor a 4x4 matrix as p k")
    decompose.set_defaults(run=_cmd_decompose)
    decompose.add_argument("--input", default="-", help="matrix JSON file, or - for stdin")
    decompose.add_argument("--tol", type=float, default=CHAIN_TOL, help="membership tolerance")
    decompose.add_argument("--out", help="output path (default: stdout)")

    orbit = sub.add_parser("orbit", help="classify a skew-Hermitian point")
    orbit.set_defaults(run=_cmd_orbit)
    orbit.add_argument("--input", default="-", help="point JSON file, or - for stdin")
    orbit.add_argument("--out", help="output path (default: stdout)")

    probe = sub.add_parser("measure-probe", help="classify a squared-norm integral")
    probe.set_defaults(run=_cmd_measure_probe)
    probe.add_argument("--function", choices=PROBE_FUNCTIONS, required=True)
    _common_flags(probe)

    gram = sub.add_parser("gram", help="Gram matrix of random basis coboundaries")
    gram.set_defaults(run=_cmd_gram)
    gram.add_argument("--size", type=int, default=6,
                      help=f"number of random basis elements (default %(default)s, at most {GRAM_MAX_SIZE})")
    _common_flags(gram)

    unbounded = sub.add_parser(
        "unboundedness-experiment",
        help="norm-ratio ladder for the swap operator (exploratory)",
    )
    unbounded.set_defaults(run=_cmd_unboundedness)
    _common_flags(unbounded, with_format=True)
    return parser


def _common_flags(sub: argparse.ArgumentParser, with_format: bool = False):
    # None means unset, so a config file's value or the battery's default
    # holds; only verify offers --config and --tol
    sub.set_defaults(config=None, tol=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--samples", type=int, default=None,
                     help=f"Monte-Carlo samples per integral, in {REPLICATES} replicates of shifted Halton points "
                          f"(default {SuiteConfig.mc_samples}, at least {MIN_SAMPLES}, "
                          f"at most 2^{MAX_SAMPLES.bit_length() - 1})")
    sub.add_argument("--label", default=None, help="orbit label: ++, +-, -+, -- or 1..4")
    if with_format:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="output path (default: stdout)")


def _read_json(path: str):
    try:
        if path == "-":  # bytes, so no locale's error handler lets invalid UTF-8 through
            return json.loads(sys.stdin.buffer.read().decode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # the decoder recurses once per nesting level, so deep nesting is a RecursionError
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise U22Error(f"not valid UTF-8 JSON: {exc}") from exc


def _emit(text: str, out: str | None):
    """Write ``text`` and a final newline to ``out``, or to stdout: the same
    bytes either way."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(doc, out: str | None):
    _emit(to_json(doc), out)


def _read_config(path: str) -> dict:
    """SuiteConfig fields from a JSON config file: a file that is not an
    object of known fields is a ``U22Error``.  A label string is parsed and
    a ladder of numbers becomes a tuple of floats; ``SuiteConfig`` checks
    every value."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise U22Error("config file must hold a JSON object")
    known = {knob.name for knob in dataclasses.fields(SuiteConfig)}
    for name in doc:
        if name not in known:
            raise U22Error(f"unknown config field {name!r}")
    if isinstance(doc.get("label"), str):
        doc["label"] = OrbitLabel.parse(doc["label"])
    ladder = doc.get("eps_ladder")
    if isinstance(ladder, list) and all(map(is_json_number, ladder)):
        doc["eps_ladder"] = tuple(map(float, ladder))
    return doc


def _suite_config(args) -> SuiteConfig:
    """The one ``SuiteConfig`` of a command: verify's --config file, if
    any, with the flags that are set over it and the battery's defaults
    for the rest.  The file's values are checked on their own, then again
    with the flags."""
    config = SuiteConfig(**_read_config(args.config)) if args.config else SuiteConfig()
    flags = {"seed": args.seed, "mc_samples": args.samples, "tol_override": args.tol,
             "label": None if args.label is None else OrbitLabel.parse(args.label)}
    return dataclasses.replace(config, **{name: value for name, value in flags.items() if value is not None})


def _cmd_verify(args) -> int:
    config = _suite_config(args)
    claim_ids = args.claims.split(",") if args.claims else None
    records = run_claims(config, claim_ids)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat() if args.timestamp else None
    text = records_to_json(records, config, stamp) if args.format == "json" else records_to_csv(records)
    _emit(text, args.out)
    return 0 if all(r.verdict == "pass" for r in records) else 1


def _cmd_decompose(args) -> int:
    if not 0 < args.tol < math.inf:
        raise U22Error(f"--tol must be positive and finite, got {args.tol}")
    matrix = matrix_from_json(_read_json(args.input), (4, 4))
    try:
        g = U22Element(matrix, tol=args.tol)
    except NotInGroup as exc:
        doc = {"error": "not a group member", "residuals": exc.report.named_residuals(), "tolerance": args.tol}
        _emit_json(doc, args.out)
        return 2
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
    for name in ("a", "b", "z"):
        if name not in doc:
            raise U22Error(f"point has no field {name!r}")
    z = doc["z"]
    if not isinstance(z, list) or len(z) != 2:
        raise U22Error("point 'z' must be a [re, im] pair")
    values = (doc["a"], doc["b"], *z)
    if not all(map(is_json_number, values)):
        raise U22Error("point entries must be numbers")
    a, b, re, im = map(float, values)
    return SkewHermitian2(a, b, complex(re, im))  # _orbit_chart refuses a non-finite entry


def _cmd_orbit(args) -> int:
    m = _parse_skew(_read_json(args.input))
    e1, e2, r1, r2, r = _orbit_chart(m)  # the label and the chart from one pass
    if not e1:
        _emit_json({"label": "degenerate"}, args.out)
        return 0
    label, s = OrbitLabel((int(e1), int(e2))), TriangularS(r1, r2, r)
    _emit_json({"label": str(label), "index": label.index, "coordinates": _s_to_json(s)}, args.out)
    return 0


def _probe_target(name: str, label: OrbitLabel):
    if name == "vacuum":
        return vacuum()
    if name == "inverse-norm":
        return inverse_norm()
    if name == "coboundary-translation":
        q = QElement(TriangularS(2.0, 1.0, 0.0), SkewHermitian2.zero())
        return coboundary(q, label).evaluate
    q = QElement(TriangularS.identity(), SkewHermitian2(1.0, 0.5, 0.3 + 0.2j))
    return coboundary(q, label).evaluate


def _cmd_measure_probe(args) -> int:
    config = _suite_config(args)
    target = _probe_target(args.function, config.label)
    verdict = divergence_probe(
        target, [nu_measure], config.eps_ladder, config.r_max, config.mc_samples, config.seed
    )[0][0]
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
    if args.size > GRAM_MAX_SIZE:
        raise U22Error(f"--size must be at most {GRAM_MAX_SIZE}, got {args.size}")
    config = _suite_config(args)
    rng = np.random.default_rng(config.seed)
    p_list = [random_q(rng) for _ in range(args.size)]
    gram, stderr = gram_matrix(p_list, config.label, PolarShellSampler(r_max=config.r_max), config.mc_samples, rng)
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
    config = _suite_config(args)
    rows = unboundedness_experiment(config.label, config.mc_samples, config.seed)
    if args.format == "json":
        _emit_json(rows, args.out)
        return 0
    _emit(to_csv(rows[0], (row.values() for row in rows)), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (U22Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
