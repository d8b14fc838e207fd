import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import u22lab
from u22lab import claims, cli, groups, measures, orbits
from u22lab.cli import main
from u22lab.groups import InvariantViolation, random_k
from u22lab.measures import NonFinite
from u22lab.representation import GroupFunction, gram_matrix, specialness_report
from u22lab.matrices import SIGMA, adjoint, assemble, matrix_to_json


def run_cli(args):
    return main(list(args))


def read_json(path):
    return json.loads(path.read_text())


class TestDecompose:
    def test_sigma(self, tmp_path):
        src = tmp_path / "sigma.json"
        out = tmp_path / "out.json"
        src.write_text(json.dumps(matrix_to_json(SIGMA)))
        assert run_cli(["decompose", "--input", str(src), "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["p"]["kind"] == "p"
        assert doc["p"]["data"]["s"] == {"r1": 1.0, "r2": 1.0, "r": [0.0, 0.0]}
        k = np.array(doc["k"]["data"]["m"])[:, :, 0]
        np.testing.assert_allclose(k, np.real(SIGMA), atol=1e-12)
        assert doc["reconstruction_residual"] < 1e-12

    def test_identity(self, tmp_path):
        src = tmp_path / "e.json"
        out = tmp_path / "out.json"
        src.write_text(json.dumps(matrix_to_json(np.eye(4))))
        assert run_cli(["decompose", "--input", str(src), "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["p"]["data"]["s"]["r1"] == 1.0
        assert doc["reconstruction_residual"] == 0.0

    def test_non_member(self, tmp_path):
        src = tmp_path / "bad.json"
        out = tmp_path / "out.json"
        src.write_text(json.dumps(matrix_to_json(np.diag([2.0, 1.0, 1.0, 1.0]))))
        assert run_cli(["decompose", "--input", str(src), "--out", str(out)]) == 2
        doc = read_json(out)
        assert doc["error"] == "not a group member"
        assert set(doc["residuals"]) == {"sigma_relation", "block_unit", "block_upper", "block_lower"}

    def test_unreadable_input(self, tmp_path):
        assert run_cli(["decompose", "--input", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "m", [np.full((4, 4), np.nan), np.diag([np.inf, 1.0, 1.0, 1.0])], ids=["all-nan", "infinity"]
    )
    def test_non_finite_input_is_rejected_with_strict_json(self, tmp_path, capsys, m):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(matrix_to_json(m)))  # bare NaN / Infinity tokens
        assert run_cli(["decompose", "--input", str(src)]) == 2
        stdout = capsys.readouterr().out
        if stdout.strip():
            json.loads(stdout, parse_constant=lambda token: pytest.fail(f"bare {token} on stdout"))


    @staticmethod
    def _ill_conditioned(tmp_path, c):
        """A valid element p(s) k with s = [[c, 0], [0.5, 1/c]], cond(s) ~ c^2."""
        s = np.array([[c, 0.0], [0.5, 1.0 / c]])
        g = assemble(adjoint(np.linalg.inv(s)), np.zeros((2, 2)), np.zeros((2, 2)), s) @ random_k(0).m
        src = tmp_path / "ill.json"
        src.write_text(json.dumps(matrix_to_json(g)))
        return g, src

    def test_ill_conditioned_member_decomposes(self, tmp_path):
        # c = 1000 was rejected while the factorization went through g g*
        g, src = self._ill_conditioned(tmp_path, 1000.0)
        out = tmp_path / "out.json"
        assert run_cli(["decompose", "--input", str(src), "--out", str(out)]) == 0
        assert read_json(out)["reconstruction_residual"] <= 1e-9 * np.linalg.norm(g)

    def test_extreme_scale_member_decomposes(self, tmp_path):
        # p with s = 1e200 e: every row norm of the factorization would
        # underflow or overflow without the power-of-two row scaling
        src = tmp_path / "extreme.json"
        src.write_text(json.dumps(matrix_to_json(np.diag([1e-200, 1e-200, 1e200, 1e200]))))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "u22lab.cli", "decompose", "--input", str(src)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        assert doc["p"]["data"]["s"] == {"r1": 1e200, "r2": 1e200, "r": [0.0, 0.0]}
        assert doc["reconstruction_residual"] == 0.0

    def test_extreme_scale_non_member_is_not_a_member(self, tmp_path):
        # g11 g22* = diag(1, 2) != e at scale 1e200: the not-a-member reply,
        # not a factorization error
        src = tmp_path / "extreme.json"
        src.write_text(json.dumps(matrix_to_json(np.diag([1e-200, 1e-200, 1e200, 2e200]))))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "u22lab.cli", "decompose", "--input", str(src)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        doc = json.loads(proc.stdout)
        assert doc["error"] == "not a group member"
        assert doc["residuals"]["block_unit"] >= 0.125

    def test_a_member_near_the_float_limit_has_a_finite_residual(self, tmp_path):
        # p k - g has entries near 1.5e284, whose squares overflow: the
        # residual is taken with frob's scaling, not np.linalg.norm's squares
        src = tmp_path / "extreme.json"
        src.write_text(json.dumps(matrix_to_json(np.diag([1e300, 1e300, 1e-300, 1e-300]))))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "u22lab.cli", "decompose", "--input", str(src)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        residual = json.loads(proc.stdout)["reconstruction_residual"]
        assert 0.0 <= residual <= 1e-15 * math.hypot(1e300, 1e300)

    def test_ill_conditioned_member_is_an_input_error(self, tmp_path, capsys):
        # c = 1e7 (cond(s) ~ 1e14) is far outside the tested range: the
        # factorization rejects it (DecompositionFailed), which is exit 2
        _, src = self._ill_conditioned(tmp_path, 1e7)
        assert run_cli(["decompose", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestOrbit:
    def test_representative(self, tmp_path):
        src = tmp_path / "m.json"
        out = tmp_path / "out.json"
        src.write_text(json.dumps({"a": 1.0, "b": 1.0, "z": [0.0, 0.0]}))
        assert run_cli(["orbit", "--input", str(src), "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["label"] == "++"
        assert doc["coordinates"] == {"r1": 1.0, "r2": 1.0, "r": [0.0, 0.0]}

    def test_diagonal_matrix_form(self, tmp_path):
        src = tmp_path / "m.json"
        out = tmp_path / "out.json"
        m = [[[0.0, 4.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]  # i diag(4, 1)
        src.write_text(json.dumps(m))
        assert run_cli(["orbit", "--input", str(src), "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["label"] == "++"
        assert doc["coordinates"]["r1"] == 2.0 and doc["coordinates"]["r2"] == 1.0

    def test_degenerate(self, tmp_path):
        src = tmp_path / "m.json"
        out = tmp_path / "out.json"
        src.write_text(json.dumps({"a": 1.0, "b": 1.0, "z": [1.0, 0.0]}))  # det = 0
        assert run_cli(["orbit", "--input", str(src), "--out", str(out)]) == 0
        assert read_json(out)["label"] == "degenerate"

    @pytest.mark.parametrize(
        "point, label, diagonal",
        [
            ({"a": 1e200, "b": 1e200, "z": [0, 0]}, "++", 1e100),
            ({"a": 1e-200, "b": -1e-200, "z": [0, 0]}, "+-", 1e-100),
            # the matrix form is checked for skew-Hermiticity through frob
            ([[[0, 1e200], [0, 0]], [[0, 0], [0, 1e200]]], "++", 1e100),
        ],
        ids=["huge", "tiny", "huge-matrix"],
    )
    def test_extreme_scale(self, tmp_path, capsys, point, label, diagonal):
        src = tmp_path / "m.json"
        out = tmp_path / "out.json"
        src.write_text(json.dumps(point))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["orbit", "--input", str(src), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        doc = read_json(out)
        assert doc["label"] == label
        assert doc["coordinates"] == {"r1": diagonal, "r2": diagonal, "r": [0.0, 0.0]}

    @pytest.mark.parametrize(
        "point, code, stdout_label",
        [
            # i diag(1e308, -1e308) with z = 1e308: m01 - conj(m10) would overflow
            ([[[0, 1e308], [1e308, 0]], [[-1e308, 0], [0, -1e308]]], 0, "+-"),
            # m + m* would overflow on the diagonal; the halves refuse the point
            ([[[0, 0], [0, 0]], [[0, 0], [1e308, 0]]], 2, None),
        ],
        ids=["skew-point", "not-skew"],
    )
    def test_a_matrix_near_the_float_limit_warns_nothing(self, tmp_path, point, code, stdout_label):
        src = tmp_path / "m.json"
        src.write_text(json.dumps(point))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "u22lab.cli", "orbit", "--input", str(src)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, proc.stderr
        if stdout_label is None:
            assert proc.stdout == "" and proc.stderr == "error: matrix is not skew-Hermitian at tolerance\n"
        else:
            assert proc.stderr == "" and json.loads(proc.stdout)["label"] == stdout_label

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": 1, "b": 2, "z": [0]}',
            '{"a": 1, "b": 2}',
            '{"a": 1, "b": 2, "z": "00"}',
            '{"a": NaN, "b": 1.0, "z": [0, 0]}',
            '{"a": 1.0, "b": 1.0, "z": [Infinity, 0]}',
        ],
        ids=["short-z", "missing-z", "z-not-a-list", "nan", "infinity"],
    )
    def test_malformed_point_is_an_input_error(self, tmp_path, capsys, text):
        src = tmp_path / "m.json"
        src.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numerical warning may leak
            assert run_cli(["orbit", "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: point") and captured.out == ""


class TestMeasureProbe:
    def test_vacuum_probe(self, tmp_path):
        out = tmp_path / "probe.json"
        code = run_cli(
            ["measure-probe", "--function", "vacuum", "--samples", "50000", "--out", str(out)]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["classification"] == "log-divergent"
        assert len(doc["estimates"]) >= 5

    def test_coboundary_probe(self, tmp_path):
        out = tmp_path / "probe.json"
        code = run_cli(
            [
                "measure-probe",
                "--function",
                "coboundary-translation",
                "--samples",
                "50000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_json(out)["classification"] == "convergent"


class TestVerify:
    FAST_CLAIMS = "C01,C02,C11,C12"

    def test_passing_subset(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["verify", "--samples", "20000", "--claims", self.FAST_CLAIMS, "--out", str(out)]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["summary"]["failed"] == 0
        assert [c["claim_id"] for c in doc["claims"]] == sorted(self.FAST_CLAIMS.split(","))
        for claim in doc["claims"]:
            assert {"claim_id", "anchor", "verdict", "measured", "tolerance", "runtime_s"} <= set(claim)

    def test_reports_are_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--samples", "20000", "--claims", "C01,C02", "--seed", "7"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0

        def stable(path):
            doc = read_json(path)
            for claim in doc["claims"]:
                claim["runtime_s"] = 0.0
            return json.dumps(doc, sort_keys=True)

        assert stable(out1) == stable(out2)

    def test_a_failed_condition_fails_at_the_registry_tolerance(self, monkeypatch):
        # a claim's own condition fails as a measured 1.0 (C11's witness, C12's
        # double commutator), at or above every tolerance the registry pins,
        # and the record reports the registry's tolerance
        failing = claims._ClaimSpec("fails on its own terms", 1e-9, lambda config, rng: (1.0, {}))
        monkeypatch.setitem(claims._REGISTRY, "C01", failing)
        (record,) = claims.run_claims(claims.SuiteConfig(), ["C01"])
        assert record.verdict == "fail" and record.tolerance == 1e-9 and record.measured == 1.0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            [
                "verify",
                "--samples",
                "20000",
                "--claims",
                "C01",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("claim_id,anchor,verdict")
        assert lines[1].startswith("C01,")

    def test_csv_on_stdout_ends_every_line_in_one_line_feed(self, capsys):
        # the csv module's default CRLF and print's LF made "\r\n\n": mixed
        # line ends and an empty last row
        assert run_cli(["verify", "--samples", "20000", "--claims", "C01,C10", "--format", "csv"]) == 1
        out = capsys.readouterr().out
        assert "\r" not in out
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert [line.split(",")[0] for line in out.splitlines()] == ["claim_id", "C01", "C10"]

    def test_a_report_reruns_from_its_own_config(self, tmp_path):
        # the report's config block, fed back through --config, gives the
        # same report apart from the runtimes
        first, cfg, second = tmp_path / "first.json", tmp_path / "config.json", tmp_path / "second.json"
        claim_ids = ["--claims", "C10,C12"]
        assert run_cli(["verify", "--seed", "7", "--samples", "5000", *claim_ids, "--out", str(first)]) == 1
        cfg.write_text(json.dumps(read_json(first)["config"]))
        assert run_cli(["verify", "--config", str(cfg), *claim_ids, "--out", str(second)]) == 1

        def without_runtimes(path):
            return re.sub(r'"runtime_s": [^,\n]*', "", path.read_text())

        assert without_runtimes(second) == without_runtimes(first)
        assert read_json(second)["config"]["seed"] == 7

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        out = tmp_path / "report.json"
        cfg.write_text(json.dumps({"seed": 7, "label": "+-"}))
        code = run_cli(
            [
                "verify",
                "--config",
                str(cfg),
                "--seed",
                "11",
                "--samples",
                "20000",
                "--claims",
                "C01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["config"] == {"seed": 11, "mc_samples": 20000, "label": "+-"}

    def test_unknown_claim_id(self):
        assert run_cli(["verify", "--samples", "20000", "--claims", "C99"]) == 2

    def test_bad_samples_value(self):
        assert run_cli(["verify", "--samples", "10", "--claims", "C01"]) == 2
        assert run_cli(["verify", "--samples", "999", "--claims", "C04"]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config file must hold a JSON object"),
            ('{"bogus": 1}', "unknown config field 'bogus'"),
            ('{"mc_samples": "many"}', "config field 'mc_samples' has a bad value"),
            ('{"eps_ladder": 5}', "unknown config field 'eps_ladder'"),
            ('{"label": 5}', "config field 'label' has a bad value"),
        ],
        ids=["list", "unknown-field", "samples-not-a-number", "ladder-not-a-list", "label-not-a-string"],
    )
    def test_malformed_config_is_an_input_error(self, tmp_path, capsys, text, message):
        # exit 1 means a claim failed; a bad config file is exit 2 with one line
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert run_cli(["verify", "--config", str(cfg), "--claims", "C01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


# (field, a value of the wrong type): each would pass the range checks or
# fail later with a TypeError, and each is a U22Error naming the field
WRONG_TYPES = {
    "seed-float": ("seed", 2.5),
    "seed-bool": ("seed", True),
    "samples-float": ("mc_samples", 262144.0),
    "label-string": ("label", "++"),
}


@pytest.mark.parametrize("name, value", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_suite_config_refuses_a_wrong_type(name, value):
    with pytest.raises(u22lab.U22Error, match=f"^config field '{name}' has a bad value: "):
        claims.SuiteConfig(**{name: value})


@pytest.mark.parametrize("ladder, r_max", [((0.1, 0.01, 0.001, 0.0001, 1e-70), claims.SuiteConfig.r_max),
                                           (claims.SuiteConfig.eps_ladder, 1e70)], ids=["rung-1e-70", "r-max-1e70"])
def test_an_accepted_extreme_runs_the_shell_claims(ladder, r_max):
    # C06's report samples the ladder's shell and C09's Gram matrix the shell
    # up to r_max: no density or weight over- or underflows, so no warning
    # and no error
    rng = np.random.default_rng(5)
    label = orbits.OrbitLabel.PLUS_PLUS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        specialness_report(label, ladder, r_max, 20_000, rng)
        gram, _ = gram_matrix([groups.random_q(rng) for _ in range(2)], label,
                              measures.PolarShellSampler(r_max=r_max), 20_000, rng)
    assert np.all(np.isfinite(gram))


@pytest.mark.parametrize("command", [["measure-probe", "--function", "vacuum"], ["gram", "--size", "2"]])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_too_few_samples_is_an_input_error(capsys, command, samples):
    # the shared Monte-Carlo batch loop rejects the count before drawing, so
    # no verdict on zero points and no division by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command + ["--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least 1000 samples, got {samples}\n"


_MATRIX = matrix_to_json(np.eye(4))
_BOOL_ENTRY = [[[True, 0.0]] + _MATRIX[0][1:]] + _MATRIX[1:]
_HUGE_INT = "1" + "0" * 400  # a JSON integer no float can hold
_PAIRS = "matrix JSON must be nested arrays of [re, im] pairs"
_NOT_JSON = "not valid UTF-8 JSON"
_BAD_SEED = "seed must be nonnegative, got -1"
_TOO_MANY = "need at most 268435456 samples (2^28), got 100000000000"
_CONFIG = ["verify", "--config", "{file}", "--claims", "C01"]
_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the decoder's recursion limit
_BAD_LABEL = "bad orbit label string"

# (argv, contents of the file that "{file}" names, start of the message);
# every row is input the library rejects: exit 2, one error line, no output
MALFORMED_INPUTS = {
    "orbit-missing-field": (["orbit", "--input", "{file}"], '{"a": 1, "z": [0, 0]}', "point has no field 'b'"),
    "orbit-string-number": (["orbit", "--input", "{file}"], '{"a": "1.5", "b": 1, "z": [0, 0]}',
                            "point entries must be numbers"),
    "orbit-bool-number": (["orbit", "--input", "{file}"], '{"a": true, "b": 1, "z": [0, 0]}',
                          "point entries must be numbers"),
    "orbit-huge-integer": (["orbit", "--input", "{file}"], f'{{"a": {_HUGE_INT}, "b": 1, "z": [0, 0]}}',
                           "point entries must be numbers"),
    "orbit-invalid-utf8": (["orbit", "--input", "{file}"], b'{"a": 1, "b": 1, "z": [0, 0], "\xff": 0}', _NOT_JSON),
    "orbit-not-json": (["orbit", "--input", "{file}"], '{"a": 1,', _NOT_JSON),
    "decompose-ragged": (["decompose", "--input", "{file}"], json.dumps(_MATRIX[:3] + [_MATRIX[3][:3]]),
                         "matrix JSON rows differ in length"),
    "decompose-bool-entry": (["decompose", "--input", "{file}"], json.dumps(_BOOL_ENTRY), _PAIRS),
    "decompose-huge-integer": (["decompose", "--input", "{file}"], f"[[[{_HUGE_INT}, 0]]]", _PAIRS),
    "decompose-tol-nan": (["decompose", "--tol", "nan", "--input", "{file}"], json.dumps(_MATRIX),
                          "--tol must be positive and finite"),
    "verify-seed-negative": (["verify", "--seed", "-1", "--claims", "C01"], None, _BAD_SEED),
    "probe-seed-negative": (["measure-probe", "--function", "vacuum", "--seed", "-1"], None, _BAD_SEED),
    "gram-seed-negative": (["gram", "--size", "2", "--seed", "-1"], None, _BAD_SEED),
    "unbounded-seed-negative": (["unboundedness-experiment", "--seed", "-1"], None, _BAD_SEED),
    "gram-bad-label": (["gram", "--label", "5"], None, "orbit index must be 1..4, got 5"),
    "verify-samples-above-max": (["verify", "--claims", "C06", "--samples", "100000000000"], None, _TOO_MANY),
    "probe-samples-above-max": (["measure-probe", "--function", "vacuum", "--samples", "100000000000"], None,
                                _TOO_MANY),
    "gram-size-above-max": (["gram", "--size", "100000", "--samples", "1000"], None, "--size must be at most 64"),
    "gram-superscript-label": (["gram", "--label", "\u00b2"], None, f"{_BAD_LABEL}: '\u00b2'"),
    "gram-long-index-label": (["gram", "--label", "9" * 5000], None, _BAD_LABEL),
    "decompose-deep-json": (["decompose", "--input", "{file}"], _DEEP, _NOT_JSON),
    # a CSV report has no timestamp field, so the flag is refused, not dropped
    "verify-timestamp-csv": (["verify", "--timestamp", "--format", "csv", "--claims", "C01"], None,
                             "--timestamp needs the JSON format"),
    "config-nan-token": (_CONFIG, '{"seed": NaN}', "config field 'seed' has a bad value: nan"),
    "config-huge-integer": (_CONFIG, f'{{"mc_samples": {_HUGE_INT}}}', "need at most 268435456 samples (2^28)"),
    "config-invalid-utf8": (_CONFIG, b'{"seed": 1, "\xff": 0}', _NOT_JSON),
    "config-superscript-label": (_CONFIG, '{"label": "\u00b2"}', f"{_BAD_LABEL}: '\u00b2'"),
    "config-deep-json": (_CONFIG, _DEEP, _NOT_JSON),
    # the file's values are checked before the flags replace them
    "config-bad-seed-under-flag": (_CONFIG + ["--seed", "5"], '{"seed": "x"}',
                                   "config field 'seed' has a bad value: 'x'"),
    # C05's test points, C06's ladder and the shells' outer radius are
    # constants of the battery, and claims have no tolerance override: a
    # file that names one of them names an unknown field
    "config-r-max-overflow": (_CONFIG, '{"r_max": 1e400}', "unknown config field 'r_max'"),
    "config-nan-ladder": (_CONFIG, '{"eps_ladder": [0.1, 0.01, 0.001, 0.0001, NaN]}',
                          "unknown config field 'eps_ladder'"),
    "config-repeated-rung": (_CONFIG, '{"eps_ladder": [0.1, 0.1, 0.01, 0.001, 0.0001]}',
                             "unknown config field 'eps_ladder'"),
    "config-rung-below-shell": (_CONFIG, '{"eps_ladder": [0.1, 0.01, 0.001, 0.0001, 1e-300]}',
                                "unknown config field 'eps_ladder'"),
    "config-r-max-above-shell": (_CONFIG, '{"r_max": 1e100}', "unknown config field 'r_max'"),
    "config-r-max-below-gram-shell": (_CONFIG, '{"eps_ladder": [1e-5, 1e-6, 1e-7, 1e-8, 1e-9], "r_max": 5e-5}',
                                      "unknown config field 'eps_ladder'"),
    "config-sample-points-huge": (_CONFIG, '{"sample_points": 1000000000000}', "unknown config field 'sample_points'"),
    "config-tol-override": (_CONFIG, '{"tol_override": 0.5}', "unknown config field 'tol_override'"),
}


@pytest.mark.parametrize("argv, contents, message", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_is_one_error_line(tmp_path, capsys, argv, contents, message):
    src = tmp_path / "input.json"
    if contents is not None:
        src.write_bytes(contents if isinstance(contents, bytes) else contents.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([arg.replace("{file}", str(src)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_invalid_utf8_on_stdin_is_an_input_error(monkeypatch, capsys):
    # as from a file, also where the locale decodes stdin with surrogateescape
    raw = io.BytesIO(b'{"a": 1, "b": 1, "z": [0, 0], "\xff": 0}')
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape"))
    assert run_cli(["orbit", "--input", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {_NOT_JSON}")


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_a_bug_in_a_command_keeps_its_traceback(monkeypatch, error):
    # only U22Error and OSError are input errors; anything else is not exit 2
    def broken(args):
        raise error("a bug")

    monkeypatch.setattr(cli, "_cmd_orbit", broken)
    with pytest.raises(error, match="a bug"):
        run_cli(["orbit", "--input", "-"])


def test_orbit_charts_its_point_once(tmp_path, monkeypatch):
    calls = []
    original = orbits._orbit_chart

    def counted(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(orbits, "_orbit_chart", counted)
    monkeypatch.setattr(cli, "_orbit_chart", counted, raising=False)  # the name cli calls, if it imports it
    points = {"++": {"a": 4.0, "b": 2.0, "z": [0.5, -1.0]}, "degenerate": {"a": 1.0, "b": 1.0, "z": [1.0, 0.0]}}
    for label, point in points.items():
        calls.clear()
        src, out = tmp_path / "m.json", tmp_path / "out.json"
        src.write_text(json.dumps(point))
        assert run_cli(["orbit", "--input", str(src), "--out", str(out)]) == 0
        assert read_json(out)["label"] == label and len(calls) == 1


def test_decompose_tests_membership_once(tmp_path, monkeypatch):
    calls = []
    original = groups.is_in_u22

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(groups, "is_in_u22", counted)
    for m, code in ((np.eye(4), 0), (np.diag([2.0, 1.0, 1.0, 1.0]), 2)):
        calls.clear()
        src = tmp_path / "m.json"
        src.write_text(json.dumps(matrix_to_json(m)))
        assert run_cli(["decompose", "--input", str(src), "--out", str(tmp_path / "out.json")]) == code
        assert len(calls) == 1


@pytest.mark.parametrize("command", [
    ["gram", "--size", "2", "--samples", "20000", "--seed", "5"],
    ["verify", "--samples", "20000", "--claims", "C10,C12", "--format", "csv"],
], ids=["gram", "verify-csv"])
def test_an_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, command):
    # print ends stdout in a newline; the --out files ended without one
    out = tmp_path / "out"
    assert run_cli(command) == run_cli(command + ["--out", str(out)])
    stdout = capsys.readouterr().out.encode()

    def without_runtimes(data: bytes) -> bytes:  # verify's last CSV field
        return re.sub(rb",[0-9]+\.[0-9]{6}\n", b",\n", data)

    assert stdout.endswith(b"\n") and not stdout.endswith(b"\n\n")
    assert without_runtimes(out.read_bytes()) == without_runtimes(stdout)


def test_reports_write_a_non_finite_value_as_null():
    # C09's measured value is infinite by design when its projected norm is not positive
    record = claims.ClaimRecord("C09", "anchor", "fail", math.inf, 1.0, 0.5, {"value": np.float64(np.nan)})
    text = claims.records_to_json([record], claims.SuiteConfig())
    doc = json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token} in the report"))
    assert doc["claims"][0]["measured"] is None and doc["claims"][0]["detail"] == {"value": None}


class TestGramCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "gram.json"
        code = run_cli(["gram", "--size", "3", "--samples", "20000", "--out", str(out)])
        assert code == 0
        doc = read_json(out)
        assert doc["size"] == 3
        assert doc["smallest_eigenvalue"] > 0
        assert len(doc["gram_real"]) == 3


class TestToleranceFlag:
    # decompose's --tol is its membership tolerance; a claim's tolerance is
    # the registry's, so no battery command takes one
    @pytest.mark.parametrize("command", [
        ["gram", "--size", "2"],
        ["measure-probe", "--function", "vacuum"],
        ["unboundedness-experiment"],
        ["verify", "--claims", "C01"],
    ])
    def test_only_decompose_offers_tol(self, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--tol", "1e-30"])
        assert exc.value.code == 2


class TestUnboundednessCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = run_cli(
            [
                "unboundedness-experiment",
                "--samples",
                "20000",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["s_norm", "ratio", "stderr"]
        assert len(lines) == 6

    def test_csv_on_stdout(self, capsys):
        code = run_cli(["unboundedness-experiment", "--samples", "20000", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s_norm,ratio,stderr,numerator,denominator"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == 5
        assert all(len(row) == 5 and row[1] > 0 for row in rows)


def test_console_entry_point(tmp_path):
    src = tmp_path / "e.json"
    src.write_text(json.dumps(matrix_to_json(np.eye(4))))
    proc = subprocess.run(
        [sys.executable, "-m", "u22lab.cli", "decompose", "--input", str(src)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["reconstruction_residual"] == 0.0


def test_cli_and_claims_load_no_scipy():
    # u22lab runs on NumPy alone; SciPy is a test oracle. The CLI's import
    # also leaves out statistics, which only reference_points needs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(u22lab.__file__)))
    code = (
        "import sys, u22lab.cli; "
        "from u22lab.claims import SuiteConfig, run_claims; "
        "scipy = lambda: sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "print(scipy(), 'statistics' in sys.modules); "
        "run_claims(SuiteConfig(), ['C05', 'C08', 'C11']); print(scipy())"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] False", "[]"]


@pytest.mark.parametrize("error", [InvariantViolation, NonFinite])
def test_error_in_a_worker_thread_is_exit_2(monkeypatch, capsys, error):
    # raised while a pool thread evaluates the probe's integrand
    caller = threading.get_ident()

    def evaluate(pts):
        if threading.get_ident() != caller:
            raise error("raised in a worker")
        return np.zeros(pts.size)

    monkeypatch.setattr(measures, "WORKERS", 2)
    monkeypatch.setattr(cli, "vacuum", lambda: GroupFunction(evaluate))
    assert run_cli(["measure-probe", "--function", "vacuum", "--samples", "50000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: raised in a worker\n"


def test_non_finite_gram_sample_in_a_worker_is_exit_2(monkeypatch, capsys):
    # a coboundary value that a pool thread finds non-finite, in gram's
    # reducing pass
    from u22lab.representation import CocycleVector

    caller = threading.get_ident()

    def rows(self, pts):
        return np.full((self.coefficients.size, pts.size), np.inf if threading.get_ident() != caller else 0.0, complex)

    monkeypatch.setattr(measures, "WORKERS", 2)
    monkeypatch.setattr(CocycleVector, "rows", rows)
    assert run_cli(["gram", "--samples", "50000"]) == 2
    assert capsys.readouterr().err == "error: integrand produced a non-finite sample\n"


def test_import_starts_no_thread_pool():
    # the pool behind measures.pointwise and its module load on first use
    src = os.path.dirname(os.path.dirname(os.path.abspath(u22lab.__file__)))
    code = "import sys, u22lab, u22lab.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
