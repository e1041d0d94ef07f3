import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from prymsplit import cli, errors, fields, resultants
from helpers import PSI12, PSI13, field_tripwire

DEMO_F7 = {"p": 7, "f": [0, 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]}
DEMO_QQ = {"f": [0, 1, 0], "g": [1, "1/2", 1], "h": [1, 0, -1]}
BAD_FG = {"p": 7, "f": [1, 0, 0], "g": [0, 0, 1], "h": [0, 1, 0]}
BAD_DET = {"p": 7, "f": [0, 1, 0], "g": [1, 1, 1], "h": [0, 2, 0]}
# validated curves over F_9 (under the default modulus x^2 + 1 and under
# x^2 + x + 2), F_25 and F_27; an entry [c0, c1, ...] is c0 + c1 t + ...
F9_FGH = {"f": [[2, 0], [1, 0], [1, 1]], "g": [[1, 0], [1, 2], [1, 2]],
          "h": [[1, 2], [0, 2], [0, 1]]}
EXTENSION_DOCS = {
    "F9": {"p": 3, "k": 2, **F9_FGH},
    "F9-modulus": {"p": 3, "k": 2, "modulus": [2, 1, 1], **F9_FGH},
    "F25": {"p": 5, "k": 2, "f": [[4, 0], [3, 3], [4, 4]], "g": [[2, 0], [3, 1], [3, 0]],
            "h": [[0, 3], [4, 4], [4, 2]]},
    "F27": {"p": 3, "k": 3, "f": [[1, 1, 0], [0, 0, 2], [1, 2, 2]],
            "g": [[0, 2, 2], [2, 0, 0], [2, 2, 0]], "h": [[0, 1, 0], [0, 2, 1], [0, 2, 2]]},
}
F49 = {"p": 7, "k": 2, "f": [[1, 1], [1, 5], [6, 6]], "g": [[4, 0], [2, 2], [0, 1]],
       "h": [[3, 4], [6, 6], [0, 4]]}


def write(tmp_path, doc, name="curve.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def canonical(report):
    """Drop wall-clock data so reports can be compared bit for bit."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items() if k != "seconds"}
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return scrub(report)


class TestParsing:
    @pytest.mark.parametrize("argv, text, message", [
        (["validate"], '{"p": 7, "p": 11, "f": [1, 1, 5], "g": [1, 6, 4], "h": [3, 5, 0]}',
         'key "p" appears twice'),
        (["disc-check"], '{"quartic": [[4,0,0,1],[4,0,0,2],[0,4,0,1],[0,0,4,1]]}',
         "monomial (4,0,0) appears twice"),
    ], ids=["key", "monomial"])
    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_repeated_key_or_monomial_rejected(self, tmp_path, capsys, argv, text, message,
                                               source):
        if source == "file":
            path = tmp_path / "doc.json"
            path.write_text(text)
            text = str(path)
        assert cli.main([*argv, "--input", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"rejected input: {message}\n"

    def test_unknown_key_named(self, tmp_path, capsys):
        path = write(tmp_path, {**DEMO_F7, "extra": 1})
        code = cli.main(["validate", "--input", path])
        assert code == 3
        assert 'unknown key "extra"' in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        doc = dict(DEMO_F7)
        del doc["g"]
        code = cli.main(["validate", "--input", write(tmp_path, doc)])
        assert code == 3
        assert '"g"' in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["validate", "--input", str(path)]) == 3

    def test_wrong_coefficient_count(self, tmp_path, capsys):
        doc = dict(DEMO_F7, f=[1, 2])
        assert cli.main(["validate", "--input", write(tmp_path, doc)]) == 3

    def test_rational_strings(self, tmp_path):
        assert cli.main(["validate", "--input", write(tmp_path, DEMO_QQ)]) == 0

    def test_bad_rational_string(self, tmp_path, capsys):
        doc = dict(DEMO_QQ, h=["x", 0, -1])
        assert cli.main(["validate", "--input", write(tmp_path, doc)]) == 3

    def test_composite_p(self, tmp_path):
        assert cli.main(["validate", "--input", write(tmp_path, dict(DEMO_F7, p=6))]) == 3

    def test_missing_input_flag(self, capsys):
        assert cli.main(["validate"]) == 3

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    def test_unreadable_input_rejected(self, tmp_path, kind):
        path = tmp_path
        if kind == "not-utf-8":
            path = tmp_path / "bad.json"
            path.write_bytes(b"\xff\xfe")
        assert cli.main(["validate", "--input", str(path)]) == 3

    def test_over_long_integer_rejected(self, tmp_path, capsys):
        # past Python's 4300-digit limit json raises a plain ValueError
        doc = '{"f": [' + "9" * 5000 + ', 1, 0], "g": [1, 1, 1], "h": [1, 0, -1]}'
        path = tmp_path / "big.json"
        path.write_text(doc)
        for source in (doc, str(path)):
            assert cli.main(["validate", "--input", source]) == 3
            assert "internal error" not in capsys.readouterr().err

    def test_extension_field_document(self, tmp_path):
        doc = {"p": 3, "k": 2, "f": [0, 1, 0], "g": [[1, 1], 1, 1], "h": [1, 0, -1]}
        code = cli.main(["validate", "--input", write(tmp_path, doc)])
        assert code in (0, 3)  # parses; verdict depends on the curve

    def test_inline_document(self):
        assert cli.main(["validate", "--input", json.dumps(DEMO_F7)]) == 0

    def test_p_flag_reduces_rational_document(self, tmp_path, capsys):
        path = write(tmp_path, {k: DEMO_F7[k] for k in ("f", "g", "h")})
        assert cli.main(["verify", "--input", path, "--p", "11"]) == 0
        assert "(q = 11)" in capsys.readouterr().out

    def test_p_flag_conflict_rejected(self, tmp_path):
        assert cli.main(["verify", "--input", write(tmp_path, DEMO_F7), "--p", "5"]) == 3


CURVE_FGH = {"f": [0, 1, 0], "g": [1, [0, 1], 1], "h": [1, 0, -1]}
FERMAT = [[4, 0, 0, 1], [0, 4, 0, -1], [0, 0, 4, 1]]


@pytest.mark.parametrize("command, doc, expected", [
    ("validate", {"p": 3, "k": 2, "modulus": [2, 2, 1], **CURVE_FGH}, 0),
    ("validate", {"p": 3, "k": 2, "modulus": "abc", **CURVE_FGH}, 3),
    ("validate", {"p": 3, "k": 2, "modulus": 5, **CURVE_FGH}, 3),
    ("validate", {"p": 3, "k": 2, "modulus": [1, [0], 1], **CURVE_FGH}, 3),
    ("validate", {"p": 3, "k": 2, "modulus": [1, 0, 1.0], **CURVE_FGH}, 3),
    ("validate", {"p": 3, "k": 2, "modulus": [2, 1], **CURVE_FGH}, 3),
    ("validate", {"p": 3, "k": 40, **CURVE_FGH}, 4),
    ("validate", {"p": 1009, "k": 2, **CURVE_FGH}, 4),
    ("validate", {"p": 181, "k": 2, "modulus": [2, 0, 1], **CURVE_FGH}, 4),
    ("validate", {"p": 9, "k": 2, **CURVE_FGH}, 3),
    ("validate", {"p": 10**6, "k": 3, **CURVE_FGH}, 3),
    ("verify", {"p": 10007, **{key: DEMO_F7[key] for key in "fgh"}}, 4),
    ("verify", F49, 4),
    ("bruin", F49, 4),
    ("disc-check", {"p": 3, "k": 40, "quartic": FERMAT}, 4),
    ("disc-check", {"p": 3, "k": 2, "modulus": [0, 1, 1], "quartic": FERMAT}, 3),
    ("disc-check", {"p": 7, "quartic": 5}, 3),
], ids=["modulus-ok", "modulus-str", "modulus-int", "modulus-nested", "modulus-float",
        "modulus-short", "k-40", "p-1009-k-2", "p-181-modulus", "composite-p",
        "composite-p-above-cap", "verify-p-10007", "verify-f49", "bruin-f49", "quartic-k-40", "quartic-reducible-modulus",
        "quartic-not-a-list"])
def test_field_documents_exit_3_or_4_before_tables(command, doc, expected, monkeypatch):
    # a table above the cap raises inside the command, which then exits 1
    field_tripwire(monkeypatch)
    assert cli.main([command, "--input", json.dumps(doc)]) == expected


QQ_FGH = {"g": [1, 1, 1], "h": [1, 0, -1]}
F7_FGH = {"p": 7, **QQ_FGH}


@pytest.mark.parametrize("command, doc", [
    ("validate", {"f": ["1e999999999", 1, 0], **QQ_FGH}),
    ("validate", {"f": ["1e99999", 1, 0], **QQ_FGH}),
    ("validate", {"f": ["1.5", 1, 0], **QQ_FGH}),
    ("validate", {"f": [" 1/2", 1, 0], **QQ_FGH}),
    ("validate", {"f": [False, 1, 0], **QQ_FGH}),
    ("validate", {"k": True, "f": [0, 1, 0], **F7_FGH}),
    ("validate", {"f": [True, 1, 0], **F7_FGH}),
    ("validate", {"p": 3, "k": 2, "modulus": [2, True, 1], **CURVE_FGH}),
    ("disc-check", {"p": 7, "quartic": [[True, 3, 0, 1], [0, 4, 0, 1], [4, 0, 0, 1]]}),
], ids=["exponent-1e999999999", "exponent-1e99999", "decimal", "padded", "bool-rational",
        "bool-k", "bool-entry", "bool-modulus", "bool-exponent"])
def test_entries_outside_the_documented_forms_exit_3_within_a_second(command, doc):
    # a subprocess first, so a parser that hangs fails the test instead of the suite
    argv = [command, "--input", json.dumps(doc)]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "prymsplit.cli", *argv], timeout=10,
                          capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3, proc.stderr
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1.0


class TestExitCodes:
    def test_validate_pass(self, tmp_path):
        assert cli.main(["validate", "--input", write(tmp_path, DEMO_F7)]) == 0

    def test_validate_reject(self, tmp_path):
        assert cli.main(["validate", "--input", write(tmp_path, BAD_FG)]) == 3

    def test_verify_pass(self, tmp_path):
        assert cli.main(["verify", "--input", write(tmp_path, DEMO_F7)]) == 0

    def test_verify_rejects_before_counting(self, tmp_path, monkeypatch):
        import prymsplit.zeta as zeta_module

        def tripwire(*a, **k):
            raise AssertionError("counting reached")

        monkeypatch.setattr(zeta_module, "count_plane_quartic", tripwire)
        monkeypatch.setattr(zeta_module, "count_weighted", tripwire)
        monkeypatch.setattr(zeta_module, "count_bruin_cover", tripwire)
        for doc in (BAD_FG, BAD_DET):
            assert cli.main(["verify", "--input", write(tmp_path, doc)]) == 3

    def test_resource_cap_exit(self, tmp_path):
        code = cli.main(["verify", "--input", write(tmp_path, DEMO_F7),
                         "--cap-axis", "10"])
        assert code == 4

    @pytest.mark.parametrize("argv", [["verify", "--cap-axis", "-5"],
                                      ["verify", "--cap-axis", "0"],
                                      ["bruin", "--cap-axis", "-1"]])
    def test_cap_below_one_is_rejected_input(self, argv, capsys):
        assert cli.main([*argv, "--input", json.dumps(DEMO_F7)]) == 3
        assert "axis cap must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", EXTENSION_DOCS)
    @pytest.mark.parametrize("command", ["verify", "bruin"])
    def test_extension_field_passes(self, command, name, capsys):
        argv = [command, "--input", json.dumps(EXTENSION_DOCS[name]), "--format", "json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    @pytest.mark.parametrize("name, summary", [("F9", "verify: pass (q = 9)"),
                                               ("F27", "verify: pass (q = 27)")])
    def test_verify_summary_names_the_field(self, name, summary, capsys):
        assert cli.main(["verify", "--input", json.dumps(EXTENSION_DOCS[name])]) == 0
        assert capsys.readouterr().out.splitlines() == [summary]

    def test_verify_summary_names_each_rational_reduction(self, capsys):
        doc = {k: DEMO_F7[k] for k in ("f", "g", "h")}
        assert cli.main(["verify", "--input", json.dumps(doc)]) == 0
        assert capsys.readouterr().out.splitlines() == ["verify: pass (q = 5, 7, 11)"]

    @pytest.mark.parametrize("name", ["F9", "F9-modulus"])
    def test_bruin_reaches_depth_4_over_f9(self, name, capsys):
        argv = ["bruin", "--input", json.dumps(EXTENSION_DOCS[name]), "--depth", "4",
                "--format", "json"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["achieved_depth"] == 4 and report["L_Z"]["q"] == 9

    def test_bruin_singular_eps_rejected(self, tmp_path):
        code = cli.main(["bruin", "--input", write(tmp_path, DEMO_F7), "--epsilon", "0"])
        assert code == 3

    def test_bruin_pass(self, tmp_path):
        code = cli.main(["bruin", "--input", write(tmp_path, DEMO_F7),
                         "--epsilon", "3", "--depth", "2"])
        assert code == 0

    def test_bruin_cubic_field_above_cap_exits_4(self):
        # 37^3 is above the default cap, so the genus-3 counts cannot finish
        assert cli.main(["bruin", "--input", json.dumps(dict(DEMO_F7, p=37))]) == 4

    def test_bruin_singular_fiber_rejected(self, tmp_path):
        # eps = 2 lands on a singular fiber for this curve over F_7
        code = cli.main(["bruin", "--input", write(tmp_path, DEMO_F7),
                         "--epsilon", "2"])
        assert code == 3

    @pytest.mark.parametrize("depth", ["9", "0", "-1"])
    def test_bruin_depth_out_of_range_rejected(self, tmp_path, capsys, monkeypatch,
                                               depth):
        def must_not_run(*args, **kwargs):
            raise AssertionError("depth must be rejected before any curve work")

        monkeypatch.setattr(cli, "require_valid", must_not_run)
        monkeypatch.setattr(cli, "deform", must_not_run)
        code = cli.main(["bruin", "--input", write(tmp_path, DEMO_F7),
                         "--epsilon", "3", "--depth", depth])
        assert code == 3
        err = capsys.readouterr().err
        assert "rejected input" in err and "depth" in err

    def test_disc_check_golden(self):
        assert cli.main(["disc-check"]) == 0

    @pytest.mark.parametrize("argv", [
        [],
        ["verify", "--bogus"],
        ["bruin", "--depth", "x"],
        ["split", "--cap-evals", "1"],  # no command takes an evaluation cap
        ["bruin", "--cap-evals", "1"],  # the cover count is bounded by --cap-axis alone
        ["disc-check", "--p", "7"],  # the discriminant is taken over the document's field
        ["selftest", "--p", "7"],
        ["selftest", "--input", "{}"],
    ], ids=["no-subcommand", "unknown-option", "non-integer-depth", "cap-evals-on-split",
            "cap-evals-on-bruin", "p-on-disc-check", "p-on-selftest", "input-on-selftest"])
    def test_usage_error_is_rejected_input(self, argv, capsys):
        # exit 2 is reserved for "verification failed"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bruin", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


def _subclasses(cls):
    return {cls} | {s for sub in cls.__subclasses__() for s in _subclasses(sub)}


INPUT_ERRORS = [errors.InvalidFieldError, errors.UnsupportedFieldError,
                errors.SingularMatrixError, errors.DegenerateInputError,
                errors.UndefinedResultantError, errors.InvalidParameterError,
                errors.RejectedInputError, cli.DocumentError]
INTERNAL_ERRORS = [errors.ModelError, errors.InconsistentCountsError,
                   errors.ResultantIndeterminateError]


def test_input_errors_are_exactly_the_input_error_classes():
    assert _subclasses(errors.InputError) - {errors.InputError} == set(INPUT_ERRORS)
    assert not any(issubclass(e, errors.InputError) for e in INTERNAL_ERRORS)


@pytest.mark.parametrize("exc, expected", [(e, 3) for e in INPUT_ERRORS]
                         + [(e, 1) for e in INTERNAL_ERRORS],
                         ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
@pytest.mark.parametrize("command", ["validate", "verify"])
def test_error_raised_inside_a_command_sets_the_exit_code(command, exc, expected,
                                                          monkeypatch, capsys):
    def raiser(*args, **kwargs):
        raise exc("raised inside the command")

    monkeypatch.setattr(cli, {"validate": "validate", "verify": "verify_split"}[command], raiser)
    assert cli.main([command, "--input", json.dumps(DEMO_F7)]) == expected
    err = capsys.readouterr().err
    assert err.startswith("rejected input: " if expected == 3 else "internal error: ")


@pytest.mark.parametrize("p", [PSI12, PSI13], ids=["psi12", "psi13"])
@pytest.mark.parametrize("command", ["validate", "split"])
def test_strong_pseudoprime_field_exits_3(command, p, capsys):
    assert cli.main([command, "--input", json.dumps(dict(DEMO_F7, p=p))]) == 3
    assert "invalid field" in capsys.readouterr().err


class TestParserReuse:
    def test_parser_is_built_once(self, monkeypatch):
        builds = []
        real = cli.build_parser

        def counting_build():
            builds.append(1)
            return real()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        try:
            assert cli.main(["disc-check"]) == 0
            assert cli.main(["disc-check"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_successive_calls_do_not_leak(self, tmp_path, capsys):
        path = write(tmp_path, DEMO_F7)

        def run(argv):
            code = cli.main(argv + ["--format", "json"])
            return code, json.loads(capsys.readouterr().out)

        code, report = run(["bruin", "--input", path, "--epsilon", "3", "--depth", "1",
                            "--seed", "5"])
        assert code == 0 and (report["seed"], report["depth"]) == (5, 1)
        code, report = run(["bruin", "--input", path, "--epsilon", "3"])
        assert code == 0 and (report["seed"], report["depth"]) == (0, 3)
        code, report = run(["validate", "--input", path])
        assert code == 0 and report["command"] == "validate" and report["seed"] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--input", path, "--depth", "2"])  # a bruin-only option
        assert exc.value.code == 3
        assert "usage:" in capsys.readouterr().err
        assert run(["validate", "--input", path])[0] == 0
        # the namespace holds exactly the options of the command just parsed
        bruin = vars(cli._parser().parse_args(["bruin", "--depth", "4", "--cap-axis", "9"]))
        verify = vars(cli._parser().parse_args(["verify"]))
        assert bruin["depth"] == 4 and bruin["cap_axis"] == 9
        assert "depth" not in verify and "epsilon" not in verify
        assert verify["cap_axis"] == cli.DEFAULT_AXIS_CAP


class TestReports:
    def test_split_report_contents(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["split", "--input", write(tmp_path, DEMO_F7),
                         "--out", str(out), "--format", "json"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "prymsplit-report/1"
        data = report["split"]
        for key in ("A", "det_A", "A_inv", "a", "b", "c", "F", "s"):
            assert key in data
        assert data["A"] == [[0, 1, 0], [1, 0, 6], [1, 1, 1]]
        # the report's F must match what the library computes
        from prymsplit import BiellipticQuartic, build_extension, split

        curve = BiellipticQuartic.from_ints(build_extension(7), **{k: DEMO_F7[k] for k in "fgh"})
        assert data["F"] == list(split(curve).sextic.coeffs)

    def test_verify_report_round_trip(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        code = cli.main(["verify", "--input", write(tmp_path, DEMO_F7),
                         "--out", str(out1), "--seed", "11"])
        assert code == 0
        report1 = json.loads(out1.read_text())
        # one row per Frobenius orbit of x -> x^7: 7, 7 + 42/2, 7 + 336/3
        rows = [c["rows"] for c in report1["verifications"][0]["counts"]]
        assert rows == [7, 28, 119, 7, 7, 28]
        # re-run on the embedded input: identical verdict and data
        embedded = write(tmp_path, report1["input"], "embedded.json")
        out2 = tmp_path / "r2.json"
        assert cli.main(["verify", "--input", embedded, "--out", str(out2),
                         "--seed", "11"]) == 0
        report2 = json.loads(out2.read_text())
        assert canonical(report1) == canonical(report2)

    @pytest.mark.parametrize("doc", [EXTENSION_DOCS["F9"], dict(DEMO_F7, p=23)],
                             ids=["F9", "F23"])
    @pytest.mark.parametrize("command", ["verify", "bruin"])
    def test_rerun_with_the_same_seed_is_byte_identical(self, command, doc, capsys):
        texts = []
        for _ in range(2):
            assert cli.main([command, "--input", json.dumps(doc), "--seed", "5",
                             "--format", "json"]) == 0
            report = canonical(json.loads(capsys.readouterr().out))
            texts.append(json.dumps(report, indent=2, sort_keys=True))
        assert texts[0] == texts[1]

    def test_rational_verify_reports_three_primes(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--input", write(tmp_path, DEMO_QQ),
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["verifications"]) == 3
        assert report["verdict"] == "pass"

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        out = tmp_path / "r.json"
        cli.main(["validate", "--input", write(tmp_path, DEMO_F7), "--out", str(out)])
        assert out.exists()
        assert not (tmp_path / "r.json.tmp").exists()

    @pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
    def test_unwritable_out_exits_3_and_leaves_no_tmp(self, tmp_path, capsys, target):
        out = tmp_path / "missing" / "r.json"
        if target == "existing-directory":
            out = tmp_path / "reports"
            out.mkdir()
        code = cli.main(["validate", "--input", write(tmp_path, DEMO_F7), "--out", str(out)])
        assert code == 3
        assert "cannot write" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_disc_check_document(self, tmp_path):
        doc = {"quartic": [[4, 0, 0, 1], [0, 4, 0, -1], [0, 0, 4, 1]]}
        out = tmp_path / "d.json"
        assert cli.main(["disc-check", "--input", write(tmp_path, doc, "q.json"),
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["discriminant"] == str(-(2**40))
        assert report["singular"] is False

    def test_disc_check_over_f3_builds_no_other_field(self, monkeypatch, capsys):
        # the base quartic of a seed-1 bruin-p3-full fibre; its designated
        # Macaulay minor vanishes under the first 11 coordinate changes too
        doc = {"p": 3, "quartic": [
            [0, 0, 4, 1], [0, 1, 3, 1], [0, 3, 1, 2], [0, 4, 0, 1], [1, 0, 3, 2], [1, 3, 0, 2],
            [2, 0, 2, 2], [2, 2, 0, 2], [3, 0, 1, 1], [3, 1, 0, 1], [4, 0, 0, 1]]}
        built = []
        real_build = fields.build_extension

        def build_spy(p, k=1, *rest):
            built.append((p, k))
            return real_build(p, k, *rest)

        monkeypatch.setattr(fields, "build_extension", build_spy)
        monkeypatch.setattr(cli, "build_extension", build_spy)
        minors = []
        real_quotient = resultants._macaulay_quotient

        def quotient_spy(rows, field):
            value = real_quotient(rows, field)
            minors.append((field.q, value is None))
            return value

        monkeypatch.setattr(resultants, "_macaulay_quotient", quotient_spy)
        assert cli.main(["disc-check", "--input", json.dumps(doc), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["discriminant"] == 2
        assert minors[:9] == [(3, True)] * 9
        assert set(built) == {(3, 1)}

    def test_disc_check_rejects_bad_monomial(self, tmp_path):
        doc = {"quartic": [[3, 0, 0, 1]]}
        assert cli.main(["disc-check", "--input", write(tmp_path, doc, "q.json")]) == 3


def test_selftest_quick_passes(capsys):
    assert cli.main(["selftest", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8


def test_selftest_full_default_seed_is_the_acceptance_config(monkeypatch, capsys):
    from test_acceptance import CFG

    handed = []
    monkeypatch.setattr(cli, "run_all", lambda cfg, printer: handed.append(cfg) or [])
    assert cli.main(["selftest", "--full"]) == 0
    assert handed == [CFG]


def test_selftest_json_stdout_is_the_report(capsys):
    assert cli.main(["selftest", "--seed", "3", "--format", "json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["verdict"] == "pass" and len(report["criteria"]) == 8
    assert captured.err.count("[PASS]") == 8


# a validated curve over F_7 whose verification fails once the genus-2 factor
# is counted as y^2 = F + 1, as criterion 7 corrupts it
CORRUPTIBLE_F7 = {"p": 7, "f": [1, 1, 5], "g": [1, 6, 4], "h": [3, 5, 0]}


class TestFailPaths:
    """Every report's fail verdict, its exit code and its summary line."""

    @pytest.fixture
    def corrupt_genus2(self, monkeypatch):
        import prymsplit.zeta as zeta_module
        from prymsplit import UniPoly

        real = zeta_module.count_weighted

        def corrupted_count(poly, genus, field):
            if genus == 2:
                poly = poly + UniPoly(poly.field, [poly.field.one])
            return real(poly, genus, field)

        monkeypatch.setattr(zeta_module, "count_weighted", corrupted_count)

    def run(self, capsys, argv, fmt):
        code = cli.main([*argv, "--format", fmt])
        out = capsys.readouterr().out
        return code, json.loads(out) if fmt == "json" else out.splitlines()

    def test_verify_fails_with_exit_2(self, corrupt_genus2, capsys):
        argv = ["verify", "--input", json.dumps(CORRUPTIBLE_F7)]
        code, report = self.run(capsys, argv, "json")
        assert code == 2 and report["verdict"] == "fail"
        [sub] = report["verifications"]
        assert sub["verdict"] == "fail" and sub["failure"] == "L_C differs from L_D * L_X"
        assert self.run(capsys, argv, "text") == (2, ["verify: fail (q = 7)"])

    def test_bruin_fails_with_exit_2(self, corrupt_genus2, capsys):
        argv = ["bruin", "--input", json.dumps(CORRUPTIBLE_F7), "--epsilon", "1",
                "--depth", "3"]
        code, report = self.run(capsys, argv, "json")
        assert code == 2 and report["verdict"] == "fail"
        assert report["failure"] == "cover counts differ from the L_Z * L_H prediction"
        assert self.run(capsys, argv, "text") == (2, ["bruin: fail at depth 3"])

    def test_disc_check_fails_with_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "GOLDEN_QUARTIC_DISC", 1)
        code, report = self.run(capsys, ["disc-check"], "json")
        assert code == 2 and report["verdict"] == "fail" and report["expected"] == "1"
        assert self.run(capsys, ["disc-check"], "text") == (
            2, [f"disc-check: {-2**40} (expected 1) -> fail"])

    def test_selftest_fails_with_exit_2(self, monkeypatch, capsys):
        from prymsplit.selftest import CriterionResult

        results = [CriterionResult(1, "holds", True, "ok", 0.0),
                   CriterionResult(2, "broken", False, "wrong", 0.0)]
        monkeypatch.setattr(cli, "run_all", lambda cfg, printer: results)
        code, report = self.run(capsys, ["selftest"], "json")
        assert code == 2 and report["verdict"] == "fail"
        assert [c["passed"] for c in report["criteria"]] == [True, False]
        code, lines = self.run(capsys, ["selftest"], "text")
        assert code == 2 and len(lines) == 1 and lines[0].startswith("selftest: fail (")

    def test_selftest_reports_a_raising_criterion_and_goes_on(self, monkeypatch, capsys):
        import dataclasses

        import prymsplit.zeta as zeta_module

        real = zeta_module.count_plane_quartic

        def miscount(curve, field):  # each count over F_{q^2} one too large
            rec = real(curve, field)
            return dataclasses.replace(rec, n=rec.n + 1) if rec.m == 2 else rec

        monkeypatch.setattr(zeta_module, "count_plane_quartic", miscount)
        code, report = self.run(capsys, ["selftest"], "json")
        assert code == 2 and report["verdict"] == "fail"
        criteria = report["criteria"]
        assert [c["index"] for c in criteria] == list(range(1, 9))
        assert [c["index"] for c in criteria if not c["passed"]] == [2, 8]
        for c in (criteria[1], criteria[7]):
            assert c["detail"].startswith("InconsistentCountsError: Newton division by 2")

    def test_validate_fails_with_exit_3(self, capsys):
        argv = ["validate", "--input", json.dumps(BAD_FG)]
        failures = ["f*g has a repeated root", "h^2 - 4*f*g has a repeated root"]
        code, report = self.run(capsys, argv, "json")
        assert code == 3 and report["verdict"] == "fail" and report["failures"] == failures
        assert self.run(capsys, argv, "text") == (3, [f"validate: fail ({'; '.join(failures)})"])
