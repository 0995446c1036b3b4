import json
import random
from pathlib import Path

import jsonschema
import pytest

from dreg.cli import main, parse_point, render_json
from dreg.corpus import OPERATORS
from dreg.parser import (ParseError, format_operator, parse_operator,
                         parse_weyl_generators)
from dreg.regularity import INFINITY
from dreg.weyl import coordinate_names, format_weyl

from conftest import random_operator, random_weyl

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "dreg" / "data"
     / "report_schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_round_trip_fuzz_operators(self, rng):
        for _ in range(300):
            p = random_operator(rng, order=3, degree=3, pole=3)
            text = format_operator(p)
            assert parse_operator(text) == p

    def test_round_trip_fuzz_weyl(self, rng):
        for _ in range(300):
            n = rng.choice((1, 2, 3))
            w = random_weyl(rng, n, 3, 4)
            if w.is_zero():
                continue
            text = format_weyl(w)
            assert parse_weyl_generators(text, coordinate_names(n))[0] == w

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_operator("x*d +\n  q")
        assert err.value.line == 2 and err.value.col == 3

    def test_multi_generator_split(self):
        gens = parse_weyl_generators("dx ; dy ; x*dx + y*dy", ("x", "y"))
        assert len(gens) == 3


class TestPointParsing:
    def test_values(self):
        from fractions import Fraction
        assert parse_point("0") == Fraction(0)
        assert parse_point("-3/2") == Fraction(-3, 2)
        assert parse_point("inf") is INFINITY
        assert parse_point("oo") is INFINITY


class TestDocumentedInvocations:
    def test_compare_euler(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "x*d - 5", "--point", "0",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == {"fuchs": "regular",
                                     "kashiwara": "regular", "agree": True}

    def test_charvar_exponential(self, capsys):
        code, out, _ = run_cli(capsys, "charvar", "--vars", "x,y",
                               "y*dx - 1 ; y^2*dy + x", "--format", "json")
        assert code == 0
        report = json.loads(out)
        comps = report["certificates"][0]["components"]
        assert len(comps) == 3
        kinds = sorted(c["kind"] for c in comps)
        assert kinds == ["conormal_divisor", "conormal_point", "zero_section"]

    def test_system_airy(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "corpus", "--emit", str(tmp_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "system",
                               "--file", str(tmp_path / "airy.sys"),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        inf_rows = [v for v in report["verdicts"]
                    if v.get("point") == "inf" and v["method"] == "fuchs"]
        assert inf_rows and inf_rows[0]["verdict"] == "irregular"


class TestExitCodes:
    def test_input_error(self, capsys):
        code, _, err = run_cli(capsys, "fuchs", "x*+d", "--point", "0")
        assert code == 1 and "input error" in err

    def test_unknown_symbol(self, capsys):
        code, _, err = run_cli(capsys, "fuchs", "q + 1", "--point", "0")
        assert code == 1 and "unknown symbol" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "system", "--file", "/nonexistent.sys")
        assert code == 1

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "charvar", "--vars", "x,y",
                               "y*dx - 1 ; y^2*dy + x", "--budget", "1")
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize("argv, message", [
        (("charvar", "--vars", "x,x", "dx"), "repeated"),
        (("charvar", "--vars", "x,d", "d*x"), "named like a derivation"),
        (("holonomic", "--vars", "dz", "dz"), "named like a derivation"),
        (("theorem", "--backward", "d", "--pole-bound", "-3"), "--pole-bound"),
        (("charvar", "--budget", "-5", "dx"), "--budget"),
        (("polelattice", "--n", "1", "--r", "1", "--bound", "-1"), "--bound"),
        (("system", "--file", str(CORPUS / "airy.sys"), "--max-steps", "-1"),
         "--max-steps"),
    ], ids=["repeated-var", "var-d", "var-dz", "pole-bound", "budget", "bound",
            "max-steps"])
    def test_malformed_ring_or_bound(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert "input error" in err and message in err

    def test_analysis_completed_regardless_of_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "fuchs", "x^2*d - 1", "--point", "0")
        assert code == 0 and "irregular" in out

    def test_contradiction_exits_three(self, capsys, monkeypatch):
        # the bug trap: force a disagreeing report through the compare verb
        import dreg.cli as cli_mod
        from dreg.dmod import EquivalenceReport
        from dreg.regularity import FuchsCertificate

        real = cli_mod.fuchs_kashiwara_equivalence

        def broken(p, point=0):
            rep = real(p, point)
            return EquivalenceReport(rep.point, rep.fuchs, rep.kashiwara, False)

        monkeypatch.setattr(cli_mod, "fuchs_kashiwara_equivalence", broken)
        code, _, err = run_cli(capsys, "compare", "x*d - 5", "--point", "0")
        assert code == 3 and "contradiction" in err


class TestDeterminismAndSchema:
    VERBS = [
        ("fuchs", "x*d - 5", "--point", "0"),
        ("fuchs", "d^2 - x"),
        ("theta", "d + 5/x"),
        ("newton", "d - 1/x^2", "--point", "0"),
        ("kashiwara", "x*d - 5"),
        ("compare", "x*d - 5", "--point", "inf"),
        ("charvar", "--vars", "x,y", "y*dx - 1 ; y^2*dy + x"),
        ("holonomic", "x*d - 5"),
        ("polelattice", "--n", "2", "--r", "1", "--bound", "4"),
        ("corpus",),
    ]

    @pytest.mark.parametrize("argv", VERBS, ids=lambda a: a[0])
    def test_byte_identical_json(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv, "--format", "json")
        code2, out2, _ = run_cli(capsys, *argv, "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("argv", VERBS, ids=lambda a: a[0])
    def test_schema_valid(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_theorem_forward_from_file(self, capsys, tmp_path):
        run_cli(capsys, "corpus", "--emit", str(tmp_path))
        code, out, _ = run_cli(capsys, "theorem",
                               "--file", str(tmp_path / "plane_lattice.chart"),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["verdicts"][0]["verdict"] == "certified"

    def test_theorem_backward(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--backward", "x^2*d - 1",
                               "--pole-bound", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"][0]["verdict"] == "irregular"


class TestCorpus:
    def test_listed_operators_parse(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["certificates"]) >= 10
        for entry in report["certificates"]:
            parse_operator(entry["expression"])

    def test_emitted_files_load(self, capsys, tmp_path):
        run_cli(capsys, "corpus", "--emit", str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert "airy.sys" in names and "euler.op" in names
        assert "plane_lattice.chart" in names
        code, _, _ = run_cli(capsys, "fuchs",
                             "--file", str(tmp_path / "euler.op"))
        assert code == 0
