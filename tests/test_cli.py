"""Tests for the command-line surface: parsing, reports, exit codes."""

import hashlib
import io
import json

import pytest

from jkscatter import cli
from jkscatter.errors import ParseError, ValidationError


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


K21_FILE = {
    "vertices": ["i1", "i2", "j1"],
    "arrows": [{"tail": "i1", "head": "j1"}, {"tail": "i2", "head": "j1"}],
    "dimension": {"i1": 1, "i2": 1, "j1": 1},
    "stability": {"i1": "1/1", "i2": "1", "j1": "-2"},
}


@pytest.fixture
def quiver_file(tmp_path):
    path = tmp_path / "k21.json"
    path.write_text(json.dumps(K21_FILE))
    return str(path)


class TestParseQuiverFile:
    def test_roundtrip(self, quiver_file):
        q, d, zeta = cli.parse_quiver_file(quiver_file)
        assert len(q.vertices) == 3 and len(q.arrows) == 2
        assert d.total() == 3
        assert zeta["j1"] == -2

    def test_bad_json_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": [}')
        with pytest.raises(ParseError) as ei:
            cli.parse_quiver_file(str(p))
        assert "position" in str(ei.value)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({k: v for k, v in K21_FILE.items()
                                 if k != "stability"}))
        with pytest.raises(ValidationError):
            cli.parse_quiver_file(str(p))

    def test_unnormalized_stability(self, tmp_path):
        raw = dict(K21_FILE, stability={"i1": "1", "i2": "1", "j1": "-3"})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as ei:
            cli.parse_quiver_file(str(p))
        assert ei.value.rule == "normalization"

    def test_cycle_named_rule(self, tmp_path):
        raw = dict(K21_FILE, arrows=[{"tail": "i1", "head": "j1"},
                                     {"tail": "j1", "head": "i1"}])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as ei:
            cli.parse_quiver_file(str(p))
        assert "cycle" in ei.value.rule


class TestCommands:
    def test_trees(self, quiver_file):
        code, rep = run_json(["trees", "--quiver", quiver_file])
        assert code == 0
        assert rep["results"]["weist_count"] == "1/1"
        assert len(rep["results"]["trees"]) == 1
        assert rep["results"]["trees"][0]["stable"] is True

    def test_trees_csv(self, quiver_file):
        code, text = run(["trees", "--quiver", quiver_file, "--csv"])
        assert code == 0
        header, row = text.strip().split("\n")
        assert header.startswith("tree,arrows,components,stable")
        assert "True" in row

    def test_jk(self, quiver_file):
        code, rep = run_json(["jk", "--quiver", quiver_file,
                              "--rcharges", "seed:5"])
        assert code == 0
        assert rep["results"]["value"] == "1/1"
        assert rep["results"]["tree_expansion"]["value"] == "1/1"

    def test_jk_explicit_rcharges(self, quiver_file):
        code, rep = run_json(["jk", "--quiver", quiver_file,
                              "--rcharges", "1/3,2/5"])
        assert code == 0
        assert rep["inputs"]["rcharges"] == ["1/3", "2/5"]

    def test_jk_ab_infinity(self):
        code, rep = run_json(["jk-ab", "--l1", "1", "--l2", "1", "--d", "2;1",
                              "--zeta", "1,-2", "--infinity"])
        assert code == 0
        assert rep["results"]["value"] == "0/1"

    def test_jk_ab_at_lambda(self):
        code, rep = run_json(["jk-ab", "--l1", "1", "--l2", "1", "--d", "2;1",
                              "--zeta", "1,-2", "--lambda", "7"])
        assert code == 0
        assert rep["results"]["value"] == "0/1"

    def test_scatter_ray_filter(self):
        code, rep = run_json(["scatter", "--l1", "1", "--l2", "1",
                              "--order", "3", "--ray", "1,1"])
        assert code == 0
        walls = rep["results"]["walls"]
        assert len(walls) == 1
        assert walls[0]["function"] == "1 + 1*s1*t1*x*y"

    def test_extract_cd(self):
        code, rep = run_json(["extract-cd", "--l1", "1", "--l2", "1",
                              "--d", "2;2", "--order", "4"])
        assert code == 0
        assert rep["results"]["c_d"] == "-1/4"

    def test_verify_main_pass(self):
        code, rep = run_json(["verify-main", "--l1", "2", "--l2", "1",
                              "--d", "1,1;1", "--zeta", "1,1,-2", "--order", "4"])
        assert code == 0
        assert rep["results"]["passed"] is True
        assert rep["results"]["lhs"] == rep["results"]["rhs"] == "1/1"


class TestExitCodes:
    def test_nonregular_is_3(self):
        code, rep = run_json(["verify-main", "--l1", "2", "--l2", "2",
                              "--d", "1,1;1,1", "--zeta", "1,1,-1,-1",
                              "--order", "4"])
        assert code == 3
        assert rep["error"] == "NonRegularStability"
        assert rep["witness"]

    def test_input_error_is_2(self):
        code, rep = run_json(["jk-ab", "--l1", "1", "--l2", "1", "--d", "2;1",
                              "--zeta", "1,-3", "--infinity"])
        assert code == 2

    def test_bad_flag_is_2(self):
        code, _text = run(["verify-main", "--l1", "2"])
        assert code == 2

    def test_missing_file_is_2(self):
        code, rep = run_json(["trees", "--quiver", "/nonexistent.json"])
        assert code == 2

    def test_verification_failure_is_1(self, monkeypatch):
        from jkscatter.scattering import VerificationResult
        from fractions import Fraction as Q
        monkeypatch.setattr(
            cli, "verify_main_theorem",
            lambda *a, **k: VerificationResult(False, Q(1), Q(2), 0))
        code, rep = run_json(["verify-main", "--l1", "1", "--l2", "1",
                              "--d", "1;1", "--zeta", "1,-1", "--order", "2"])
        assert code == 1
        assert rep["results"]["passed"] is False


    def test_nonregular_over_cutoff_is_2(self):
        code, rep = run_json(["verify-main", "--l1", "2", "--l2", "2",
                              "--d", "1,1;1,1", "--zeta", "1,1,-1,-1",
                              "--order", "3"])
        assert code == 2
        assert rep["error"] == "CutoffTooSmall"


# sha256 of stdout, frozen from the reports of the full-cutoff completion
GOLDEN_REPORTS = [
    (["scatter", "--l1", "2", "--l2", "2", "--order", "5"],
     "c6d235579044cd25d46b43157a12af600c8649b418963582c43be16db84488b6"),
    (["scatter", "--l1", "3", "--l2", "2", "--order", "4"],
     "d1cb3d38a9e585dd959bc43bee0aff40c17680c1de0b71547a0052b6877853b8"),
    (["scatter", "--l1", "1", "--l2", "1", "--order", "8", "--csv"],
     "c7162e0e05cb27b9845febb55717f937fe11f3e62bedbc435b0dfb9190eb769a"),
    (["extract-cd", "--l1", "1", "--l2", "1", "--d", "3;3", "--order", "6"],
     "9d467c0cded8367eecb61729380c6ac3964649a91017a71a95e34695d5d3f9a4"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_REPORTS])
def test_golden_report(argv, digest):
    code, text = run(argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDeterminism:
    def test_reports_byte_identical(self):
        argv = ["jk", "--l1", "2", "--l2", "1", "--d", "1,1;1",
                "--zeta", "1,1,-2", "--rcharges", "seed:9"]
        assert run(argv) == run(argv)

    def test_scatter_byte_identical(self):
        argv = ["scatter", "--l1", "2", "--l2", "2", "--order", "4"]
        assert run(argv) == run(argv)
