"""Tests for the command-line surface: parsing, reports, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jkscatter import arrangement, cli, quiver, quiverjk
from jkscatter.errors import ParseError, UnknownVertex, ValidationError


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

    @pytest.mark.parametrize("field", ["dimension", "stability"])
    def test_unknown_key(self, tmp_path, field):
        raw = dict(K21_FILE)
        raw[field] = dict(raw[field], zz=4)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(UnknownVertex):
            cli.parse_quiver_file(str(p))
        code, rep = run_json(["trees", "--quiver", str(p)])
        assert code == 2
        assert rep["error"] == "UnknownVertex"
        assert rep["message"] == f"{field} keys ['zz'] are not vertices"

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

    def test_structural_degeneracy_is_2_at_once(self, monkeypatch):
        # a non-abelian d whose weights meet more than n at a time for every
        # R-charge: each resample stops at the first repeated point, far
        # short of the C(18, 6) combinations of its 18 planes in 6 unknowns
        meets, samples = [], []
        real_meet, real_sample = arrangement.meet, arrangement.sample_rcharges
        monkeypatch.setattr(arrangement, "meet",
                            lambda *a: meets.append(a) or real_meet(*a))
        monkeypatch.setattr(arrangement, "sample_rcharges",
                            lambda *a: samples.append(a) or real_sample(*a))
        code, rep = run_json(["jk", "--l1", "2", "--l2", "2", "--d", "2,2;1,2",
                              "--zeta", "3,3,-4,-4"])
        assert code == 2 and rep["error"] == "DegenerateRCharges"
        assert len(samples) == arrangement.MAX_RESAMPLES
        assert len(meets) < len(samples) * math.comb(18, 6) // 100

    def test_jk_ab_csv_is_unknown(self):
        # jk-ab reports one value as JSON; it has no table to print
        code, text = run(["jk-ab", "--l1", "1", "--l2", "1", "--d", "2;1",
                          "--zeta", "1,-2", "--infinity", "--csv"])
        assert code == 2 and text == ""

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


    def test_extract_cd_rejects_d_before_scatter(self, monkeypatch):
        def no_scatter(_d0):
            raise AssertionError("scatter ran for a rejected d")
        monkeypatch.setattr(cli, "scatter", no_scatter)
        code, rep = run_json(["extract-cd", "--l1", "2", "--l2", "2",
                              "--d", "3,3;3,3", "--order", "6"])
        assert code == 2
        assert rep["error"] == "CutoffTooSmall"

    @pytest.mark.parametrize("ray", ["0,0", "2,2", "1", "1,x"])
    def test_bad_ray_is_2_before_scatter(self, monkeypatch, ray):
        def no_scatter(_d0):
            raise AssertionError("scatter ran for a rejected --ray")
        monkeypatch.setattr(cli, "scatter", no_scatter)
        code, rep = run_json(["scatter", "--l1", "1", "--l2", "1",
                              "--order", "3", "--ray", ray])
        assert code == 2
        assert rep["error"] == "ParseError"
        assert rep["message"].startswith(f"--ray {ray!r}: ")

    # a zero in d: the tree route walks the quiver on the support of d only
    @pytest.mark.parametrize("l1, l2, d, zeta, value", [
        ("3", "1", "1,0,0;1", "1,2,-2,-1", "1/1"),
        ("2", "1", "1,0;1", "1,1,-1", "1/1"),
        ("2", "1", "1,0;1", "1,0,-1", "1/1"),
        ("2", "2", "1,1;0,0", "1,-1,0,0", "0/1"),  # disconnected support
    ])
    def test_jk_zero_in_d(self, l1, l2, d, zeta, value):
        code, rep = run_json(["jk", "--l1", l1, "--l2", l2, "--d", d, "--zeta", zeta])
        assert code == 0
        res = rep["results"]
        assert res["value"] == res["tree_expansion"]["value"] == value
        assert (value == "0/1") == (res["tree_expansion"]["terms"] == [])

    # trees and jk-ab --infinity read the quiver on the support of d too
    @pytest.mark.parametrize("zeta", ["1,0,-1", "1,5,-1"])
    def test_trees_zero_in_d(self, zeta):
        argv = ["--l1", "2", "--l2", "1", "--d", "1,0;1", "--zeta", zeta]
        code, rep = run_json(["trees", *argv])
        assert code == 0
        assert rep["results"]["trees"] == [{
            "tree": 0, "arrows": [["i1", "j1"]], "components": ["-1/1"],
            "stable": True, "multiplicity": 1}]
        assert rep["results"]["weist_count"] == "1/1"
        code, rep = run_json(["jk-ab", *argv, "--infinity"])
        assert (code, rep["results"]["value"]) == (0, "1/1")

    def test_disconnected_support_counts_zero(self):
        argv = ["--l1", "2", "--l2", "1", "--d", "1,1;0", "--zeta", "1,-1,0"]
        code, rep = run_json(["jk-ab", *argv, "--infinity"])
        assert (code, rep["results"]["value"]) == (0, "0/1")
        code, rep = run_json(["trees", *argv])
        assert code == 0
        assert rep["results"] == {"trees": [], "weist_count": "0/1"}
        code, rep = run_json(["jk", *argv])
        assert code == 0
        assert rep["results"]["value"] == rep["results"]["tree_expansion"]["value"] == "0/1"

    @pytest.mark.parametrize("argv", [
        ["jk", "--l1", "1", "--l2", "1", "--d", "0;0", "--zeta", "0,0"],
        ["jk-ab", "--l1", "1", "--l2", "1", "--d", "0;0", "--zeta", "0,0", "--infinity"],
        ["jk-ab", "--l1", "1", "--l2", "1", "--d", "0;0", "--zeta", "0,0"],
        ["trees", "--l1", "1", "--l2", "1", "--d", "0;0", "--zeta", "0,0"],
    ])
    def test_zero_d_is_2(self, argv):
        code, rep = run_json(argv)
        assert code == 2
        assert rep["error"] == "ValidationError"
        assert rep["message"] == "dimension: d is zero at every vertex"

    def test_zero_d_file_is_2(self, tmp_path):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(dict(K21_FILE, dimension={})))
        code, rep = run_json(["jk", "--quiver", str(p)])
        assert (code, rep["error"]) == (2, "ValidationError")

    def test_nonregular_over_cutoff_is_2(self):
        code, rep = run_json(["verify-main", "--l1", "2", "--l2", "2",
                              "--d", "1,1;1,1", "--zeta", "1,1,-1,-1",
                              "--order", "3"])
        assert code == 2
        assert rep["error"] == "CutoffTooSmall"


class ClosedOut(io.StringIO):
    """An output whose reader has gone: every write fails."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["scatter", "--l1", "1", "--l2", "1", "--order", "3"],
        ["jk", "--l1", "2", "--l2", "2", "--d", "1,1;1,1", "--zeta", "1,1,-1,-1"],
        ["trees", "--quiver", "/nonexistent.json"],
    ])
    def test_in_process(self, argv):
        out = ClosedOut()
        assert cli.main(argv, out=out) == 2
        assert out.writes == 1  # no second report after the failed one

    def test_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from jkscatter.cli import main; sys.exit(main())",
                 "jk", "--l1", "2", "--l2", "1", "--d", "1,1;1", "--zeta", "1,1,-2"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, b"")


# (argv, exit code, sha256 of stdout), frozen from the reports of the
# full-cutoff completion and of the all-subsets regularity scan; the first
# three JK requests have zeta on sum walls, which change no value, the next
# pins a wall witness, and the n = 0 request, frozen from the closed-form
# local residue, gives 1 like trees; the last five, frozen from the
# linear-solve tree coefficients and the twice-enumerated arrangements, pin
# the tree listings, the tree wall witness, a weist count and a
# lambda-scaled JK report
GOLDEN_REPORTS = [
    (["scatter", "--l1", "2", "--l2", "2", "--order", "5"], 0,
     "c6d235579044cd25d46b43157a12af600c8649b418963582c43be16db84488b6"),
    (["scatter", "--l1", "3", "--l2", "2", "--order", "4"], 0,
     "d1cb3d38a9e585dd959bc43bee0aff40c17680c1de0b71547a0052b6877853b8"),
    (["scatter", "--l1", "1", "--l2", "1", "--order", "8", "--csv"], 0,
     "c7162e0e05cb27b9845febb55717f937fe11f3e62bedbc435b0dfb9190eb769a"),
    (["extract-cd", "--l1", "1", "--l2", "1", "--d", "3;3", "--order", "6"], 0,
     "9d467c0cded8367eecb61729380c6ac3964649a91017a71a95e34695d5d3f9a4"),
    (["jk", "--l1", "2", "--l2", "2", "--d", "1,1;1,1", "--zeta", "3,1,-2,-2"], 0,
     "adc119858b2b1ba57f7c21c126bf3d406d1daa1c3a4213f4955c3e2f4ae2f4e4"),
    (["jk", "--l1", "2", "--l2", "1", "--d", "1,1;1", "--zeta", "1,1,-2"], 0,
     "5cd7bd4e405198cc2f2f04ccec2b4be6ca6501c3980bca9c10ac54bf4aa2b71e"),
    (["jk-ab", "--l1", "3", "--l2", "1", "--d", "1,1,1;2", "--zeta", "2,2,2,-3",
      "--lambda", "1000"], 0,
     "ee1045ffb7dbc9aa84eaff743609f2fdb349c8ec6d45a678aca27add392aa110"),
    (["jk", "--l1", "2", "--l2", "2", "--d", "1,1;1,1", "--zeta", "1,1,-1,-1"], 3,
     "d78bbc8a8fb14d3fdd916bd82f23b7a78787f61000972e71347a0b6f74606638"),
    (["jk", "--l1", "1", "--l2", "1", "--d", "1;0", "--zeta", "0,0"], 0,
     "eaa132f8c5cd84ba5879661e7bf3afecfb289db7c3c6c5ac4c2d66c7a4ce008d"),
    (["trees", "--l1", "2", "--l2", "2", "--d", "1,1;1,1", "--zeta", "3,1,-2,-2"], 0,
     "50126906a423d4c72478c76204d56a73c13e0bc0e74b57f0752f61c6f6a968fd"),
    (["trees", "--l1", "3", "--l2", "2", "--d", "1,1,1;1,1", "--zeta", "2,2,2,-3,-3",
      "--csv"], 0,
     "a029405a672d706a0a1831b212d21a2fcecab1829cc23d7ce44db21af9f1dc69"),
    (["trees", "--l1", "2", "--l2", "2", "--d", "1,1;1,1", "--zeta", "1,1,-1,-1"], 3,
     "2dacb2977ec278fcbe0190b7769fcd6ca5e3d96011c0c16c7008a500d1122f13"),
    (["jk-ab", "--l1", "2", "--l2", "2", "--d", "2,2;1,2", "--zeta", "3,3,-4,-4",
      "--infinity"], 0,
     "f7c23baa0a969ec6f1248a8cf577599c7d58071a5e158c4612905d41364a9859"),
    (["jk", "--l1", "2", "--l2", "2", "--d", "1,1;1,1", "--zeta", "3,1,-2,-2",
      "--lambda", "7"], 0,
     "55674cc3f335e9458203cdaf8866552c1e17e101ae879fdbbd953b804b5ef121"),
]


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN_REPORTS])
def test_golden_report(argv, exit_code, digest):
    code, text = run(argv)
    assert code == exit_code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTreeEnumerationCounts:
    """One trees request walks the spanning trees once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = quiver.spanning_trees

        def counting(qbar):
            seen.append(qbar)
            return real(qbar)

        for module in (quiver, quiverjk, cli):
            monkeypatch.setattr(module, "spanning_trees", counting)
        return seen

    @pytest.mark.parametrize("extra", [[], ["--csv"]])
    def test_one_walk_per_trees_request(self, calls, extra):
        code, _text = run(["trees", "--l1", "2", "--l2", "2", "--d", "1,1;1,1",
                           "--zeta", "3,1,-2,-2", *extra])
        assert code == 0
        assert len(calls) == 1


class TestDeterminism:
    def test_reports_byte_identical(self):
        argv = ["jk", "--l1", "2", "--l2", "1", "--d", "1,1;1",
                "--zeta", "1,1,-2", "--rcharges", "seed:9"]
        assert run(argv) == run(argv)

    def test_scatter_byte_identical(self):
        argv = ["scatter", "--l1", "2", "--l2", "2", "--order", "4"]
        assert run(argv) == run(argv)
