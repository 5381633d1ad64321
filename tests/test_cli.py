"""Tests for the command-line surface: parsing, reports, exit codes."""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jkscatter import arrangement, cli, quiver, quiverjk, scattering
from jkscatter.errors import NonRegularStability, ParseError, UnknownVertex, ValidationError


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

    @pytest.mark.parametrize("body", [
        dict(K21_FILE, dimension=[1, 1, 1]),
        dict(K21_FILE, stability=[1, 1, -2]),
        dict(K21_FILE, dimension={"i1": None, "i2": 1, "j1": 1}),
        dict(K21_FILE, vertices=[["i1"], "i2", "j1"]),
        dict(K21_FILE, arrows=[{"tail": ["i1"], "head": "j1"},
                               {"tail": "i2", "head": "j1"}]),
        dict(K21_FILE, vertices="i1"),
        dict(K21_FILE, dimension={"i1": 1.7, "i2": 1, "j1": 1}),
        dict(K21_FILE, dimension={"i1": True, "i2": 1, "j1": 1}),
        5,
    ])
    def test_malformed_shape_is_schema_error(self, tmp_path, body):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(body))
        with pytest.raises(ValidationError) as ei:
            cli.parse_quiver_file(str(p))
        assert ei.value.rule == "schema"
        code, rep = run_json(["trees", "--quiver", str(p)])
        assert code == 2
        assert rep["error"] == "ValidationError"
        assert rep["message"].startswith("schema: ")

    def test_cycle_named_rule(self, tmp_path):
        raw = dict(K21_FILE, arrows=[{"tail": "i1", "head": "j1"},
                                     {"tail": "j1", "head": "i1"}])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as ei:
            cli.parse_quiver_file(str(p))
        assert "cycle" in ei.value.rule

    def test_repeated_vertex_ids_named(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(K21_FILE, vertices=["i1", "i1", "j1"])))
        with pytest.raises(ValidationError) as ei:
            cli.parse_quiver_file(str(p))
        assert ei.value.rule == "duplicatevertex"
        code, rep = run_json(["trees", "--quiver", str(p)])
        assert code == 2
        assert rep["error"] == "ValidationError"
        assert rep["message"] == "duplicatevertex: repeated vertex ids ['i1']"


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

    @pytest.fixture
    def samples(self, monkeypatch):
        """Every sample_rcharges call, made from arrangement or from cli."""
        seen = []
        real = arrangement.sample_rcharges
        for module in (arrangement, cli):
            monkeypatch.setattr(module, "sample_rcharges",
                                lambda *a: seen.append(a) or real(*a))
        return seen

    def test_structural_degeneracy_is_2_at_once(self, monkeypatch, samples):
        # a non-abelian d whose weights meet more than n at a time for every
        # R-charge: the one sample stops at the first repeated point, far
        # short of the C(18, 6) combinations of its 18 planes in 6 unknowns
        meets = []
        real_meet = arrangement.meet
        monkeypatch.setattr(arrangement, "meet",
                            lambda *a: meets.append(a) or real_meet(*a))
        code, rep = run_json(["jk", "--l1", "2", "--l2", "2", "--d", "2,2;1,2",
                              "--zeta", "3,3,-4,-4"])
        assert code == 2 and rep["error"] == "DegenerateRCharges"
        assert len(samples) == 1
        assert len(meets) < math.comb(18, 6) // 100
        assert rep["message"].startswith("more than 6 hyperplanes meet at (")
        assert "Fraction(" not in rep["message"]

    @pytest.mark.parametrize("l1, l2, d, zeta", [
        (2, 1, "2,1;2", "1,1,-3/2"),
        (1, 1, "3;2", "2,-3"),
        (3, 1, "1,1,1;2", "2,2,2,-3"),
        (2, 2, "2,1;1,1", "1,1,-3/2,-3/2"),
        (3, 3, "2,2,2;2,2,2", "1,1,1,-1,-1,-1"),
    ])
    def test_nonabelian_probes_are_degenerate(self, samples, l1, l2, d, zeta):
        # the direct route on these non-abelian d: more than n planes meet
        # for every R-charge, so one sample is all it takes to say so.  The
        # bases of a non-abelian d are not counted: K(3,3) at d = 2 has
        # 1,296,000,000 and still stops at its first degeneracy
        code, rep = run_json(["jk", "--l1", str(l1), "--l2", str(l2), "--d", d,
                              "--zeta", zeta])
        assert code == 2 and rep["error"] == "DegenerateRCharges"
        assert len(samples) == 1

    @pytest.mark.parametrize("spec", ["1/2", "", "seed:", "seed:x", "7"])
    def test_jk_ab_rcharges_take_only_a_seed(self, spec):
        code, rep = run_json(["jk-ab", "--l1", "1", "--l2", "1", "--d", "2;1",
                              "--zeta", "1,-2", "--rcharges", spec])
        assert code == 2
        assert rep["error"] == "ParseError" and "seed:N" in rep["message"]

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

    TOO_MANY_TERMS = ("abelianization needs at least 10143 terms (the product of the "
                      "partition counts p(d_v)), over the bound 10000")

    @pytest.mark.parametrize("extra", [[], ["--infinity"]])
    def test_too_many_abelianization_terms_is_2(self, extra):
        # p(1500) terms: refused before the multiplicity vectors are listed
        code, rep = run_json(["jk-ab", "--l1", "1", "--l2", "1", "--d", "1500;1",
                              "--zeta", "1,-1500", *extra])
        assert (code, rep["error"], rep["message"]) == (2, "TooManyTerms",
                                                        self.TOO_MANY_TERMS)

    def test_huge_dimension_in_file_is_2(self, tmp_path):
        # p is increasing, so p(10^30) is never computed
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(dict(K21_FILE, dimension={"i1": 10**30, "j1": 1},
                                     stability={"i1": "1", "j1": str(-10**30)})))
        code, rep = run_json(["jk-ab", "--quiver", str(p), "--infinity"])
        assert (code, rep["error"], rep["message"]) == (2, "TooManyTerms",
                                                        self.TOO_MANY_TERMS)

    PLANES = ("the arrangement needs {} hyperplanes in {} coordinates (d_t*d_h weights "
              "per arrow, d_v*(d_v-1) roots per vertex), over the bound {}")

    def test_jk_too_many_planes_is_2(self, monkeypatch):
        # 1500 weights and 1500 * 1499 roots, refused before any coordinate
        # is named: building them takes minutes
        def no_coordinate(*_args):
            raise AssertionError("a coordinate was built")

        monkeypatch.setattr(arrangement, "coord_name", no_coordinate)
        code, rep = run_json(["jk", "--l1", "1", "--l2", "1", "--d", "1500;1",
                              "--zeta", "1,-1500"])
        assert (code, rep["error"], rep["message"]) == (
            2, "TooManyPlanes", self.PLANES.format(2250000, 1500, 100000))

    def test_jk_huge_dimension_in_file_is_2(self, tmp_path):
        # 10^60 planes in 10^30 coordinates: building them exhausts memory
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(dict(K21_FILE, dimension={"i1": 10**30, "j1": 1},
                                     stability={"i1": "1", "j1": str(-10**30)})))
        code, rep = run_json(["jk", "--quiver", str(p)])
        assert (code, rep["error"], rep["message"]) == (
            2, "TooManyPlanes", self.PLANES.format(10**60, 10**30, 100000))

    def test_plane_bound_is_exact(self, monkeypatch):
        # K(2,1) d=(1,1;1): 2 weights, no roots, 2 coordinates
        argv = ["jk", "--l1", "2", "--l2", "1", "--d", "1,1;1", "--zeta", "1,1,-2"]
        monkeypatch.setattr(arrangement, "MAX_ARRANGEMENT_PLANES", 2)
        code, rep = run_json(argv)
        assert (code, rep["results"]["value"]) == (0, "1/1")
        monkeypatch.setattr(arrangement, "MAX_ARRANGEMENT_PLANES", 1)
        code, rep = run_json(argv)
        assert (code, rep["error"], rep["message"]) == (
            2, "TooManyPlanes", self.PLANES.format(2, 2, 1))

    TREES = "the walk would visit {} spanning trees (Kirchhoff's count), over the bound {}"

    @pytest.mark.parametrize("command", ["trees", "jk"])
    @pytest.mark.parametrize("size, bound", [(6, 10_000), (5, 10_000), (4, 4095)])
    def test_too_many_trees_is_2(self, monkeypatch, command, size, bound):
        # K(l,l) at d = 1 has l^(l-1) * l^(l-1) spanning trees, each a basis
        # of its arrangement; none is listed or met.  K(4,4)'s 4,096 are
        # answered at the real bound (in 1-3 s)
        def no_walk(*_args):
            raise AssertionError("a tree was walked")

        for module in (quiver, arrangement):
            monkeypatch.setattr(module, "_spanning_tree_indices", no_walk)
        monkeypatch.setattr(quiver, "MAX_SPANNING_TREES", bound)
        zeta = ",".join(map(str, [*range(1, size + 1), *range(-1, -size - 1, -1)]))
        code, rep = run_json([command, "--l1", str(size), "--l2", str(size),
                              "--d", ",".join("1" * (2 * size)), "--zeta", zeta])
        assert (code, rep["error"], rep["message"]) == (
            2, "TooManyTrees", self.TREES.format(size ** (2 * size - 2), bound))

    @pytest.mark.parametrize("command", ["trees", "jk"])
    def test_tree_bound_is_exact(self, monkeypatch, command):
        # K(2,3) at d = 1: 2 * 2 * 3 = 12 spanning trees, counted since the
        # 6 arrows hold C(6, 4) = 15 sets of a tree's size
        argv = [command, "--l1", "2", "--l2", "3", "--d", "1,1;1,1,1", "--zeta", "3,3,-2,-2,-2"]
        monkeypatch.setattr(quiver, "MAX_SPANNING_TREES", 12)
        code, rep = run_json(argv)
        assert code == 0
        monkeypatch.setattr(quiver, "MAX_SPANNING_TREES", 11)
        code, rep = run_json(argv)
        assert (code, rep["error"], rep["message"]) == (
            2, "TooManyTrees", self.TREES.format(12, 11))

    def test_jk_ab_oversized_term_is_2(self):
        # K(1,1) d=(5;4): its 35 terms have 115,774 spanning trees in all
        # (term 29 alone has 16,000), refused before any term's arrangement
        # is built
        code, rep = run_json(["jk-ab", "--l1", "1", "--l2", "1", "--d", "5;4",
                              "--zeta", "4,-5"])
        assert (code, rep["error"], rep["message"]) == (
            2, "TooManyTrees", self.TREES.format(115774, 10000))

    def test_wall_witness_past_the_scan_bound_is_3(self):
        # the all-ones term of K(6,6) lies on one wall, theta({i1, j1}) = 0:
        # a scan of its 6^5 * 6^5 trees to the first witness is priced over
        # MAX_WEIST_STEPS, so the witness tree is built on the wall at once
        k66 = quiver.bipartite_quiver(6, 6)
        zeta = ["1", "1037/8", "1148/9", "1333/10", "1592/11", "1925/12", "-1", "-553/13",
                "-308/5", "-1931/17", "-3892/19", "-4540380983/16628040"]
        code, rep = run_json(["jk-ab", "--l1", "6", "--l2", "6", "--d", ",".join("1" * 12),
                              "--zeta", ",".join(zeta), "--infinity"])
        assert (code, rep["error"]) == (3, "NonRegularStability")
        d = quiver.DimVector.make(k66, dict.fromkeys(k66.vertices, 1))
        theta = quiver.Stability.make(k66, dict(zip(k66.vertices, map(Fraction, zeta))))
        (term,) = quiver.abelianize(k66, d, theta)
        qbar, _mult = quiver.reduced_quiver(term.quiver)
        tree = tuple(rep["witness"]["tree"])
        # a spanning tree: 11 arrows that reach all 12 vertices
        assert quiver._tree_walk(qbar.vertices, [qbar.arrows[i] for i in tree], qbar.vertices[0])
        with pytest.raises(NonRegularStability) as ei:
            quiver.tree_components(qbar, quiver.SpanningTree(tree), term.stability)
        assert ei.value.witness == {"tree": tree, "arrow": ("i1@1,1", "j2@1,1")}
        assert rep["witness"] == {"tree": [0, 1, 7, 8, 9, 10, 11, 13, 19, 25, 31],
                                  "arrow": ["i1@1,1", "j2@1,1"]}

    def test_too_much_work_is_2(self):
        # K(8,8) at d = 1 with a distinct zeta per vertex: one 16-vertex term
        # with no twins, 16 * 3^16 DP steps
        code, rep = run_json(["jk-ab", "--l1", "8", "--l2", "8", "--d", ",".join("1" * 16),
                              "--zeta", "1,2,3,4,5,6,7,8,-1,-2,-3,-4,-5,-6,-7,-8",
                              "--infinity"])
        assert (code, rep["error"], rep["message"]) == (
            2, "TooMuchWork",
            "counting stable trees needs about 688747536 steps, over the bound 200000000")

    @pytest.mark.parametrize("l1, l2, order, estimate", [
        # C(5000002, 2) * 5000002 is over the bound at its first factor;
        # C(200002, 1) * 200002 is exact.  Each ran until killed, unpriced
        ("1", "1", "5000000", 5000002 * 5000001),
        ("200000", "1", "1", 200002 * 200002),
    ], ids=["order-5000000", "l1-200000"])
    def test_scatter_over_its_work_bound_is_2(self, monkeypatch, l1, l2, order, estimate):
        def no_scatter(*_args):
            raise AssertionError("a diagram was built")
        monkeypatch.setattr(cli, "init_bipartite", no_scatter)
        monkeypatch.setattr(cli, "scatter", no_scatter)
        code, rep = run_json(["scatter", "--l1", l1, "--l2", l2, "--order", order])
        assert (code, rep["error"]) == (2, "TooMuchWork")
        assert rep["message"] == (
            f"a full scattering diagram of K({l1}, {l2}) at order {order} needs at least "
            f"{estimate} steps (C(N + P, P) monomials times N + P, P = l1 + l2), "
            "over the bound 300000")

    def test_box_scatter_over_its_work_bound_is_2(self, monkeypatch):
        # prod(b_i + 1) = 5^6 box monomials times |d| + l1 + l2 = 30; it ran
        # until killed, unpriced
        monkeypatch.setattr(scattering, "scatter", lambda *_a: pytest.fail("a diagram was built"))
        code, rep = run_json(["extract-cd", "--l1", "3", "--l2", "3", "--d", "4,4,4;4,4,4",
                              "--order", "24"])
        assert (code, rep["error"]) == (2, "TooMuchWork")
        assert rep["message"] == (
            "the box scattering diagram of K(3, 3) for d = (4,4,4;4,4,4) needs 468750 steps "
            "(prod(b_i + 1) box monomials times N + P, N = |d|, P = l1 + l2), "
            "over the bound 300000")

    def test_scatter_work_bound_is_exact(self, monkeypatch):
        # K(1,1) at order 3: C(5, 2) * 5 = 50
        argv = ["scatter", "--l1", "1", "--l2", "1", "--order", "3"]
        monkeypatch.setattr(scattering, "MAX_SCATTER_WORK", 50)
        assert run_json(argv)[0] == 0
        monkeypatch.setattr(scattering, "MAX_SCATTER_WORK", 49)
        code, rep = run_json(argv)
        assert (code, rep["error"]) == (2, "TooMuchWork")
        assert "needs at least 50 steps" in rep["message"]

    def test_nonregular_over_cutoff_is_2(self):
        code, rep = run_json(["verify-main", "--l1", "2", "--l2", "2",
                              "--d", "1,1;1,1", "--zeta", "1,1,-1,-1",
                              "--order", "3"])
        assert code == 2
        assert rep["error"] == "CutoffTooSmall"


class TestBipartiteInputChecks:
    """K(l1, l2) sizes below 1 and --d entries that are not non-negative
    integers exit 2 with a ParseError that names the flag or the entry."""

    @pytest.mark.parametrize("argv, flag", [
        (["trees", "--l1=-1", "--l2=2", "--d=1", "--zeta=0"], "--l1 -1"),
        (["jk", "--l1=0", "--l2=2", "--d=1,0", "--zeta=0,0"], "--l1 0"),
        (["jk-ab", "--l1=1", "--l2=0", "--d=1", "--zeta=0", "--infinity"], "--l2 0"),
        (["extract-cd", "--l1=2", "--l2=-1", "--d=1,1", "--order=2"], "--l2 -1"),
    ])
    def test_size_below_one(self, argv, flag):
        code, rep = run_json(argv)
        assert code == 2
        assert rep["error"] == "ParseError"
        assert rep["message"] == f"{flag}: K(l1, l2) needs l1, l2 >= 1"

    @pytest.mark.parametrize("argv, entry", [
        (["verify-main", "--l1", "2", "--l2", "1", "--d", "x,1;1", "--zeta", "1,1,-2",
          "--order", "4"], "x"),
        (["trees", "--l1", "1", "--l2", "1", "--d=-1;1", "--zeta", "1,-1"], "-1"),
        (["jk-ab", "--l1", "1", "--l2", "1", "--d", "1.5;1", "--zeta", "1,-1"], "1.5"),
    ])
    def test_bad_d_entry(self, argv, entry):
        code, rep = run_json(argv)
        assert code == 2
        assert rep["error"] == "ParseError"
        assert rep["message"] == f"--d entry {entry!r}: expected a non-negative integer"

    def test_negative_dimension_in_file_is_schema_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(K21_FILE, dimension={"i1": -1, "i2": 1, "j1": 1})))
        with pytest.raises(ValidationError) as ei:
            cli.parse_quiver_file(str(p))
        assert ei.value.rule == "schema"
        code, rep = run_json(["jk", "--quiver", str(p)])
        assert code == 2
        assert rep["error"] == "ValidationError"
        assert rep["message"] == "schema: negative dimension at ['i1']"


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


# -- the CLI contract over argv -------------------------------------------------

ARGV_TOKENS = {
    "--d": ["1", "2", "1;1", "2;1", "1;2", "2;2", "1,1;1", "1,0;1", "2,1;1",
            "1,1;1,1", "1,1,1,1", "0;0", "1,1", "x,1;1", "-1;1", "1;;1", "",
            ";", "1.5;1", "+1;1"],
    "--zeta": ["1,-1", "-1,1", "1,-2", "2,-1", "1,1,-2", "2,-1,-1", "1,1,-3/2",
               "1,1,-1,-1", "3,1,-2,-2", "0,0", "1/2,-1/2", "x,1", "1/0,1", ""],
    "--lambda": ["1", "7", "1000", "1/2", "-1", "0", "x", "1/0", ""],
    "--rcharges": ["seed:0", "seed:7", "seed:-1", "seed:", "seed:x", "1/3",
                   "1/3,2/5", "1/3,2/5,3/7", "0,0", "x", ""],
    "--ray": ["1,1", "1,0", "0,1", "2,1", "-1,1", "0,0", "2,2", "1", "x", ""],
}
ARGV_VALUES = {
    "--l1": st.integers(-1, 2).map(str),
    "--l2": st.integers(-1, 2).map(str),
    "--order": st.integers(-1, 3).map(str),
    **{opt: st.sampled_from(tokens) for opt, tokens in ARGV_TOKENS.items()},
}
ARGV_FLAGS = ("--csv", "--infinity")
BARE_ERRORS = {"ValueError", "TypeError", "KeyError", "IndexError",
               "ZeroDivisionError"}
CSV_HEADERS = {"tree,arrows,components,stable,multiplicity",
               "tree,arrows,lift,stable,contribution", "direction,support,function"}


@st.composite
def cli_argv(draw):
    """A subcommand and --opt=value pairs from its options (no quiver file);
    a few options are left out, so required ones are sometimes missing."""
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    command = draw(st.sampled_from(sorted(sub.choices)))
    options = sorted(opt for act in sub.choices[command]._actions
                     for opt in act.option_strings
                     if opt not in ("-h", "--help", "--quiver"))
    left_out = draw(st.sets(st.sampled_from(options), max_size=2))
    argv = [command]
    for opt in options:
        if opt in left_out:
            continue
        if opt in ARGV_FLAGS:
            argv += [opt] if draw(st.booleans()) else []
        else:
            argv.append(f"{opt}={draw(ARGV_VALUES[opt])}")
    return argv


class TestArgvContract:
    """Every request ends in exit 0-3 with one JSON report, a CSV table or,
    for an argparse usage error, nothing on stdout; no report names a bare
    Python exception."""

    @given(cli_argv())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_one_report(self, argv):
        code, text = run(argv)
        assert code in (0, 1, 2, 3)
        assert code != 1 or argv[0] == "verify-main"
        if text == "":
            assert code == 2  # argparse wrote its usage error to stderr
            return
        if code == 0 and "--csv" in argv and not text.startswith("{"):
            assert text.splitlines()[0] in CSV_HEADERS
            return
        report = json.loads(text)
        assert isinstance(report, dict)
        assert ("error" in report) == (code in (2, 3))
        assert report.get("error") not in BARE_ERRORS, report


# -- the CLI contract over quiver files -------------------------------------------

FILE_VERTICES = ("a", "b", "c")
FILE_FAULTS = {
    "shape": [
        lambda raw: 5,
        lambda raw: [raw],
        lambda raw: dict(raw, vertices="a"),
        lambda raw: dict(raw, vertices=[["a"]] + raw["vertices"][1:]),
        lambda raw: dict(raw, arrows={"tail": "a", "head": "b"}),
        lambda raw: dict(raw, arrows=[{"tail": "a"}]),
        lambda raw: dict(raw, arrows=[["a", "b"]]),
        lambda raw: dict(raw, dimension=list(raw["dimension"].values())),
        lambda raw: dict(raw, stability=list(raw["stability"].values())),
        lambda raw: {k: v for k, v in raw.items() if k != "arrows"},
        lambda raw: {k: v for k, v in raw.items() if k != "stability"},
    ],
    "unknown vertex": [
        lambda raw: dict(raw, arrows=raw["arrows"] + [{"tail": "a", "head": "z"}]),
        lambda raw: dict(raw, dimension=dict(raw["dimension"], z=1)),
        lambda raw: dict(raw, stability=dict(raw["stability"], z="0")),
    ],
    "repeated vertex": [
        lambda raw: dict(raw, vertices=raw["vertices"] + raw["vertices"][:1]),
    ],
    "cycle": [
        lambda raw: dict(raw, arrows=raw["arrows"] + [{"tail": "a", "head": "a"}]),
        lambda raw: dict(raw, arrows=raw["arrows"] + [
            {"tail": a["head"], "head": a["tail"]} for a in raw["arrows"][:1]]),
    ],
    "dimension": [
        lambda raw, x=x: dict(raw, dimension=dict(raw["dimension"], a=x))
        for x in (1.5, "1", True, None, -1, [1])
    ],
    "stability": [
        lambda raw, x=x: dict(raw, stability=dict(raw["stability"], a=x))
        for x in ("x", "1/0", 1.5, None, [1], "7", "", "1/3")
    ],
}


@st.composite
def quiver_files(draw):
    """The text of a JSON quiver file: a small valid quiver (at most three
    vertices and arrows, |d| <= 4, normalized stability), often with one
    fault, or text that is not JSON at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(["", "{", "[1,", "nul", '{"vertices": }']))
    vertices = list(FILE_VERTICES[:draw(st.integers(1, 3))])
    pairs = [(t, h) for t in vertices for h in vertices if t < h]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    dims = {v: draw(st.integers(0, 2)) for v in vertices}
    assume(sum(dims.values()) <= 4)
    theta = {v: Fraction(draw(st.integers(-3, 3))) for v in vertices}
    support = [v for v in vertices if dims[v]]
    if support:  # sum d_v theta_v = 0
        w = draw(st.sampled_from(support))
        theta[w] = -sum((dims[v] * theta[v] for v in vertices if v != w),
                       Fraction(0)) / dims[w]
    raw = {"vertices": vertices,
           "arrows": [{"tail": t, "head": h} for t, h in arrows],
           "dimension": dims,
           "stability": {v: str(x) for v, x in theta.items()}}
    fault = draw(st.sampled_from([None, None, *sorted(FILE_FAULTS)]))
    if fault is not None:
        raw = draw(st.sampled_from(FILE_FAULTS[fault]))(raw)
    return json.dumps(raw)


class TestQuiverFileContract:
    """Every quiver file, valid or not, ends in exit 0, 2 or 3 with exactly
    one JSON report; an error report exactly on exits 2 and 3, and never a
    bare Python exception as the error."""

    @given(quiver_files(),
           st.sampled_from([["trees"], ["jk"], ["jk-ab"], ["jk-ab", "--infinity"]]))
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_one_report(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "q.json"
            path.write_text(text)
            code, out = run([*command, "--quiver", str(path)])
        assert code in (0, 2, 3)
        report = json.loads(out)
        assert isinstance(report, dict)
        assert ("error" in report) == (code in (2, 3))
        assert report.get("error") not in BARE_ERRORS, report
