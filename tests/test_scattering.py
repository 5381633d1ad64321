"""Tests for the rank-2 scattering engine: crossings, loop products,
consistent completion, and coefficient extraction.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter import scattering
from jkscatter.errors import (BadCutoff, CutoffTooSmall, NonRegularStability,
                              ValidationError)
from jkscatter.quiver import DimVector, Stability, bipartite_quiver
from jkscatter.scattering import (ScatteringDiagram, Wall, cross_wall,
                                  extract_cd, init_bipartite, loop_product,
                                  scatter, verify_main_theorem)
from jkscatter.series import TruncatedSeries


def dv(q, **kw):
    return DimVector.make(q, kw)


def identity_loop(diagram):
    x, y = loop_product(diagram)
    return (x == TruncatedSeries.monomial(diagram.params, diagram.cutoff, xe=1)
            and y == TruncatedSeries.monomial(diagram.params, diagram.cutoff, ye=1))


class TestInit:
    def test_pentagon_walls(self):
        d = init_bipartite(1, 1, 3)
        assert [w.direction for w in d.walls] == [(1, 0), (0, 1)]
        assert repr(d.walls[0].function) == "1 + 1*s1*x"
        assert repr(d.walls[1].function) == "1 + 1*t1*y"

    def test_two_sources(self):
        d = init_bipartite(2, 1, 3)
        f = d.walls[0].function
        assert f.coefficient(2, 0, {"s1": 1, "s2": 1}) == 1

    def test_bad_inputs(self):
        for args in ((0, 1, 3), (1, 0, 3), (1, 1, 0)):
            with pytest.raises(BadCutoff):
                init_bipartite(*args)


class TestCrossWall:
    def wall(self):
        params = ("s1", "t1")
        f = 1 + TruncatedSeries.monomial(params, 4, xe=1, pexp={"s1": 1})
        return Wall((1, 0), "line", f), params

    def test_transverse_variable_picks_up_f(self):
        w, params = self.wall()
        y = TruncatedSeries.monomial(params, 4, ye=1)
        assert cross_wall(w, y, 1) == y * w.function

    def test_parallel_variable_fixed(self):
        w, params = self.wall()
        x = TruncatedSeries.monomial(params, 4, xe=1)
        assert cross_wall(w, x, 1) == x

    def test_cross_and_cross_back(self):
        w, params = self.wall()
        y = TruncatedSeries.monomial(params, 4, ye=1)
        assert cross_wall(w, cross_wall(w, y, 1), -1) == y

    def test_non_primitive_direction_rejected(self):
        params = ("s1",)
        with pytest.raises(Exception):
            Wall((2, 2), "ray", TruncatedSeries.const(params, 3, 1))


# random small series over (s1, t1) truncated at degree 3, and walls whose
# function is 1 + terms along multiples of the wall direction
PARAMS, CUT = ("s1", "t1"), 3
param_exps = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda p: sum(p) <= CUT)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
series = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2), param_exps),
                         coeffs, max_size=5).map(lambda t: TruncatedSeries(PARAMS, CUT, t))


@st.composite
def walls(draw):
    a, b = draw(st.sampled_from([(1, 0), (0, 1), (-1, 0), (1, 1), (2, 1), (1, -2), (-1, 3)]))
    terms = {(0, 0, (0, 0)): Q(1)}
    for k, p, c in draw(st.lists(st.tuples(st.integers(1, 2),
                                           param_exps.filter(lambda p: sum(p) >= 1), coeffs),
                                 max_size=3)):
        terms[(k * a, k * b, p)] = c
    return Wall((a, b), draw(st.sampled_from(["line", "ray"])),
                TruncatedSeries(PARAMS, CUT, terms))


def naive_cross(w, g, eps):
    """Substitute x -> x f^{-eps*b}, y -> y f^{eps*a} into g one term at a time."""
    def pw(n):
        base = w.function if n >= 0 else w.function.inverse()
        out = TruncatedSeries.const(PARAMS, CUT, 1)
        for _ in range(abs(n)):
            out = out * base
        return out

    a, b = w.direction
    out = TruncatedSeries(PARAMS, CUT)
    for (xe, ye, p), c in g.terms.items():
        term = TruncatedSeries(PARAMS, CUT, {(xe, ye, p): c})
        out = out + term * pw(-eps * b * xe) * pw(eps * a * ye)
    return out


@settings(max_examples=80, deadline=None)
@given(walls(), series, st.sampled_from([1, -1]))
def test_cross_wall_matches_per_term_substitution(w, g, eps):
    assert cross_wall(w, g, eps) == naive_cross(w, g, eps)


class TestLoopAndScatter:
    def test_initial_pentagon_is_inconsistent(self):
        d = init_bipartite(1, 1, 3)
        assert not identity_loop(d)

    def test_scatter_restores_consistency(self):
        d = scatter(init_bipartite(1, 1, 4))
        assert identity_loop(d)

    def test_pentagon_single_exact_ray(self):
        for cutoff in (2, 5, 8):
            d = scatter(init_bipartite(1, 1, cutoff))
            rays = [w for w in d.walls if w.support == "ray"]
            assert [w.direction for w in rays] == [(1, 1)]
            expected = 1 + TruncatedSeries.monomial(
                d.params, cutoff, xe=1, ye=1, pexp={"s1": 1, "t1": 1})
            assert rays[0].function == expected

    def test_21_rays(self):
        d = scatter(init_bipartite(2, 1, 3))
        rays = {w.direction: w.function for w in d.walls if w.support == "ray"}
        assert set(rays) == {(1, 1), (2, 1)}
        assert rays[(2, 1)] == 1 + TruncatedSeries.monomial(
            d.params, 3, xe=2, ye=1, pexp={"s1": 1, "s2": 1, "t1": 1})
        xy = lambda i: TruncatedSeries.monomial(
            d.params, 3, xe=1, ye=1, pexp={f"s{i}": 1, "t1": 1})
        assert rays[(1, 1)] == (1 + xy(1)) * (1 + xy(2))

    def test_consistency_small_grid(self):
        for l1, l2, k in ((1, 2, 3), (2, 2, 3), (3, 1, 3), (2, 3, 3)):
            assert identity_loop(scatter(init_bipartite(l1, l2, k)))

    def test_one_truncated_loop_product_per_degree(self, monkeypatch):
        cutoffs = []
        real = scattering.loop_product

        def counting(d):
            cutoffs.append(d.cutoff)
            return real(d)

        monkeypatch.setattr(scattering, "loop_product", counting)
        scatter(init_bipartite(2, 2, 5))
        assert cutoffs == [1, 2, 3, 4, 5, 5]

    def perturbed_loop(self, monkeypatch, call, pexp):
        """Make the call-th loop product add s^pexp x^2 y to the image of x."""
        calls = []
        real = scattering.loop_product

        def perturbed(d):
            calls.append(d.cutoff)
            x, y = real(d)
            if len(calls) == call:
                x = x + TruncatedSeries.monomial(d.params, d.cutoff, xe=2, ye=1, pexp=pexp)
            return x, y

        monkeypatch.setattr(scattering, "loop_product", perturbed)

    def test_defect_below_round_degree_raises(self, monkeypatch):
        self.perturbed_loop(monkeypatch, 2, {"s1": 1})
        with pytest.raises(ValidationError, match="below degree 2"):
            scatter(init_bipartite(1, 1, 4))

    def test_nontrivial_final_loop_raises(self, monkeypatch):
        self.perturbed_loop(monkeypatch, 5, {"s1": 2, "t1": 2})
        with pytest.raises(ValidationError, match="not the identity"):
            scatter(init_bipartite(1, 1, 4))

    def test_idempotent(self):
        d = scatter(init_bipartite(2, 1, 3))
        d2 = scatter(d)
        assert [(w.direction, w.support, w.function.sorted_terms())
                for w in d.walls] == \
            [(w.direction, w.support, w.function.sorted_terms()) for w in d2.walls]

    def test_input_diagram_unchanged(self):
        d0 = init_bipartite(2, 1, 3)
        d0.walls.append(Wall((1, 1), "ray", 1 + TruncatedSeries.monomial(
            d0.params, 3, xe=1, ye=1, pexp={"s1": 1, "t1": 1})))
        before = [repr(w) for w in d0.walls]
        scatter(d0)
        assert [repr(w) for w in d0.walls] == before

    def test_rays_strictly_inside_first_quadrant(self):
        d = scatter(init_bipartite(3, 2, 4))
        for w in d.walls:
            if w.support == "ray":
                assert w.direction[0] >= 1 and w.direction[1] >= 1

    def test_cutoff_coherence(self):
        k11 = bipartite_quiver(1, 1)
        d3 = scatter(init_bipartite(2, 2, 3))
        d4 = scatter(init_bipartite(2, 2, 4))
        k22 = bipartite_quiver(2, 2)
        dim = dv(k22, i1=1, i2=1, j1=1, j2=0)
        assert extract_cd(d3, dim) == extract_cd(d4, dim)


class TestExtractCd:
    def test_pentagon_values(self):
        d = scatter(init_bipartite(1, 1, 4))
        k11 = bipartite_quiver(1, 1)
        assert extract_cd(d, dv(k11, i1=1, j1=1)) == 1
        assert extract_cd(d, dv(k11, i1=2, j1=2)) == Q(-1, 4)

    def test_21_value(self):
        d = scatter(init_bipartite(2, 1, 3))
        k21 = bipartite_quiver(2, 1)
        assert extract_cd(d, dv(k21, i1=1, i2=1, j1=1)) == 1

    def test_missing_ray_is_zero(self):
        d = scatter(init_bipartite(1, 1, 4))
        k11 = bipartite_quiver(1, 1)
        assert extract_cd(d, dv(k11, i1=3, j1=1)) == 0

    def test_cutoff_too_small(self):
        d = scatter(init_bipartite(1, 1, 3))
        k11 = bipartite_quiver(1, 1)
        with pytest.raises(CutoffTooSmall):
            extract_cd(d, dv(k11, i1=2, j1=2))


class TestParameterSymmetry:
    def test_swapping_sources_permutes_coefficients(self):
        d = scatter(init_bipartite(2, 1, 3))
        k21 = bipartite_quiver(2, 1)
        assert extract_cd(d, dv(k21, i1=1, i2=0, j1=1)) == \
            extract_cd(d, dv(k21, i1=0, i2=1, j1=1))


class TestVerifyMain:
    def test_k21(self):
        k21 = bipartite_quiver(2, 1)
        r = verify_main_theorem(
            2, 1, dv(k21, i1=1, i2=1, j1=1),
            Stability.make(k21, {"i1": Q(1), "i2": Q(1), "j1": Q(-2)}), 4)
        assert r.passed and r.lhs == r.rhs == 1 and r.moduli_dim == 0

    def test_k11(self):
        k11 = bipartite_quiver(1, 1)
        r = verify_main_theorem(
            1, 1, dv(k11, i1=1, j1=1),
            Stability.make(k11, {"i1": Q(1), "j1": Q(-1)}), 2)
        assert r.passed and r.lhs == 1

    def test_k22_symmetric_stability_is_nonregular(self):
        k22 = bipartite_quiver(2, 2)
        with pytest.raises(NonRegularStability) as ei:
            verify_main_theorem(
                2, 2, dv(k22, i1=1, i2=1, j1=1, j2=1),
                Stability.make(k22, {"i1": Q(1), "i2": Q(1),
                                     "j1": Q(-1), "j2": Q(-1)}), 4)
        assert ei.value.witness is not None

    def test_rejected_inputs_never_scatter(self, monkeypatch):
        def no_scatter(d0):
            raise AssertionError("scatter ran")

        monkeypatch.setattr(scattering, "scatter", no_scatter)
        k22 = bipartite_quiver(2, 2)
        dim = dv(k22, i1=1, i2=1, j1=1, j2=1)
        zeta = Stability.make(k22, {"i1": Q(1), "i2": Q(1), "j1": Q(-1), "j2": Q(-1)})
        with pytest.raises(NonRegularStability):
            verify_main_theorem(2, 2, dim, zeta, 4)
        with pytest.raises(CutoffTooSmall):
            verify_main_theorem(2, 2, dim, zeta, 3)
        with pytest.raises(BadCutoff):
            verify_main_theorem(2, 2, dim, zeta, 0)

    def test_incompatible_stability_rejected(self):
        k21 = bipartite_quiver(2, 1)
        with pytest.raises(Exception):
            verify_main_theorem(
                2, 1, dv(k21, i1=1, i2=1, j1=1),
                Stability.make(k21, {"i1": Q(2), "i2": Q(0), "j1": Q(-2)}), 4)


# regression frozen from the consistency oracle: the central-ray function of
# the (2,2) diagram at cutoff 4 (params ordered s1, s2, t1, t2)
CENTRAL_RAY_22 = [
    ((0, 0, (0, 0, 0, 0)), Q(1)),
    ((1, 1, (0, 1, 0, 1)), Q(1)),
    ((1, 1, (0, 1, 1, 0)), Q(1)),
    ((1, 1, (1, 0, 0, 1)), Q(1)),
    ((1, 1, (1, 0, 1, 0)), Q(1)),
    ((2, 2, (0, 2, 1, 1)), Q(1)),
    ((2, 2, (1, 1, 0, 2)), Q(1)),
    ((2, 2, (1, 1, 1, 1)), Q(6)),
    ((2, 2, (1, 1, 2, 0)), Q(1)),
    ((2, 2, (2, 0, 1, 1)), Q(1)),
]


class TestRegression22:
    def central_ray(self):
        d = scatter(init_bipartite(2, 2, 4))
        for w in d.walls:
            if w.support == "ray" and w.direction == (1, 1):
                return w.function
        raise AssertionError("central ray missing")

    def test_central_ray_frozen_terms(self):
        assert self.central_ray().sorted_terms() == CENTRAL_RAY_22

    def test_specialized_diagonal(self):
        # s_i = t_j = u collapses the function to 1 + 4 u^2 xy + 10 u^4 x^2y^2
        totals = {}
        for (xe, ye, p), c in self.central_ray().sorted_terms():
            key = (xe, ye, sum(p))
            totals[key] = totals.get(key, Q(0)) + c
        assert totals == {(0, 0, 0): 1, (1, 1, 2): 4, (2, 2, 4): 10}

    def test_rerun_byte_identical(self):
        assert repr(self.central_ray()) == repr(self.central_ray())
