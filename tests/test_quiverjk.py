"""Tests for the quiver-level residue pipeline: Z_Q, tree expansion,
abelianized JK, large-R limits, and tree-function residues.
"""

import io
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter import arrangement, cli, exact, quiverjk
from jkscatter.arrangement import build_arrangement
from jkscatter.errors import JKScatterError, NonRegularStability, NotATree
from jkscatter.quiver import (DimVector, Quiver, SpanningTree, Stability,
                              abelianize, bipartite_quiver, reduced_quiver)
from jkscatter.quiverjk import (build_ZQ, jk_ab, jk_ab_infinity, jk_global_ZQ,
                                jk_tree_expansion, lambda_sweep, wt_residue)

A2 = Quiver.make(["1", "2"], [("1", "2")])
KRON2 = Quiver.make(["1", "2"], [("1", "2"), ("1", "2")])


def dv(q, **kw):
    return DimVector.make(q, kw)


def stab(q, *vals):
    return Stability.make(q, {v: Q(x) for v, x in zip(q.vertices, vals)})


@pytest.fixture
def kron_arrangement():
    return build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}),
                             rcharges=[Q(1, 7), Q(2, 7)])


class TestBuildZQ:
    def test_a2_shape(self):
        d = dv(A2, **{"1": 1, "2": 1})
        a = build_arrangement(A2, d, rcharges=[Q(1, 3)])
        z = build_ZQ(A2, d, a)
        # -(rho+R-1)/(rho+R) with rho = -u: value checks at a sample point
        assert z.evaluate({"u_1_1": Q(1)}) == -(Q(-1) + Q(1, 3) - 1) / (Q(-1) + Q(1, 3))

    def test_factor_count(self):
        k11 = bipartite_quiver(1, 1)
        d = dv(k11, i1=2, j1=1)
        a = build_arrangement(k11, d, seed=0)
        z = build_ZQ(k11, d, a)
        # proportional root factors merge; each weight gives two factors
        assert sum(abs(e) for _, e in z.factors) == \
            2 * len(a.roots) + 2 * len(a.weights)


class TestTreeExpansion:
    def test_kronecker2_per_lift_values(self, kron_arrangement):
        value, exp = jk_tree_expansion(KRON2, stab(KRON2, 1, -1), kron_arrangement)
        assert value == 2
        r1, r2 = kron_arrangement.rcharges
        by_lift = {t.lift: t.local_value for t in exp.terms}
        assert by_lift[(0,)] == (r2 - r1 - 1) / (r2 - r1)
        assert by_lift[(1,)] == (r1 - r2 - 1) / (r1 - r2)
        assert all(t.indicator == 1 for t in exp.terms)

    def test_unstable_tree_recorded_with_zero(self, kron_arrangement):
        value, exp = jk_tree_expansion(KRON2, stab(KRON2, -1, 1), kron_arrangement)
        assert value == 0
        assert all(t.indicator == 0 and t.local_value == 0 for t in exp.terms)
        assert all(c > 0 for t in exp.terms for c in t.components)

    def test_k21_single_stable_tree(self):
        k21 = bipartite_quiver(2, 1)
        a = build_arrangement(k21, dv(k21, i1=1, i2=1, j1=1), seed=5)
        value, exp = jk_tree_expansion(k21, stab(k21, 1, 1, -2), a)
        assert value == 1
        assert len(exp.terms) == 1 and exp.terms[0].local_value == 1

    def test_matches_global_enumeration(self, kron_arrangement):
        th = stab(KRON2, 1, -1)
        assert jk_tree_expansion(KRON2, th, kron_arrangement)[0] == \
            jk_global_ZQ(KRON2, th, kron_arrangement)

    def test_nonabelian_d_rejected(self):
        k11 = bipartite_quiver(1, 1)
        a = build_arrangement(k11, dv(k11, i1=2, j1=1), seed=0)
        with pytest.raises(ValueError):
            jk_tree_expansion(k11, stab(k11, 1, -2), a)


def outcome(route, *args):
    """The value of a JK route, or its error type, message and witness."""
    try:
        return route(*args)
    except JKScatterError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@st.composite
def bipartite_zero_one(draw):
    """K(l1, l2), l1 <= 3, l2 <= 2, with 0/1 entries in d and theta.d = 0."""
    l1 = draw(st.integers(min_value=1, max_value=3))
    l2 = draw(st.integers(min_value=1, max_value=2))
    q = bipartite_quiver(l1, l2)
    d = draw(st.lists(st.integers(0, 1), min_size=l1 + l2, max_size=l1 + l2)
             .filter(lambda d: sum(d) >= 2))
    vals = draw(st.lists(st.integers(-3, 3), min_size=l1 + l2, max_size=l1 + l2))
    last = max(i for i, x in enumerate(d) if x)
    vals[last] -= sum(v for v, x in zip(vals, d) if x)
    return q, DimVector.make(q, dict(zip(q.vertices, d))), stab(q, *vals)


class TestTwoRoutes:
    @given(bipartite_zero_one(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_tree_route_matches_global_route(self, data, seed):
        q, d, theta = data
        a = build_arrangement(q, d, seed=seed)
        assert outcome(lambda: jk_tree_expansion(q, theta, a)[0]) == \
            outcome(jk_global_ZQ, q, theta, a)


class TestEnumerationCounts:
    """Each arrangement enumerates its singular points once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = arrangement.singular_points

        def counting(a):
            seen.append(a)
            return real(a)

        monkeypatch.setattr(arrangement, "singular_points", counting)
        return seen

    def test_two_routes_share_one_enumeration(self, calls):
        k22 = bipartite_quiver(2, 2)
        th = stab(k22, 3, 1, -2, -2)
        a = build_arrangement(k22, dv(k22, i1=1, i2=1, j1=1, j2=1), seed=0)
        assert jk_global_ZQ(k22, th, a) == jk_tree_expansion(k22, th, a)[0]
        assert len(calls) == 1

    def test_cli_jk_at_lambda(self, calls):
        code = cli.main(["jk", "--l1", "2", "--l2", "2", "--d", "1,1;1,1",
                         "--zeta", "3,1,-2,-2", "--lambda", "7"], out=io.StringIO())
        assert code == 0
        assert len(calls) == 2  # the seeded arrangement and its lambda-scaled copy

    def test_jk_ab_one_enumeration_per_arrangement(self, calls):
        k31 = bipartite_quiver(3, 1)
        d = dv(k31, i1=1, i2=1, i3=1, j1=2)
        z = stab(k31, 2, 2, 2, -3)
        assert len(abelianize(k31, d, z)) == 2
        jk_ab(k31, d, z, rseed=0, lam=Q(1000))
        assert len(calls) == 4


class TestLocalResidueCounts:
    """A jk request takes every local residue in closed form, and checks
    the regularity of zeta and reads each residue with no elimination:
    both read the inverse that each point carries."""

    @pytest.mark.parametrize("argv", [
        ["--l1", "2", "--l2", "2", "--d", "1,1;1,1", "--zeta", "3,1,-2,-2"],
        ["--l1", "1", "--l2", "1", "--d", "2;1", "--zeta", "1,-2"],  # roots too
    ])
    def test_jk_request(self, monkeypatch, argv):
        def no_residue(*_args, **_kw):
            raise AssertionError("a local residue left the closed form")

        for module in (arrangement, exact):
            monkeypatch.setattr(module, "iterated_residue", no_residue)
            monkeypatch.setattr(module, "subst_linear_basis", no_residue)
        # every solve and inverse runs through one elimination kernel
        eliminations = []
        real_gj = exact._gauss_jordan
        monkeypatch.setattr(exact, "_gauss_jordan",
                            lambda *a: eliminations.append(a) or real_gj(*a))

        def eliminations_per_call(fn, per_call):
            def counting(*args):
                before = len(eliminations)
                out = fn(*args)
                per_call.append(len(eliminations) - before)
                return out
            return counting

        zeta_calls, basis_calls = [], []
        monkeypatch.setattr(quiverjk, "zeta_from_theta",
                            eliminations_per_call(quiverjk.zeta_from_theta, zeta_calls))
        counting_basis = eliminations_per_call(arrangement.jk_basis, basis_calls)
        for module in (arrangement, quiverjk):
            monkeypatch.setattr(module, "jk_basis", counting_basis)
        code = cli.main(["jk", *argv], out=io.StringIO())
        assert code == 0
        # the points are enumerated when the arrangement is built, so zeta's
        # coordinates and each local residue read the point's inverse
        assert zeta_calls and basis_calls
        assert set(zeta_calls) == set(basis_calls) == {0}


class TestAbelianizedJK:
    K11 = bipartite_quiver(1, 1)

    def test_cancellation_at_any_lambda(self):
        d = dv(self.K11, i1=2, j1=1)
        z = stab(self.K11, 1, -2)
        for lam in (Q(1), Q(7), Q(1000)):
            assert jk_ab(self.K11, d, z, rseed=3, lam=lam) == 0
        assert jk_ab_infinity(self.K11, d, z) == 0

    def test_abelian_d_reduces_to_plain_jk(self):
        d = dv(self.K11, i1=1, j1=1)
        assert jk_ab(self.K11, d, stab(self.K11, 1, -1), rseed=1) == 1

    def test_infinity_kronecker(self):
        assert jk_ab_infinity(KRON2, dv(KRON2, **{"1": 1, "2": 1}),
                              stab(KRON2, 1, -1)) == 2

    def test_infinity_k22(self):
        k22 = bipartite_quiver(2, 2)
        assert jk_ab_infinity(k22, dv(k22, i1=1, i2=1, j1=1, j2=1),
                              stab(k22, 3, 1, -2, -2)) == 2

    def test_k21_value(self):
        k21 = bipartite_quiver(2, 1)
        d = dv(k21, i1=1, i2=1, j1=1)
        assert jk_ab(k21, d, stab(k21, 1, 1, -2), rseed=2) == 1

    def test_lambda_sweep_table(self):
        d = dv(self.K11, i1=2, j1=1)
        table = lambda_sweep(self.K11, d, stab(self.K11, 1, -2), 3,
                             [Q(1), Q(100)])
        assert table["limit"] == 0
        assert [row["abs_diff"] for row in table["rows"]] == [0, 0]

    def test_lambda_sweep_empty(self):
        d = dv(self.K11, i1=1, j1=1)
        table = lambda_sweep(self.K11, d, stab(self.K11, 1, -1), 0, [])
        assert table["rows"] == [] and table["limit"] == 1

    def test_nonregular_lifted_stability(self):
        k22 = bipartite_quiver(2, 2)
        with pytest.raises(NonRegularStability):
            jk_ab_infinity(k22, dv(k22, i1=1, i2=1, j1=1, j2=1),
                           stab(k22, 1, 1, -1, -1))


class TestWTResidue:
    def test_single_edge(self):
        q = Quiver.make(["i", "j"], [("i", "j")])
        assert wt_residue(q, SpanningTree((0,)), {0: 2}, "i") == 2

    def test_chain(self):
        q = Quiver.make(["i", "j", "k"], [("i", "j"), ("j", "k")])
        assert wt_residue(q, SpanningTree((0, 1)), {0: 1, 1: 3}, "i") == 3

    def test_root_choice_irrelevant(self):
        qbar, _ = reduced_quiver(bipartite_quiver(2, 1))
        for root in qbar.vertices:
            assert wt_residue(qbar, SpanningTree((0, 1)), {0: 1, 1: 1}, root) == 1

    def test_invalid_root(self):
        q = Quiver.make(["i", "j"], [("i", "j")])
        with pytest.raises(NotATree):
            wt_residue(q, SpanningTree((0,)), {0: 1}, "nope")

    def test_non_spanning_subset(self):
        q = Quiver.make(["i", "j", "k"], [("i", "j"), ("j", "k")])
        with pytest.raises(NotATree):
            wt_residue(q, SpanningTree((0,)), {0: 1}, "i")
