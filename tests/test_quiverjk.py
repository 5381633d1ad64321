"""Tests for the quiver-level residue pipeline: Z_Q, tree expansion,
abelianized JK, large-R limits, and tree-function residues (the
last from tests/reference.py).
"""

import io
import json
import time
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jkscatter import arrangement, cli, exact, quiver, quiverjk
from jkscatter.arrangement import build_arrangement, jk_global, zeta_from_theta
from jkscatter.errors import (DegenerateRCharges, JKScatterError, NonRegularStability,
                              TooManyTrees, TooMuchWork)
from jkscatter.quiver import (DimVector, Quiver, SpanningTree, Stability,
                              abelianize, bipartite_quiver, reduced_quiver)
from jkscatter.quiverjk import (build_ZQ, jk_ab, jk_ab_infinity, jk_global_ZQ,
                                jk_tree_expansion, lambda_sweep)
from jkscatter.scattering import verify_main_theorem
from reference import NotATree, meet, wt_residue

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
        z = build_ZQ(a)
        # -(rho+R-1)/(rho+R) with rho = -u: value checks at a sample point
        assert z.evaluate({"u_1_1": Q(1)}) == -(Q(-1) + Q(1, 3) - 1) / (Q(-1) + Q(1, 3))

    def test_factor_count(self):
        k11 = bipartite_quiver(1, 1)
        d = dv(k11, i1=2, j1=1)
        a = build_arrangement(k11, d, seed=0)
        z = build_ZQ(a)
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

    def test_lift_points_where_its_weights_meet(self):
        # parallel arrows apart in the arrow list: the lift (2, 1) of the
        # tree of reduced arrows 0 and 1 has the basis (1, 2) in a.points
        q = Quiver.make(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "2")])
        theta = stab(q, 2, -1, -1)
        a = build_arrangement(q, dv(q, **{"1": 1, "2": 1, "3": 1}), seed=0)
        value, exp = jk_tree_expansion(q, theta, a)
        assert sorted(t.lift for t in exp.terms) == [(0, 1), (2, 1)]
        for t in exp.terms:
            planes = [a.weights[i].form + a.weights[i].rcharge for i in t.lift]
            assert t.point == meet(planes, a.variables).location
        assert value == jk_global_ZQ(q, theta, a) == 2

    def test_arrangement_of_another_quiver_rejected(self):
        # A2's arrangement holds one of KRON2's two weights: read with it,
        # either route would give A2's value 1 for KRON2, whose value is 2
        th = stab(KRON2, 1, -1)
        a = build_arrangement(A2, dv(A2, **{"1": 1, "2": 1}), rcharges=[Q(1, 3)])
        assert jk_global_ZQ(A2, th, a) == jk_tree_expansion(A2, th, a)[0] == 1
        for route in (jk_global_ZQ, jk_tree_expansion):
            with pytest.raises(ValueError, match="not built on this quiver"):
                route(KRON2, th, a)


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


@st.composite
def bipartite_ones(draw):
    """K(l1, l2), l1, l2 <= 3, at d = 1, theta in -3..3 made normal on the
    last vertex, and an arrangement at seeded R-charges: about half of
    these theta lie on a wall."""
    l1, l2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = bipartite_quiver(l1, l2)
    theta = draw(st.lists(st.integers(-3, 3), min_size=l1 + l2 - 1, max_size=l1 + l2 - 1))
    a = build_arrangement(q, DimVector.make(q, dict.fromkeys(q.vertices, 1)),
                          seed=draw(st.integers(0, 2 ** 31 - 1)))
    return q, stab(q, *theta, -sum(theta)), a


K22 = bipartite_quiver(2, 2)


class TestTwoRoutesOnWalls:
    """On a wall the two JK routes fail alike: the tree route's regularity
    test (zeta_from_theta) and the global route's (_zeta_cut_sums) raise
    the same error, message and witness, so the tree route's scan of zeta
    is the global route's."""

    @given(bipartite_ones())
    @example((K22, stab(K22, 1, -1, 1, -1), build_arrangement(K22, dv(K22, i1=1, i2=1, j1=1, j2=1),
                                                               seed=5)))  # on a wall
    @example((K22, stab(K22, 2, -1, -1, 0), build_arrangement(K22, dv(K22, i1=1, i2=1, j1=1, j2=1),
                                                               seed=5)))  # on another
    @settings(max_examples=200, deadline=None)
    def test_same_outcome(self, case):
        q, theta, a = case
        assert outcome(lambda: jk_tree_expansion(q, theta, a)[0]) == \
            outcome(jk_global_ZQ, q, theta, a)


@st.composite
def bipartite_small_d(draw):
    """An arrangement of K(l1, l2), l1, l2 <= 3, at d entries <= 2 (so with
    roots), R-charges lambda * sample_rcharges for lambda in {1, 1000}, and
    theta in -2..2 made normal on the last vertex of the support of d: a
    third of these theta lie on a wall."""
    l1, l2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = bipartite_quiver(l1, l2)
    d = draw(st.lists(st.integers(0, 2), min_size=l1 + l2, max_size=l1 + l2)
             .filter(any))
    lam = draw(st.sampled_from((Q(1), Q(1000))))
    rc = [lam * r for r in arrangement.sample_rcharges(len(q.arrows), draw(st.integers(0, 50)))]
    dim = DimVector.make(q, dict(zip(q.vertices, d)))
    try:
        a = build_arrangement(q, dim, rcharges=rc)
    except DegenerateRCharges:  # most R-charges of a non-abelian d
        assume(False)
    theta = draw(st.lists(st.integers(-2, 2), min_size=l1 + l2, max_size=l1 + l2))
    last = max(i for i, x in enumerate(d) if x)
    theta[last] = Q(-sum(t * x for t, x in zip(theta[:last], d)), d[last])
    return q, stab(q, *theta), a


class TestTableRead:
    """jk_global_ZQ reads Z_Q's residue off the edge table; it equals the
    general read of build_ZQ at every point, and on a wall it raises
    zeta_from_theta's error with the same witness."""

    @given(bipartite_small_d())
    @settings(max_examples=200, deadline=None)
    def test_matches_general_read(self, case):
        q, theta, a = case
        assert outcome(jk_global_ZQ, q, theta, a) == \
            outcome(lambda: jk_global(build_ZQ(a), a, zeta_from_theta(a, theta)))


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
        assert len(calls) == 1  # built once, at lambda * R

    def test_jk_ab_one_enumeration_per_arrangement(self, calls, monkeypatch):
        # a term's arrangement is its edge table, whose points are
        # enumerated once (_table_points); no Arrangement is built
        tables = []
        real = quiverjk._table_points
        monkeypatch.setattr(quiverjk, "_table_points",
                            lambda *a: tables.append(a) or real(*a))
        k31 = bipartite_quiver(3, 1)
        d = dv(k31, i1=1, i2=1, i3=1, j1=2)
        z = stab(k31, 2, 2, 2, -3)
        assert len(abelianize(k31, d, z)) == 2
        jk_ab(k31, d, z, rseed=0, lam=Q(1000))
        assert len(tables) == 2 and calls == []


class TestTreeRouteReadsThePoints:
    """The tree route of a jk request reads each lift at the point of
    a.points with its basis: every basis is walked once, when the
    arrangement is built, and no plane is met as a LinForm and no Z_Q is
    built or read as a RationalExpr."""

    def test_jk_request(self, monkeypatch):
        walks, built, tables = [], [], []
        real_walk = arrangement._integer_walk
        monkeypatch.setattr(arrangement, "_integer_walk",
                            lambda *a: walks.append(a) or real_walk(*a))

        def general_read(*_args, **_kw):
            raise AssertionError("a jk request left the edge table")

        for name in ("build_ZQ", "jk_basis"):
            for module in (arrangement, quiverjk, cli):
                if name in vars(module):
                    monkeypatch.setattr(module, name, general_read)
        monkeypatch.setattr(exact.LinForm, "__init__", general_read)
        real_build, real_tree = cli.build_arrangement, cli.jk_tree_expansion
        monkeypatch.setattr(cli, "build_arrangement",
                            lambda *a, **kw: built.append(real_build(*a, **kw)) or built[-1])
        monkeypatch.setattr(cli, "jk_tree_expansion",
                            lambda *a: tables.append(real_tree(*a)) or tables[-1])
        out = io.StringIO()
        code = cli.main(["jk", "--l1", "2", "--l2", "2", "--d", "1,1;1,1",
                         "--zeta", "3,1,-2,-2"], out=out)
        assert code == 0, out.getvalue()
        [a], [(value, expansion)] = built, tables
        assert value == 2 and len(expansion.terms) == 4
        assert len(walks) == len(a.points) == 4  # one walk per basis, at the build
        assert all(any(t.point is pt.location for pt in a.points)
                   for t in expansion.terms)


class TestJkAbOneEliminationPerBasis:
    """jk_ab reads each term's residue at the singular points that the
    enumeration of its edge table met: no basis is met twice, no quiver or
    arrangement is built for a term, and the tree expansion is not on its
    path."""

    K31 = bipartite_quiver(3, 1)

    def k31_inputs(self):
        return (dv(self.K31, i1=1, i2=1, i3=1, j1=2), stab(self.K31, 2, 2, 2, -3))

    def test_one_meet_per_point(self, monkeypatch):
        # each basis is walked once, over its term's integer edge table
        walks, points = [], []
        real_walk, real_points = arrangement._integer_walk, quiverjk._table_points
        monkeypatch.setattr(arrangement, "_integer_walk",
                            lambda *a: walks.append(a) or real_walk(*a))
        monkeypatch.setattr(quiverjk, "_table_points",
                            lambda *a: points.append(real_points(*a)) or points[-1])
        d, z = self.k31_inputs()
        assert jk_ab(self.K31, d, z, rseed=0, lam=Q(1000)) == 2
        assert len(walks) == sum(len(p) for p in points) == 20

    def test_no_quiver_or_arrangement_per_term(self, monkeypatch):
        # a term is data: jk_ab builds no Quiver (Quiver.make), DimVector,
        # Stability, Arrangement (build_arrangement), Weight or SingularPoint,
        # and no plane as a LinForm
        def no_build(*_args, **_kw):
            raise AssertionError("jk_ab built a term's quiver or arrangement")

        d, z = self.k31_inputs()
        monkeypatch.setattr(Quiver, "make", staticmethod(no_build))
        monkeypatch.setattr(arrangement, "build_arrangement", no_build)
        for cls in (Quiver, DimVector, Stability, arrangement.Arrangement,
                    arrangement.Weight, arrangement.SingularPoint, exact.LinForm):
            monkeypatch.setattr(cls, "__init__", no_build)
        assert jk_ab(self.K31, d, z, rseed=0, lam=Q(1000)) == 2
        assert jk_ab(self.K31, d, z, rseed=1, lam=Q(3, 7)) == 2

    def test_no_tree_expansion(self, monkeypatch):
        def no_tree_expansion(*_args):
            raise AssertionError("jk_ab took the tree route")

        monkeypatch.setattr(quiverjk, "jk_tree_expansion", no_tree_expansion)
        d, z = self.k31_inputs()
        assert jk_ab(self.K31, d, z, rseed=0, lam=Q(1000)) == 2
        table = lambda_sweep(self.K31, d, z, 0, [Q(1), Q(7)])
        assert [row["value"] for row in table["rows"]] == [2, 2]
        out = io.StringIO()
        code = cli.main(["jk-ab", "--l1", "3", "--l2", "1", "--d", "1,1,1;2",
                         "--zeta", "2,2,2,-3", "--lambda", "7"], out=out)
        assert code == 0
        assert json.loads(out.getvalue())["results"]["value"] == "2/1"


def reference_jk_ab(q, d, zeta, rseed, lam):
    """jk_ab with one built quiver and arrangement per term: abelianize,
    then build_arrangement and jk_global_ZQ per term, the request's trees
    priced first."""
    terms = abelianize(q, d, zeta)
    quiver.check_tree_walks([(len(t.quiver.vertices), quiver._edges(t.quiver)) for t in terms
                             if len(t.quiver.arrows) <= arrangement.MAX_ARRANGEMENT_PLANES])
    total = Q(0)
    for k, term in enumerate(terms):
        rbar = arrangement.sample_rcharges(len(term.quiver.arrows), rseed + 1000003 * k)
        a = build_arrangement(term.quiver, term.dimension, rcharges=[lam * r for r in rbar])
        total += term.coefficient * jk_global_ZQ(term.quiver, term.stability, a)
    return total


@st.composite
def jk_ab_requests(draw):
    """A jk_ab request on K(l1, l2), l1, l2 <= 3: d entries 0..3, theta in
    -3..3 made normal on the last vertex of the support of d (about one in
    eight lies on a wall of some term, and some d have too many trees),
    lambda in {1, 1000, 3/7}, and how the request is read: as it is, with
    every R-charge 1/2 (DegenerateRCharges where a term's quiver has a
    cycle), or with a plane bound of 4 (TooManyPlanes)."""
    l1, l2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = bipartite_quiver(l1, l2)
    d = draw(st.lists(st.integers(0, 3), min_size=l1 + l2, max_size=l1 + l2).filter(any))
    theta = draw(st.lists(st.integers(-3, 3), min_size=l1 + l2, max_size=l1 + l2))
    last = max(i for i, x in enumerate(d) if x)
    theta[last] = Q(-sum(t * x for t, x in zip(theta[:last], d)), d[last])
    return (q, DimVector.make(q, dict(zip(q.vertices, d))), stab(q, *theta),
            draw(st.integers(0, 2 ** 31 - 1)), draw(st.sampled_from((Q(1), Q(1000), Q(3, 7)))),
            draw(st.sampled_from(("plain", "plain", "equal", "planes"))))


K31 = bipartite_quiver(3, 1)


class TestJkAbReference:
    """jk_ab off integer edge tables gives the outcome of the reference
    route, one built arrangement per term: the value, or the error's type,
    message and witness."""

    @given(jk_ab_requests())
    @example((K31, dv(K31, i1=8, i2=8, i3=8, j1=1), stab(K31, 1, 1, 1, -24), 0, Q(1),
              "plain"))  # TooManyTerms: p(8)^3 = 10,648 terms
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        q, d, theta, rseed, lam, mode = case
        with pytest.MonkeyPatch.context() as mp:
            if mode == "equal":
                # every R-charge 1/2, drawn as 2^30 over 2^31 for both routes
                for module in (arrangement, quiverjk):
                    mp.setattr(module, "_rcharge_numerators", lambda count, _seed: [2 ** 30] * count)
            elif mode == "planes":
                for module in (arrangement, quiverjk):
                    mp.setattr(module, "MAX_ARRANGEMENT_PLANES", 4)
            assert outcome(jk_ab, q, d, theta, rseed, lam) == \
                outcome(reference_jk_ab, q, d, theta, rseed, lam)

    def test_zero_dimension_vector(self):
        # the one term has no vertex: no coordinate, no point, value 0, as
        # jk_ab_infinity reads it (the reference route has no reference
        # coordinate to remove; the CLI refuses this d)
        k21 = bipartite_quiver(2, 1)
        d, theta = dv(k21), stab(k21, 0, 0, 0)
        assert jk_ab(k21, d, theta, rseed=0) == jk_ab_infinity(k21, d, theta) == 0


def parallel_arrows(m):
    """Two vertices with m parallel arrows at d = (1, 1) and theta = (1, -1),
    whose JK residue is m."""
    q = Quiver.make(["1", "2"], [("1", "2")] * m)
    return q, dv(q, **{"1": 1, "2": 1}), stab(q, 1, -1)


class TestReadIsPriced:
    """A JK read is priced before any residue is read, at trees * (planes -
    n)^2 units, and refused past MAX_JK_WORK (TooMuchWork).  jk_ab prices
    its request over all its terms before any table is built, with the
    Kirchhoff count of a term's trees where the tree bound made one, else
    its C(arrows, n); both routes of jk price an arrangement by its points."""

    def test_frontier_answers(self):
        # 15,500,250 units: 0.65 s on a shared 2-CPU host (1.7 s when each
        # residue was a Fraction added to a running sum)
        q, d, theta = parallel_arrows(250)
        start = time.perf_counter()
        assert jk_ab(q, d, theta, rseed=0) == 250
        assert time.perf_counter() - start < 2

    def test_jk_ab_refused_before_any_table(self, monkeypatch):
        def no_build(*_args, **_kw):
            raise AssertionError("a term's edge table was built")

        monkeypatch.setattr(quiverjk, "_edge_table", no_build)
        quiverjk._check_read([(311, 311, 1)])  # 29,887,100 units pass
        for m in (312, 1000):
            q, d, theta = parallel_arrows(m)
            start = time.perf_counter()
            with pytest.raises(TooMuchWork) as ei:
                jk_ab(q, d, theta, rseed=0)
            assert time.perf_counter() - start < 1
            assert (ei.value.estimate, ei.value.bound) == (m * (m - 1) ** 2, 30_000_000)
            assert str(ei.value) == (f"reading the JK residues needs about {m * (m - 1) ** 2} "
                                     "units, over the bound 30000000")

    @pytest.mark.parametrize("l1, l2, units", [
        # C(6, 4) = 15 sets of 4 arrows would price 60 units, past the
        # bound: Kirchhoff's 12 trees are counted
        (3, 2, 12 * 2 ** 2),
        (4, 4, 4_096 * 9 ** 2),  # C(16, 7) = 11,440 sets: Kirchhoff's 4,096 trees
    ])
    def test_jk_ab_price(self, monkeypatch, l1, l2, units):
        q = bipartite_quiver(l1, l2)
        d = DimVector.make(q, dict.fromkeys(q.vertices, 1))
        theta = stab(q, *range(1, l1 + l2), -sum(range(1, l1 + l2)))
        monkeypatch.setattr(quiverjk, "MAX_JK_WORK", units - 1)
        with pytest.raises(TooMuchWork) as ei:
            jk_ab(q, d, theta, rseed=0)
        assert ei.value.estimate == units
        monkeypatch.setattr(quiverjk, "MAX_JK_WORK", units)
        assert jk_ab(q, d, theta, rseed=0) == jk_ab_infinity(q, d, theta)

    def test_arrow_sets_price_only_under_the_bound(self, monkeypatch):
        # K(3,2) at d = 1, 15 sets of 4 arrows priced at 60 units: at a
        # bound of 60 they pass uncounted
        counted = []
        monkeypatch.setattr(quiverjk, "spanning_tree_count",
                            lambda *graph: counted.append(graph) or 12)
        monkeypatch.setattr(quiverjk, "MAX_JK_WORK", 60)
        q = bipartite_quiver(3, 2)
        d = DimVector.make(q, dict.fromkeys(q.vertices, 1))
        theta = stab(q, 1, 2, 3, 4, -10)
        assert jk_ab(q, d, theta, rseed=0) == jk_ab_infinity(q, d, theta)
        assert counted == []

    def test_jk_ab_answers_what_jk_answers(self, tmp_path):
        # 140 arrows 1 -> 2 and one 2 -> 3: C(141, 2) = 9,870 arrow sets, no
        # tree count by the tree bound, would price 9,870 * 139^2 units, past
        # the bound; its 140 trees price 2,704,940, as jk prices its points
        path = tmp_path / "q.json"
        path.write_text(json.dumps({
            "vertices": ["1", "2", "3"],
            "arrows": [{"tail": "1", "head": "2"}] * 140 + [{"tail": "2", "head": "3"}],
            "dimension": {"1": 1, "2": 1, "3": 1}, "stability": {"1": 1, "2": 0, "3": -1}}))
        for command in ("jk", "jk-ab"):
            out = io.StringIO()
            assert cli.main([command, "--quiver", str(path)], out=out) == 0
            assert json.loads(out.getvalue())["results"]["value"] == "140/1"

    def test_both_routes_price_the_points(self, monkeypatch):
        # K(3,2) at d = 1: 12 points, 6 planes in 4 coordinates, 48 units,
        # priced before zeta is tested, so a wall (the first theta; the
        # second reads 4) is refused alike
        q = bipartite_quiver(3, 2)
        a = build_arrangement(q, DimVector.make(q, dict.fromkeys(q.vertices, 1)), seed=0)
        assert len(a.points) == 12
        monkeypatch.setattr(quiverjk, "MAX_JK_WORK", 47)
        for theta in (stab(q, 1, 2, 3, -1, -5), stab(q, 1, 10, 100, -2, -109)):
            got = outcome(jk_global_ZQ, q, theta, a)
            assert got == outcome(lambda: jk_tree_expansion(q, theta, a)[0])
            assert got[:2] == (TooMuchWork, "reading the JK residues needs about 48 units, "
                                            "over the bound 47")

    @pytest.mark.parametrize("command", ["jk", "jk-ab"])
    def test_cli_refusal(self, tmp_path, command):
        path = tmp_path / "m1000.json"
        path.write_text(json.dumps({
            "vertices": ["1", "2"], "arrows": [{"tail": "1", "head": "2"}] * 1000,
            "dimension": {"1": 1, "2": 1}, "stability": {"1": 1, "2": -1}}))
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.main([command, "--quiver", str(path)], out=out)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert json.loads(out.getvalue()) == {
            "command": command, "error": "TooMuchWork",
            "message": "reading the JK residues needs about 998001000 units, "
                       "over the bound 30000000"}


class TestPairSum:
    """_pair_sum adds integer pairs (top, bottom) as the Fractions top /
    bottom would add, in any number and with either sign of bottom, with
    the gcd of two bottoms divided out at every merge (the default cutoff,
    for these sizes) or at none (a cutoff of 1 bit)."""

    @pytest.mark.parametrize("cutoff", [quiverjk.PAIR_GCD_BITS, 1])
    @given(pairs=st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                                    st.integers(-10 ** 6, 10 ** 6).filter(bool)), max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_sum(self, cutoff, pairs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quiverjk, "PAIR_GCD_BITS", cutoff)
            got = quiverjk._pair_sum(pairs)
        assert type(got) is Q and got == sum((Q(a, b) for a, b in pairs), Q(0))

    def test_shared_factors_are_divided_out(self):
        # 40 parallel arrows at d = (2, 1): 1,600 residues of 2,500 bits,
        # which share most factors.  0.27 s on a shared 2-CPU host, 0.40 s
        # when the residues were added one Fraction at a time, 2.3 s when
        # no merge divides out a gcd
        q = Quiver.make(["1", "2"], [("1", "2")] * 40)
        start = time.perf_counter()
        assert jk_ab(q, DimVector.make(q, {"1": 2, "2": 1}), stab(q, 1, -2), rseed=0) == 1560
        assert time.perf_counter() - start < 1.2


class TestLocalResidueCounts:
    """A jk request takes every local residue in closed form, and checks
    the regularity of zeta and reads each residue with no elimination:
    both read zeta's coordinates off the tree that each point carries.  No
    elimination runs anywhere in a jk request or a finite-lambda jk-ab
    request: each basis is one walk of its tree (arrangement._integer_walk)."""

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

        # zeta is tested by its cut sums (for jk_global_ZQ, and through
        # zeta_from_theta for the tree expansion); both routes read the
        # residues off the edge table (_zq_residue)
        zeta_calls, basis_calls = [], []
        monkeypatch.setattr(quiverjk, "_zeta_cut_sums",
                            eliminations_per_call(quiverjk._zeta_cut_sums, zeta_calls))
        monkeypatch.setattr(quiverjk, "zeta_from_theta",
                            eliminations_per_call(quiverjk.zeta_from_theta, zeta_calls))
        monkeypatch.setattr(quiverjk, "_zq_residue",
                            eliminations_per_call(quiverjk._zq_residue, basis_calls))
        code = cli.main(["jk", *argv], out=io.StringIO())
        assert code == 0
        # the points are enumerated when the arrangement is built, so zeta's
        # coordinates and each local residue read the point's tree
        assert zeta_calls and basis_calls
        assert set(zeta_calls) == set(basis_calls) == {0}
        assert eliminations == []

    @pytest.mark.parametrize("argv", [
        ["--l1", "3", "--l2", "1", "--d", "1,1,1;2", "--zeta", "2,2,2,-3",
         "--lambda", "7"],
        ["--l1", "1", "--l2", "1", "--d", "2;1", "--zeta", "1,-2",
         "--lambda", "1000"],
    ])
    def test_jk_ab_request(self, monkeypatch, argv):
        eliminations, walks = [], []
        real_gj, real_walk = exact._gauss_jordan, arrangement._integer_walk
        monkeypatch.setattr(exact, "_gauss_jordan",
                            lambda *a: eliminations.append(a) or real_gj(*a))
        monkeypatch.setattr(arrangement, "_integer_walk",
                            lambda *a: walks.append(a) or real_walk(*a))
        out = io.StringIO()
        code = cli.main(["jk-ab", *argv], out=out)
        assert code == 0, out.getvalue()
        assert walks and eliminations == []


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

    def test_oversized_term_is_refused_before_any_build(self, monkeypatch):
        # K(1,1) d=(5;4): 35 terms with 115,774 spanning trees in all, and
        # term 29 alone has 16,000.  The request is priced before any
        # term's edge table is built; building and reading terms 0-28 first
        # took 8-17 s
        def no_build(*_args, **_kw):
            raise AssertionError("a term's edge table was built")

        monkeypatch.setattr(quiverjk, "_edge_table", no_build)
        start = time.perf_counter()
        with pytest.raises(TooManyTrees) as ei:
            jk_ab(self.K11, dv(self.K11, i1=5, j1=4), stab(self.K11, 4, -5), rseed=0)
        assert time.perf_counter() - start < 2
        assert (ei.value.estimate, ei.value.bound) == (115_774, 10_000)

    def test_request_is_priced_in_all(self, monkeypatch):
        # K(2,1) d=(5,4;2): 70 terms, each under the bound (the largest has
        # 2,304 trees), with 63,580 spanning trees in all; reading them all
        # took 19.1 s before the request was priced as a whole
        def no_build(*_args, **_kw):
            raise AssertionError("a term's edge table was built")

        monkeypatch.setattr(quiverjk, "_edge_table", no_build)
        k21 = bipartite_quiver(2, 1)
        d = dv(k21, i1=5, i2=4, j1=2)
        zeta = stab(k21, 1, Q(1, 7), Q(-39, 14))
        start = time.perf_counter()
        with pytest.raises(TooManyTrees) as ei:
            jk_ab(k21, d, zeta, rseed=0)
        out = io.StringIO()
        code = cli.main(["jk-ab", "--l1", "2", "--l2", "1", "--d", "5,4;2",
                         "--zeta", "1,1/7,-39/14"], out=out)
        assert time.perf_counter() - start < 1
        assert (ei.value.estimate, ei.value.bound) == (63_580, 10_000)
        assert max(quiver.spanning_tree_count(len(t.quiver.vertices), quiver._edges(t.quiver))
                   for t in abelianize(k21, d, zeta)) == 2_304
        assert code == 2
        assert json.loads(out.getvalue()) == {
            "command": "jk-ab", "error": "TooManyTrees",
            "message": "the walk would visit 63580 spanning trees (Kirchhoff's count), "
                       "over the bound 10000"}

    def test_nonregular_lifted_stability(self):
        k22 = bipartite_quiver(2, 2)
        with pytest.raises(NonRegularStability):
            jk_ab_infinity(k22, dv(k22, i1=1, i2=1, j1=1, j2=1),
                           stab(k22, 1, 1, -1, -1))


class TestStableTreeCounts:
    """jk_ab_infinity counts the stable trees of each blown-up quiver by the
    cheaper of a DP over type vectors and a tree scan, which reaches
    requests out of reach of either route alone."""

    K11, K22, K31, K33 = (bipartite_quiver(a, b) for a, b in ((1, 1), (2, 2), (3, 1), (3, 3)))

    def test_k11_d65(self):
        # 77 terms; the all-ones one has 11 vertices and 6^4 * 5^5 trees: the DP
        assert jk_ab_infinity(self.K11, dv(self.K11, i1=6, j1=5), stab(self.K11, 5, -6)) == 0

    def test_k11_d201(self):
        # 627 terms; the all-ones one is the 21-vertex star, whose 20 sources
        # are twins: 2 types and 1,386 DP steps
        assert jk_ab_infinity(self.K11, dv(self.K11, i1=20, j1=1), stab(self.K11, 1, -20)) == 0

    def test_k22_d2223(self):
        # 2! 2! 2! 3! * chi, with chi = 1 the Euler characteristic of the
        # moduli space; the scattering side of the identity checks it below
        d = dv(self.K22, i1=2, i2=2, j1=2, j2=3)
        assert jk_ab_infinity(self.K22, d, stab(self.K22, 5, 5, -4, -4)) == 48
        assert verify_main_theorem(2, 2, d, stab(self.K22, 5, 5, -4, -4), 9).passed

    @pytest.mark.parametrize("q, d, zeta, value", [
        # 2! 2! 2! 2! 2! 3! * 3,000; a DP over vertex subsets takes about 6 s
        (K33, (2, 2, 2, 2, 2, 3), (7, 7, 7, -6, -6, -6), 576_000),
        # 202 terms; a scan of the all-ones K(13,2), 13 * 2^12 trees, takes about 12 s
        (K11, (13, 2), (2, -13), 0),
        # 3! 3! 2! 3! * chi with chi = 1
        (K22, (3, 3, 2, 3), (5, 5, -6, -6), 432),
    ], ids=["K33-222223", "K11-13-2", "K22-3323"])
    def test_twin_classes_reach(self, q, d, zeta, value):
        dim = DimVector.make(q, dict(zip(q.vertices, d)))
        assert jk_ab_infinity(q, dim, stab(q, *zeta)) == value

    def test_k11_d142_is_on_a_wall(self):
        # d is not primitive: a blown-up term lies on a wall
        with pytest.raises(NonRegularStability) as ei:
            jk_ab_infinity(self.K11, dv(self.K11, i1=14, j1=2), stab(self.K11, 2, -14))
        assert ei.value.witness == {"tree": (0, 1, 2), "arrow": ("i1@1,7", "j1@1,1")}

    def test_too_much_work_is_refused_before_counting(self, monkeypatch):
        # K(8,8) at d = 1 with a distinct zeta per vertex is one term with
        # no twins: 16 * 3^16 DP steps, and 8^7 * 8^7 trees to scan
        def no_count(*_args):
            raise AssertionError("a term was counted")

        monkeypatch.setattr(quiver, "_type_counts", no_count)
        monkeypatch.setattr(quiver, "stable_trees", no_count)
        k88 = bipartite_quiver(8, 8)
        with pytest.raises(TooMuchWork) as ei:
            jk_ab_infinity(k88, DimVector.make(k88, {v: 1 for v in k88.vertices}),
                           stab(k88, *range(1, 9), *range(-1, -9, -1)))
        assert (ei.value.estimate, ei.value.bound) == (16 * 3 ** 16, 200_000_000)

    # the six jk_ab_infinity jobs of the benchmark's trees workload
    FIXTURES = [
        (K11, (5, 3), (3, -5), 0),
        (K11, (4, 3), (3, -4), 0),
        (K11, (3, 4), (4, -3), 0),
        (K22, (2, 2, 1, 2), (3, 3, -4, -4), 8),
        (K22, (1, 1, 1, 1), (3, 1, -2, -2), 2),
        (K31, (1, 1, 1, 2), (2, 2, 2, -3), 2),
    ]

    @pytest.mark.parametrize("q, d, zeta, value", FIXTURES,
                             ids=["K11-53", "K11-43", "K11-34", "K22-2212", "K22-1111", "K31-1112"])
    def test_few_trees_are_listed(self, monkeypatch, q, d, zeta, value):
        # only one-tree stars are scanned; K(1,1) d=(5,3) alone has 2,796
        # spanning trees over its 21 terms
        real, listed = quiver.spanning_trees, []

        def spanning_trees(qbar):
            trees = real(qbar)
            listed.extend(trees)
            return trees

        monkeypatch.setattr(quiver, "spanning_trees", spanning_trees)
        dim = DimVector.make(q, dict(zip(q.vertices, d)))
        assert jk_ab_infinity(q, dim, stab(q, *zeta)) == value
        assert len(listed) <= 2

    @pytest.mark.parametrize("q, d, zeta, value", FIXTURES,
                             ids=["K11-53", "K11-43", "K11-34", "K22-2212", "K22-1111", "K31-1112"])
    def test_one_dp_and_no_blown_up_quiver(self, monkeypatch, q, d, zeta, value):
        # every term is read off one shared type DP, and none is built
        dim, theta = DimVector.make(q, dict(zip(q.vertices, d))), stab(q, *zeta)
        made, dps = [], []
        make, dp = quiver.Quiver.make, quiver._type_counts
        monkeypatch.setattr(quiver.Quiver, "make",
                            staticmethod(lambda *args: made.append(args) or make(*args)))
        monkeypatch.setattr(quiver, "_type_counts", lambda *args: dps.append(args) or dp(*args))
        assert jk_ab_infinity(q, dim, theta) == value
        assert (made, len(dps)) == ([], 1)


def types_of(q, d, zeta):
    """The AbelianizationTypes of jk_ab_infinity(q, d, zeta)."""
    return quiver.AbelianizationTypes(q, d.as_dict(), zeta.as_dict(),
                                      quiver._abelianization(q, d, zeta)[1])


def term_steps(term):
    """The steps of weist_count's route on a built abelianization term:
    those of its own one term at d = 1."""
    return types_of(term.quiver, term.dimension, term.stability).routes[0][0]


def per_term_jk_ab_infinity(q, d, zeta):
    """jk_ab_infinity term by term, the reference for the shared type DP:
    abelianize, price each built term as weist_count does and refuse the
    sum past MAX_WEIST_STEPS, then weist_count each term on its own."""
    terms = abelianize(q, d, zeta)
    steps = sum(map(term_steps, terms))
    if steps > quiver.MAX_WEIST_STEPS:
        raise TooMuchWork(steps, quiver.MAX_WEIST_STEPS)
    return sum((t.coefficient * quiver.weist_count(t.quiver, t.stability) for t in terms), Q(0))


@st.composite
def abelianization_requests(draw):
    """K(l1, l2), l1, l2 <= 3, with d entries 0..3, 0 < |d| <= 8, and integer
    zeta normalised on the last vertex of the support of d.  In a third of
    the draws the sources share one zeta, so base types of several
    vertices merge; a non-primitive d puts terms on a wall."""
    l1, l2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = bipartite_quiver(l1, l2)
    d = draw(st.lists(st.integers(0, 3), min_size=l1 + l2, max_size=l1 + l2)
             .filter(lambda d: 0 < sum(d) <= 8))
    zeta = draw(st.lists(st.integers(-4, 4), min_size=l1 + l2, max_size=l1 + l2))
    if draw(st.integers(0, 2)) == 0:
        zeta[:l1] = [zeta[0]] * l1
    fix = max(i for i, x in enumerate(d) if x)
    total = sum(x * z for x, z in zip(d, zeta))
    zeta = [z * d[fix] for z in zeta]
    zeta[fix] -= total
    return q, DimVector.make(q, dict(zip(q.vertices, d))), stab(q, *zeta)


@st.composite
def merging_requests(draw):
    """a -> c once or twice, b -> c once, twice or four times, sometimes a
    -> b, with zeta_b = 2 zeta_a and zeta normalised on c: the base types
    (a, 2l) and (b, l) merge when b has twice a's arrows to c and no arrow
    from a, and d is mostly not primitive, so many terms lie on walls."""
    arrows = ([("a", "c")] * draw(st.sampled_from([1, 2]))
              + [("b", "c")] * draw(st.sampled_from([1, 2, 4])))
    if draw(st.booleans()):
        arrows.append(("a", "b"))
    q = Quiver.make(["a", "b", "c"], arrows)
    d = (draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    za = draw(st.integers(-3, 3))
    zeta = (za * d[2], 2 * za * d[2], -za * (d[0] + 2 * d[1]))
    return q, DimVector.make(q, dict(zip(q.vertices, d))), stab(q, *zeta)


def request(l1, l2, d, zeta):
    q = bipartite_quiver(l1, l2)
    return q, DimVector.make(q, dict(zip(q.vertices, d))), stab(q, *zeta)


# twin sources; a zero in d; two non-primitive d, on walls; a term whose
# quiver is a one-tree star of four distinct sources, which is scanned;
# sources alone, whose terms are disconnected; and d = 0, one empty term
EXAMPLES = [request(3, 1, (1, 1, 1, 2), (2, 2, 2, -3)),
            request(2, 2, (2, 0, 1, 2), (3, 1, -2, -2)),
            request(1, 1, (2, 2), (1, -1)),
            request(2, 2, (2, 2, 2, 2), (1, 1, -1, -1)),
            request(3, 1, (2, 1, 1, 1), (1, 2, 3, -7)),
            request(2, 1, (2, 1, 0), (1, -2, 5)),
            request(1, 1, (0, 0), (1, -1))]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


class TestSharedTypeDP:
    """jk_ab_infinity reads every term off one type DP over the base types
    of d; the per-term route is its oracle."""

    @given(abelianization_requests())
    @with_examples
    @settings(max_examples=300, deadline=None)
    def test_matches_per_term_route(self, case):
        assert outcome(jk_ab_infinity, *case) == outcome(per_term_jk_ab_infinity, *case)

    @given(abelianization_requests())
    @with_examples
    @settings(max_examples=100, deadline=None)
    def test_refusal_estimate_is_the_terms_steps(self, case):
        # so every TooMuchWork report is as the per-term route's
        q, d, zeta = case
        want = sum(map(term_steps, abelianize(q, d, zeta)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quiver, "MAX_WEIST_STEPS", -1)
            with pytest.raises(TooMuchWork) as ei:
                jk_ab_infinity(q, d, zeta)
        assert ei.value.estimate == want

    def test_examples_take_each_route(self):
        twins, _zero, wall, wall2, star = EXAMPLES[:5]
        # i1, i2, i3 merge: 3 types for 5 base types
        assert len(types_of(*twins).theta) == 3
        for case in (wall, wall2):
            with pytest.raises(NonRegularStability):
                jk_ab_infinity(*case)
        assert any(scan for _steps, scan in types_of(*star).routes)

    @given(merging_requests())
    # a wall term whose first wall, and so its built witness, differs when
    # its types are taken in the order of the request's types
    @example(request(3, 2, (2, 1, 2, 1, 2), (4, 4, 6, 4, -14)))
    @settings(max_examples=150, deadline=None)
    def test_built_witness_matches_per_term_route(self, case):
        # with the bound at the request's steps, or twice them, a term on a
        # wall whose full scan is priced past it builds its witness tree on
        # its first wall, the wall's side in its own order of types
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quiver, "MAX_WEIST_STEPS", -1)
            with pytest.raises(TooMuchWork) as ei:
                jk_ab_infinity(*case)
            for bound in (ei.value.estimate, 2 * ei.value.estimate):
                mp.setattr(quiver, "MAX_WEIST_STEPS", bound)
                assert outcome(jk_ab_infinity, *case) == outcome(per_term_jk_ab_infinity, *case)


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
