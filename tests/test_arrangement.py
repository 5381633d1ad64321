"""Tests for arrangements, flags, and the JK residue machinery."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jkscatter.arrangement import (PERTURBATION_SHIFT, _sum_wall_normals,
                                   build_arrangement, enumerate_flags,
                                   flag_residue, jk_basis, jk_global, jk_zeta,
                                   sample_rcharges, scale_rcharges,
                                   singular_points, theta_lift,
                                   zeta_from_theta)
from jkscatter.errors import (DegenerateRCharges, JKScatterError,
                              NonRegularStability, NotProjective,
                              NotSumRegular)
from jkscatter.exact import (LinForm, RationalExpr, in_span, mat_det,
                             mat_rank)
from jkscatter.quiver import DimVector, Quiver, Stability, bipartite_quiver
from jkscatter.quiverjk import build_ZQ

KRON2 = Quiver.make(["1", "2"], [("1", "2"), ("1", "2")])


def lf(**coeffs):
    out = LinForm()
    for name, c in coeffs.items():
        out = out + LinForm.var(name) * Q(c)
    return out


def dv(q, **kw):
    return DimVector.make(q, kw)


def stab(q, *vals):
    return Stability.make(q, {v: Q(x) for v, x in zip(q.vertices, vals)})


# -- construction -------------------------------------------------------------

class TestBuildArrangement:
    def test_kronecker2_split(self):
        a = build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}),
                              rcharges=[Q(1, 3), Q(2, 5)])
        assert a.variables == ("u_1_1",)
        assert a.reference == ("2", 1)
        assert len(a.weights) == 2 and len(a.roots) == 0
        assert all(w.multiplicity == 1 for w in a.weights)
        # weight functionals are -u (head coordinate is the reference)
        assert all(w.form == lf(u_1_1=-1) for w in a.weights)

    def test_reduced_mode_single_weight(self):
        a = build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}),
                              rcharges=[Q(1, 3)], split_multiplicities=False)
        assert len(a.weights) == 1 and a.weights[0].multiplicity == 2

    def test_roots_appear_for_higher_rank(self):
        k11 = bipartite_quiver(1, 1)
        a = build_arrangement(k11, dv(k11, i1=2, j1=1), seed=0)
        assert len(a.roots) == 2  # u_{i1,2}-u_{i1,1} and its negative
        assert len(a.weights) == 2

    def test_rcharge_count_validated(self):
        with pytest.raises(ValueError):
            build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}), rcharges=[Q(1, 3)])

    def test_seeded_build_is_deterministic(self):
        a = build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}), seed=11)
        b = build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}), seed=11)
        assert a.rcharges == b.rcharges

    def test_sample_rcharges_denominator(self):
        rc = sample_rcharges(4, 7)
        assert len(set(rc)) == 4
        assert all(0 < r < 1 and (2 ** 31) % r.denominator == 0 for r in rc)

    def test_degenerate_rcharges_detected(self):
        with pytest.raises(DegenerateRCharges):
            build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}),
                              rcharges=[Q(1, 3), Q(1, 3)])

    def test_scale_rcharges(self):
        d = dv(KRON2, **{"1": 1, "2": 1})
        a = build_arrangement(KRON2, d, rcharges=[Q(1, 3)], split_multiplicities=False)
        assert scale_rcharges(a, Q(1)) is a
        b = scale_rcharges(a, Q(7))
        assert b.rcharges == (Q(7, 3),) and b.reference == a.reference
        assert b.weights[0].multiplicity == 2
        # the scaled arrangement is validated on its own
        with pytest.raises(DegenerateRCharges):
            scale_rcharges(build_arrangement(KRON2, d, rcharges=[Q(1, 3), Q(2, 5)]), Q(0))


class TestSingularPoints:
    def test_kronecker2_two_points(self):
        a = build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}),
                              rcharges=[Q(1, 3), Q(2, 5)])
        pts = singular_points(a)
        assert [p.location for p in pts] == [(Q(1, 3),), (Q(2, 5),)]
        assert a.points == tuple(pts)
        assert all(len(p.active) == 1 for p in pts)

    def test_k21_point_count(self):
        k21 = bipartite_quiver(2, 1)
        a = build_arrangement(k21, dv(k21, i1=1, i2=1, j1=1), seed=5)
        # two weights per arrow pair intersecting in the plane: one point per
        # transversal pair of distinct-arrow hyperplanes
        assert len(singular_points(a)) == 1


# -- flags ---------------------------------------------------------------------

class TestFlags:
    # active set {e1, e2, e1+e2} in the plane, zeta = (2,1)
    ACTIVE = (lf(u=1), lf(w=1), lf(u=1, w=1))
    ZETA = (Q(2), Q(1))

    def flags(self):
        return enumerate_flags(self.ACTIVE, self.ZETA, ("u", "w"),
                               var_order=("u", "w"))

    def test_flag_data(self):
        flags = self.flags()
        by_first = {fl.partition[0]: fl for fl in flags}
        f1 = by_first[(0,)]          # F_1 = span(e1)
        assert f1.kappas == ((1, 0), (2, 2))
        assert f1.nu == 1 and f1.in_cone
        f2 = by_first[(1,)]          # F_1 = span(e2)
        assert f2.nu == -1 and not f2.in_cone
        f3 = by_first[(2,)]          # F_1 = span(e1+e2): improper, nu = 0
        assert f3.nu == 0

    def test_jk_zeta_of_product(self):
        f = RationalExpr(1, tuple((a, -1) for a in self.ACTIVE))
        assert jk_zeta(f, self.ACTIVE, self.ZETA, ("u", "w"),
                       var_order=("u", "w")) == 0

    def test_orientation_invariance(self):
        f = RationalExpr(1, tuple((a, -1) for a in self.ACTIVE))
        forward = jk_zeta(f, self.ACTIVE, self.ZETA, ("u", "w"), var_order=("u", "w"))
        flipped = jk_zeta(f, self.ACTIVE, self.ZETA, ("w", "u"), var_order=("u", "w"))
        assert forward == flipped

    def test_flag_residue_basis_case(self):
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        flags = enumerate_flags((lf(u=1), lf(w=1)), (Q(2), Q(1)), ("u", "w"),
                                var_order=("u", "w"))
        contributing = [fl for fl in flags if fl.nu != 0 and fl.in_cone]
        assert sum(fl.nu * flag_residue(f, fl, ("u", "w")) for fl in contributing) == 1

    def test_zeta_on_cone_wall_raises(self):
        with pytest.raises(NotSumRegular):
            jk_zeta(RationalExpr(1, tuple((a, -1) for a in self.ACTIVE)),
                    self.ACTIVE, (Q(1), Q(1)), ("u", "w"), var_order=("u", "w"))

    def test_not_projective(self):
        active = (lf(u=1), lf(u=-1))
        with pytest.raises(NotProjective):
            jk_zeta(RationalExpr(1, ((active[0], -1), (active[1], -1))),
                    active, (Q(1),), ("u",), var_order=("u",))


class TestJKBasis:
    def test_positive_cone(self):
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        assert jk_basis(f, [lf(u=1), lf(w=1)], (Q(2), Q(1)),
                        var_order=("u", "w")) == 1

    def test_outside_cone_is_zero(self):
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        assert jk_basis(f, [lf(u=1), lf(w=1)], (Q(2), Q(-1)),
                        var_order=("u", "w")) == 0

    def test_tied_components_raise(self):
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        with pytest.raises(NotSumRegular):
            jk_basis(f, [lf(u=1), lf(w=1)], (Q(1), Q(1)), var_order=("u", "w"))

    def test_agrees_with_flag_sum(self):
        basis = (lf(u=1), lf(u=1, w=1))
        f = RationalExpr(1, ((basis[0], -2), (basis[1], -1)))
        zeta = (Q(3), Q(1))
        assert jk_basis(f, basis, zeta, var_order=("u", "w")) == \
            jk_zeta(f, basis, zeta, ("u", "w"), var_order=("u", "w"))


# -- zeta from theta -----------------------------------------------------------

class TestZetaFromTheta:
    def test_lift_is_diagonal(self):
        k11 = bipartite_quiver(1, 1)
        a = build_arrangement(k11, dv(k11, i1=2, j1=1), seed=0)
        lifted = theta_lift(a, stab(k11, 1, -2))
        assert lifted == (1, 1)  # two i1 coordinates; j1 holds the reference

    def test_tied_theta_gets_perturbed(self):
        k21 = bipartite_quiver(2, 1)
        a = build_arrangement(k21, dv(k21, i1=1, i2=1, j1=1), seed=5)
        zeta = zeta_from_theta(a, stab(k21, 1, 1, -2))
        assert zeta != (-1, -1)          # the raw lift is tied, hence moved
        assert all(abs(z + 1) < Q(1, 1000) for z in zeta)

    def test_wall_theta_rejected(self):
        # K(2,2) with the symmetric stability: the lift lies on a plain wall
        k22 = bipartite_quiver(2, 2)
        a = build_arrangement(k22, dv(k22, i1=1, i2=1, j1=1, j2=1), seed=1)
        with pytest.raises(NonRegularStability) as ei:
            zeta_from_theta(a, stab(k22, 1, 1, -1, -1))
        assert ei.value.witness


def reference_zeta_from_theta(a, theta):
    """The all-subsets span scan over plain and sum walls (test reference).

    A plain wall is the span of n-1 active functionals at a singular point,
    a sum wall the span of n-1 sums of distinct active functionals.  The
    chamber side of a plain wall W is the sign of det(W, z).
    """
    n = a.n
    zeta0 = tuple(-x for x in theta_lift(a, theta))
    plain_walls, sum_walls = set(), set()
    for pt in singular_points(a):
        vecs = [f.vector(a.variables) for f in pt.functionals]
        for sub in itertools.combinations(vecs, max(n - 1, 0)):
            plain_walls.add(tuple(sorted(sub)))
        sums = [tuple(sum(c) for c in zip(*sub))
                for r in range(1, len(vecs) + 1)
                for sub in itertools.combinations(vecs, r)]
        for sub in itertools.combinations(sums, max(n - 1, 0)):
            sum_walls.add(tuple(sorted(sub)))
    for wall in sorted(plain_walls):
        if in_span(zeta0, list(wall)):
            raise NonRegularStability("lifted stability lies on an arrangement wall",
                                      witness=[list(w) for w in wall])

    def ok(z):
        if any(in_span(z, list(wall)) for wall in sum_walls):
            return False
        for wall in plain_walls:
            if not wall or mat_rank(wall) != n - 1:
                continue
            s0 = mat_det(list(wall) + [zeta0])
            if s0 == 0 or mat_det(list(wall) + [z]) * s0 <= 0:
                return False
        return True

    if ok(zeta0):
        return zeta0
    scale = max((abs(x) for x in zeta0), default=Q(1)) or Q(1)
    for t in (3, 5, 7, 11, 13):
        delta = tuple(Q(1, t ** i) for i in range(1, n + 1))
        eps = scale / PERTURBATION_SHIFT
        for _ in range(80):
            cand = tuple(z + eps * dl for z, dl in zip(zeta0, delta))
            if ok(cand):
                return cand
            eps /= 2
    raise NotSumRegular("could not perturb zeta to a sum-regular point")


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except JKScatterError as exc:
        return type(exc).__name__, str(exc), exc.witness


@st.composite
def small_arrangements(draw):
    """An acyclic quiver on 3-4 vertices with n <= 3, and theta in -2..2."""
    nv = draw(st.integers(min_value=3, max_value=4))
    verts = [f"v{i}" for i in range(nv)]
    arrows = [(verts[i], verts[j]) for i in range(nv) for j in range(i + 1, nv)
              for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    # at most one vertex of dimension 2: more make most R-charges degenerate
    dims = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=nv, max_size=nv))
    dims[draw(st.integers(min_value=0, max_value=nv - 1))] += draw(st.booleans())
    assume(arrows and 2 <= sum(dims) <= 4)
    q = Quiver.make(verts, arrows)
    try:
        a = build_arrangement(q, DimVector.make(q, dict(zip(verts, dims))),
                              seed=draw(st.integers(min_value=0, max_value=50)))
    except DegenerateRCharges:
        assume(False)
    theta = draw(st.lists(st.integers(min_value=-2, max_value=2),
                          min_size=nv, max_size=nv))
    return a, stab(q, *theta)


class TestRegularityInBasisCoordinates:
    @given(small_arrangements())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_subsets_scan(self, case):
        a, theta = case
        assert outcome(zeta_from_theta, a, theta) == \
            outcome(reference_zeta_from_theta, a, theta)

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 9), (4, 45)])
    def test_sum_wall_hyperplanes(self, n, count):
        # every hyperplane spanned by n-1 nonzero 0/1 vectors, as the set of
        # 0/1 vectors it contains, by a span test on every (n-1)-subset:
        # v lies in the span of n-1 independent vectors iff det(sub, v) = 0
        cube = [v for v in itertools.product((0, 1), repeat=n) if any(v)]
        spans = {frozenset(v for v in cube if mat_det(list(sub) + [v]) == 0)
                 for sub in itertools.combinations(cube, n - 1)
                 if mat_rank(sub) == n - 1}
        normals = _sum_wall_normals(n)
        assert len(normals) == len(spans) == count
        assert {frozenset(v for v in cube
                          if sum(h * x for h, x in zip(normal, v)) == 0)
                for normal in normals} == spans

    def test_zero_dimensional_witness_is_empty(self):
        k11 = bipartite_quiver(1, 1)
        a = build_arrangement(k11, dv(k11, i1=1, j1=0), seed=0)
        assert a.n == 0
        with pytest.raises(NonRegularStability) as ei:
            zeta_from_theta(a, stab(k11, 0, 0))
        assert ei.value.witness == []


# -- global JK -----------------------------------------------------------------

class TestJKGlobal:
    def test_kronecker2_value(self):
        d = dv(KRON2, **{"1": 1, "2": 1})
        a = build_arrangement(KRON2, d, rcharges=[Q(1, 3), Q(2, 5)])
        z = build_ZQ(KRON2, d, a)
        zeta = zeta_from_theta(a, stab(KRON2, 1, -1))
        assert jk_global(z, a, zeta) == 2

    def test_unstable_side_vanishes(self):
        d = dv(KRON2, **{"1": 1, "2": 1})
        a = build_arrangement(KRON2, d, rcharges=[Q(1, 3), Q(2, 5)])
        z = build_ZQ(KRON2, d, a)
        zeta = zeta_from_theta(a, stab(KRON2, -1, 1))
        assert jk_global(z, a, zeta) == 0
