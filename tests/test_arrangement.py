"""Tests for arrangements, flags, and the JK residue machinery."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jkscatter import arrangement, quiverjk
from jkscatter.arrangement import (build_arrangement, enumerate_flags,
                                   flag_residue, jk_basis, jk_global, jk_zeta,
                                   meet, sample_rcharges, scale_rcharges,
                                   singular_points, theta_lift,
                                   zeta_from_theta)
from jkscatter.errors import (DegenerateRCharges, JKScatterError,
                              NonRegularStability, NotProjective,
                              NotSumRegular)
from jkscatter.exact import (LinForm, Poly, RationalExpr, in_span,
                             iterated_residue, mat_det, mat_rank,
                             solve_linear, subst_linear_basis)
from jkscatter.quiver import DimVector, Quiver, Stability, bipartite_quiver
from jkscatter.quiverjk import (build_ZQ, jk_ab, jk_ab_infinity, jk_global_ZQ,
                                jk_tree_expansion)

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
        assert [w.arrow_index for w in a.weights] == [0, 1]
        # weight functionals are -u (head coordinate is the reference)
        assert all(w.form == lf(u_1_1=-1) for w in a.weights)

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
        a = build_arrangement(KRON2, d, rcharges=[Q(1, 3), Q(2, 5)])
        assert scale_rcharges(a, Q(1)) is a
        b = scale_rcharges(a, Q(7))
        assert b.rcharges == (Q(7, 3), Q(14, 5)) and b.reference == a.reference
        assert [w.rcharge for w in b.weights] == [Q(7, 3), Q(14, 5)]
        # the scaled arrangement is validated on its own
        with pytest.raises(DegenerateRCharges):
            scale_rcharges(a, Q(0))


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


def reference_singular_points(a):
    """Solve every combination, then evaluate every plane at every point
    (test reference): more than n active planes anywhere is degenerate."""
    planes = [lf + off for lf, off in a.hyperplanes()]
    locations = set()
    for combo in itertools.combinations(range(len(planes)), a.n):
        sol = solve_linear([planes[i].vector(a.variables) for i in combo],
                           [-planes[i].const for i in combo])
        if sol is not None:
            locations.add(tuple(sol))
    out = []
    for loc in sorted(locations):
        point = dict(zip(a.variables, loc))
        active = tuple(i for i, p in enumerate(planes) if p.evaluate(point) == 0)
        if len(active) > a.n:
            raise DegenerateRCharges(f"{len(active)} hyperplanes meet at {loc}")
        out.append((loc, active, tuple(planes[i] for i in active)))
    return out


def unchecked_arrangement(q, d, rcharges):
    """build_arrangement with explicit R-charges, minus its degeneracy check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrangement.Arrangement, "points", ())
        return build_arrangement(q, d, rcharges=rcharges)


def point_rows(a):
    """Locations, active sets and functionals, or the degeneracy."""
    try:
        return [(p.location, p.active, p.functionals) for p in singular_points(a)]
    except DegenerateRCharges:
        return DegenerateRCharges


def reference_rows(a):
    try:
        return reference_singular_points(a)
    except DegenerateRCharges:
        return DegenerateRCharges


@st.composite
def small_explicit_arrangements(draw):
    """An acyclic quiver on 2-3 vertices with n <= 3, d up to 2 per vertex,
    and R-charges that often coincide: drawn from a small pool, or all 0
    (lambda = 0), or generic."""
    nv = draw(st.integers(min_value=2, max_value=3))
    verts = [f"v{i}" for i in range(nv)]
    arrows = [(verts[i], verts[j]) for i in range(nv) for j in range(i + 1, nv)
              for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    dims = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=nv, max_size=nv))
    assume(arrows and 2 <= sum(dims) and sum(dims) - 1 <= 3)
    q = Quiver.make(verts, arrows)
    pool = st.sampled_from((Q(0), Q(1, 3), Q(1, 2), Q(2, 3), Q(1)))
    generic = st.integers(min_value=1, max_value=2 ** 31 - 1).map(lambda k: Q(k, 2 ** 31))
    lam = draw(st.sampled_from((0, 1, 1, 1)))
    rc = [lam * r for r in draw(st.lists(st.one_of(pool, generic),
                                         min_size=len(arrows), max_size=len(arrows)))]
    return unchecked_arrangement(q, DimVector.make(q, dict(zip(verts, dims))), rc)


class TestDegeneracyRule:
    """A repeated point (singular_points) against the all-planes scan."""

    @given(small_explicit_arrangements())
    @settings(max_examples=150, deadline=None)
    def test_matches_evaluate_every_plane(self, a):
        assert point_rows(a) == reference_rows(a)

    @pytest.mark.parametrize("q, dims, rcharges", [
        (KRON2, {"1": 1, "2": 1}, [Q(1, 3), Q(1, 3)]),                     # equal R
        (KRON2, {"1": 1, "2": 1}, [Q(0), Q(0)]),                           # lambda = 0
        (bipartite_quiver(1, 1), {"i1": 3, "j1": 1}, [Q(1, 3)]),           # non-abelian d
        (bipartite_quiver(2, 1), {"i1": 2, "i2": 1, "j1": 2}, [Q(1, 5), Q(2, 7)]),
    ])
    def test_forced_coincidences(self, q, dims, rcharges):
        a = unchecked_arrangement(q, dv(q, **dims), rcharges)
        assert point_rows(a) == reference_rows(a) == DegenerateRCharges


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


UW = ("u", "w")


class TestJKBasis:
    def test_positive_cone(self):
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        assert jk_basis(f, meet([lf(u=1), lf(w=1)], UW), (Q(2), Q(1)), UW) == 1

    def test_outside_cone_is_zero(self):
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        assert jk_basis(f, meet([lf(u=1), lf(w=1)], UW), (Q(2), Q(-1)), UW) == 0

    def test_tied_components_raise(self):
        # the basis case depends only on the signs of zeta's coordinates
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        values = [jk_basis(f, meet([lf(u=1), lf(w=1)], UW), zeta, UW)
                  for zeta in ((Q(1), Q(1)), (Q(2), Q(1)), (Q(1), Q(2)))]
        assert values == [1, 1, 1]

    def test_closed_form_at_simple_poles(self):
        # 3 (1+u) (u+w-1) / (u (u+w+1) (2w)) in x = (2u, -3w): the unit
        # factors give 1, -1 and 1 at 0, and 1/u = 2/x1, 1/(2w) = (-3/2)/x2
        basis = [lf(u=2), lf(w=-3)]
        f = RationalExpr(3, ((lf(u=1) + 1, 1), (lf(u=1, w=1) - 1, 1),
                             (lf(u=1), -1), (lf(u=1, w=1) + 1, -1),
                             (lf(w=2), -1)))
        zeta = (Q(2), Q(-3))
        assert jk_basis(f, meet(basis, UW), zeta, UW) == \
            3 * -1 * 2 * Q(-3, 2) == \
            iterated_residue(subst_linear_basis(f, basis, ("u", "w")), ["x1", "x2"])
        # a numerator factor vanishing at 0, or a basis form without a pole
        for g in (RationalExpr(1, ((lf(u=1, w=1), 1),)), RationalExpr(1, ((lf(w=1), 1),))):
            assert jk_basis(f * g, meet(basis, UW), zeta, UW) == 0

    def test_double_pole(self):
        # (1 + u + 5w + u^2) / (u^2 w): the Taylor coefficient at u^1 w^0
        f = RationalExpr(1, ((lf(u=1), -2), (lf(w=1), -1)),
                         Poly({(): 1, (("u", 1),): 1, (("w", 1),): 5,
                               (("u", 2),): 1}))
        assert jk_basis(f, meet([lf(u=1), lf(w=1)], UW), (Q(1), Q(1)), UW) == 1

    def test_denominator_off_the_basis(self):
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1), (lf(u=1, w=1), -1)))
        with pytest.raises(ValueError):
            jk_basis(f, meet([lf(u=1), lf(w=1)], UW), (Q(2), Q(1)), UW)

    def test_agrees_with_flag_sum(self):
        basis = (lf(u=1), lf(u=1, w=1))
        f = RationalExpr(1, ((basis[0], -2), (basis[1], -1)))
        zeta = (Q(3), Q(1))
        assert jk_basis(f, meet(basis, UW), zeta, UW) == \
            jk_zeta(f, basis, zeta, ("u", "w"), var_order=("u", "w"))


NAMES = ("u1", "u2", "u3")
small = st.integers(min_value=-3, max_value=3)
nonzero = small.filter(bool)


@st.composite
def simple_germs(draw):
    """A germ at 0 with poles along a random basis, a zeta and the basis.

    Each basis form b_i gives the pole (b_i / k_i)^-e, e = 1 or 2; extra
    factors are units at 0 or vanishing numerators, some of them along a
    basis form, and the polynomial numerator is random.  A random linear
    denominator may be added; ``off`` says that the germ has a vanishing
    denominator that is not along the basis.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    names = NAMES[:n]

    def form(const=0):
        return LinForm(dict(zip(names, draw(st.lists(small, min_size=n, max_size=n)))),
                       const)

    basis = [form() for _ in range(n)]
    assume(mat_det([b.vector(names) for b in basis]) != 0)
    factors = [(b * Q(1, draw(nonzero)), -draw(st.sampled_from((1, 1, 1, 2))))
               for b in basis]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        unit = form(draw(nonzero))
        factors.append((unit, draw(st.sampled_from((-2, -1, 1, 2)))))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        vanishing = (basis[draw(st.integers(0, n - 1))] * draw(nonzero)
                     if draw(st.booleans()) else form())
        assume(not vanishing.is_zero())
        factors.append((vanishing, draw(st.integers(min_value=1, max_value=2))))
    if draw(st.booleans()):
        extra = form()
        assume(not extra.is_zero())
        factors.append((extra, -1))
    num = Poly({tuple((v, 1) for v in sub): draw(small)
                for r in range(3) for sub in itertools.combinations(names, r)})
    # mostly inside the cone, where the residue is taken: ties are welcome
    coeffs = draw(st.lists(st.sampled_from((1, 2, 3, 1, 2, 3, -1, 0)),
                           min_size=n, max_size=n))
    zeta = tuple(sum((c * b.vector(names)[k] for c, b in zip(coeffs, basis)), Q(0))
                 for k in range(n))
    f = RationalExpr(draw(nonzero), factors, num)
    along = {b.canonical()[1] for b in basis}
    off = any(e < 0 and lf.const == 0 and lf not in along for lf, e in f.factors)
    return f, basis, zeta, coeffs, off


class TestClosedForm:
    """jk_basis against the iterated residue in every order of the basis."""

    @given(simple_germs())
    @settings(max_examples=200, deadline=None)
    def test_matches_iterated_residue_in_every_order(self, case):
        f, basis, zeta, coeffs, off = case
        names = NAMES[:len(basis)]
        if any(c == 0 for c in coeffs):
            with pytest.raises(NotSumRegular):
                jk_basis(f, meet(basis, names), zeta, names)
            return
        if any(c < 0 for c in coeffs):
            assert jk_basis(f, meet(basis, names), zeta, names) == 0
            return
        if off:
            with pytest.raises(ValueError):
                jk_basis(f, meet(basis, names), zeta, names)
            return
        value = jk_basis(f, meet(basis, names), zeta, names)
        xs = [f"x{i + 1}" for i in range(len(basis))]
        for perm in itertools.permutations(basis):
            g = subst_linear_basis(f, perm, var_order=names, new_names=xs)
            assert iterated_residue(g, xs) == value

    @given(simple_germs(),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=len(NAMES), max_size=len(NAMES)))
    @settings(max_examples=200, deadline=None)
    def test_shifted_germ_is_read_at_its_point(self, case, shift):
        # u -> u - p in f and in the basis: the planes now meet at p, and
        # the local residue there is the one the germ had at 0
        f, basis, zeta, _coeffs, _off = case
        names = NAMES[:len(basis)]
        move = {v: LinForm({v: 1}, -p) for v, p in zip(names, shift)}

        def local(g, planes):
            try:
                return jk_basis(g, meet(planes, names), zeta, names)
            except (NotSumRegular, ValueError) as exc:
                return type(exc)

        assert local(f.subs_linear(move), [b.subs(move) for b in basis]) == \
            local(f, basis)


# -- zeta from theta -----------------------------------------------------------

class TestZetaFromTheta:
    def test_lift_is_diagonal(self):
        k11 = bipartite_quiver(1, 1)
        a = build_arrangement(k11, dv(k11, i1=2, j1=1), seed=0)
        lifted = theta_lift(a, stab(k11, 1, -2))
        assert lifted == (1, 1)  # two i1 coordinates; j1 holds the reference

    def test_tied_theta_gets_perturbed(self):
        # the raw lift is tied and stays as it is: the tie changes no value
        k21 = bipartite_quiver(2, 1)
        theta = stab(k21, 1, 1, -2)
        a = build_arrangement(k21, dv(k21, i1=1, i2=1, j1=1), seed=5)
        zeta = zeta_from_theta(a, theta)
        assert zeta == (-1, -1)
        z = build_ZQ(k21, a.dim, a)
        untied = (Q(-1) + Q(1, 1000), Q(-1) + Q(1, 10 ** 6))
        assert jk_global(z, a, zeta) == jk_global(z, a, untied) == 1
        assert jk_tree_expansion(k21, theta, a)[0] == 1

    def test_wall_theta_rejected(self):
        # K(2,2) with the symmetric stability: the lift lies on a plain wall
        k22 = bipartite_quiver(2, 2)
        a = build_arrangement(k22, dv(k22, i1=1, i2=1, j1=1, j2=1), seed=1)
        with pytest.raises(NonRegularStability) as ei:
            zeta_from_theta(a, stab(k22, 1, 1, -1, -1))
        assert ei.value.witness


PERTURBATION_SHIFT = 2 ** 40


def reference_zeta_from_theta(a, theta):
    """The all-subsets span scan over plain and sum walls (test reference).

    It perturbs zeta off every sum wall, as the library once did; the
    library now returns the raw lift, which must give the same JK values.

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
        expected = outcome(reference_zeta_from_theta, a, theta)
        got = outcome(zeta_from_theta, a, theta)
        if expected[0] != "value":
            assert got == expected
            return
        raw = tuple(-x for x in theta_lift(a, theta))
        assert got == ("value", raw)
        perturbed = expected[1]
        z = build_ZQ(a.quiver, a.dim, a)
        value = jk_global(z, a, perturbed)
        assert jk_global(z, a, raw) == value
        if a.dim.is_abelian() and sum(a.dim[v] * theta[v] for v in a.quiver.vertices) == 0:
            assert jk_tree_expansion(a.quiver, theta, a)[0] == value
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quiverjk, "zeta_from_theta", lambda _a, _t: perturbed)
                assert jk_tree_expansion(a.quiver, theta, a)[0] == value

    def test_zero_dimensional_witness_is_empty(self):
        # n = 0: the one singular point has an empty basis and no wall, so
        # zeta = () is regular and every route counts the point once
        k11 = bipartite_quiver(1, 1)
        d, theta = dv(k11, i1=1, j1=0), stab(k11, 0, 0)
        a = build_arrangement(k11, d, seed=0)
        assert a.n == 0
        assert zeta_from_theta(a, theta) == ()
        assert jk_global_ZQ(k11, theta, a) == 1
        assert jk_tree_expansion(k11, theta, a)[0] == 1
        assert jk_ab(k11, d, theta, rseed=0) == 1
        assert jk_ab_infinity(k11, d, theta) == 1


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
