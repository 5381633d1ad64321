"""Tests for arrangements, flags, and the JK residue machinery."""

import io
import itertools
import json
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jkscatter import arrangement, cli, exact, quiverjk
from jkscatter.arrangement import (Flag, build_arrangement, enumerate_flags,
                                   flag_residue, jk_basis, jk_global, jk_zeta,
                                   meet, sample_rcharges, singular_points, theta_lift,
                                   zeta_from_theta)
from jkscatter.errors import (DegenerateRCharges, JKScatterError,
                              NonRegularStability, NotProjective,
                              NotSumRegular)
from jkscatter.exact import (LinForm, Poly, RationalExpr, in_span,
                             iterated_residue, mat_det, mat_inverse, mat_rank,
                             rref, solve_linear, subst_linear_basis)
from jkscatter.quiver import (DimVector, Quiver, Stability, _cut_sums,
                              _spanning_tree_indices, _tree_walk, abelianize,
                              bipartite_quiver)
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

    @pytest.mark.parametrize("seed", [0, 11, 2 ** 31 - 1])
    def test_seed_names_one_sample(self, seed):
        k22 = bipartite_quiver(2, 2)
        a = build_arrangement(k22, dv(k22, i1=1, i2=1, j1=1, j2=1), seed=seed)
        assert a.rcharges == tuple(sample_rcharges(len(k22.arrows), seed))

    def test_sample_rcharges_denominator(self):
        rc = sample_rcharges(4, 7)
        assert len(set(rc)) == 4
        assert all(0 < r < 1 and (2 ** 31) % r.denominator == 0 for r in rc)

    def test_degenerate_rcharges_detected(self):
        with pytest.raises(DegenerateRCharges,
                           match=r"^more than 1 hyperplanes meet at \(1/3\)$"):
            build_arrangement(KRON2, dv(KRON2, **{"1": 1, "2": 1}),
                              rcharges=[Q(1, 3), Q(1, 3)])


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


def combination_scan(a):
    """The all-combinations scan singular_points replaced (test reference):
    meet every n planes, skip the dependent ones, and stop at the first
    repeated location.  Rows (location, active), or the degeneracy message."""
    planes = [lf + off for lf, off in a.hyperplanes()]
    pts = {}
    for combo in itertools.combinations(range(len(planes)), a.n):
        pt = meet([planes[i] for i in combo], a.variables, combo)
        if pt is None:
            continue
        if pt.location in pts:
            at = ", ".join(f"{x.numerator}/{x.denominator}" for x in pt.location)
            return f"more than {a.n} hyperplanes meet at ({at})"
        pts[pt.location] = pt
    return [(loc, pts[loc].active) for loc in sorted(pts)]


def tree_rows(a):
    try:
        return [(p.location, p.active) for p in singular_points(a)]
    except DegenerateRCharges as exc:
        return str(exc)


class TestSpanningTreeBases:
    """singular_points meets the spanning-tree bases only, in the order of
    the combination scan, so points, active sets and the first repeated
    location are those of the scan."""

    @given(small_explicit_arrangements())
    @settings(max_examples=150, deadline=None)
    def test_matches_combination_scan(self, a):
        assert tree_rows(a) == combination_scan(a)

    @pytest.mark.parametrize("q, dims, seed", [
        (bipartite_quiver(2, 2), {"i1": 2, "i2": 2, "j1": 1, "j2": 2}, 1),
        (bipartite_quiver(2, 1), {"i1": 2, "i2": 1, "j1": 2}, 3),
        (bipartite_quiver(3, 1), {"i1": 1, "i2": 1, "i3": 1, "j1": 2}, 1),
        (bipartite_quiver(2, 2), {"i1": 1, "i2": 1, "j1": 1, "j2": 1}, 7),
    ])
    def test_seeded_matches_combination_scan(self, q, dims, seed):
        a = unchecked_arrangement(q, dv(q, **dims),
                                  sample_rcharges(len(q.arrows), seed))
        assert tree_rows(a) == combination_scan(a)

    def test_one_meet_per_basis(self, monkeypatch):
        # K(1,1), d = (2;1): 5 bases among the C(4, 2) = 6 pairs of planes,
        # each walked once over the integer edge table, with no elimination
        walks, eliminations = [], []
        real_walk, real_gj = arrangement._integer_walk, exact._gauss_jordan
        monkeypatch.setattr(arrangement, "_integer_walk",
                            lambda *a: walks.append(a) or real_walk(*a))
        monkeypatch.setattr(exact, "_gauss_jordan",
                            lambda *a: eliminations.append(a) or real_gj(*a))
        q = bipartite_quiver(1, 1)
        a = unchecked_arrangement(q, dv(q, i1=2, j1=1), [Q(1, 3)])
        pts = singular_points(a)
        assert len(walks) == len(pts) == 5
        assert eliminations == []


def elimination_meet(planes, var_order):
    """The elimination meet replaced (test reference): one inverse M^-1 of
    the planes' linear parts gives the location -M^-1 const and zeta's
    coordinates zeta M^-1.  (location, M^-1), or None unless a basis."""
    n = len(var_order)
    minv = mat_inverse([p.vector(var_order) for p in planes]) if len(planes) == n else None
    if minv is None:
        return None
    return tuple(-sum((row[i] * planes[i].const for i in range(n)), Q(0))
                 for row in minv), minv


def coordinates(pt, zeta):
    """c with zeta = sum c_i (linear part of functional i): the cut sums of
    zeta over the scales (the SingularPoint.coordinates that jk_basis and
    zeta_from_theta replaced by sign tests on the cut sums)."""
    sums = _cut_sums(pt.walk, [*zeta, Q(0)])
    return [s / k for s, k in zip(sums, pt.scales)]


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def edge_planes(draw):
    """Coordinates x0.. (0-4 of them) and planes k (x_head - x_tail) + c on
    them and the reference node (x = 0), with k != 0: as many planes as
    coordinates, most of the time, so trees and dependent sets both occur
    (repeated pairs and cycles), and sometimes one plane fewer or more."""
    n = draw(st.integers(min_value=0, max_value=4))
    names = tuple(f"x{i}" for i in range(n))

    def node(i):
        return LinForm.var(names[i]) if i < n else LinForm()

    count = 0 if n == 0 else max(0, n + draw(st.sampled_from((0, 0, 0, -1, 1))))
    planes = []
    for _ in range(count):
        t, h = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
        planes.append((node(h) - node(t)) * draw(fractions.filter(bool)) + draw(fractions))
    zeta = tuple(draw(st.lists(fractions, min_size=n, max_size=n)))
    return planes, names, zeta


class TestMeetWalksTheTree:
    """meet (the tree walk) against the elimination it replaced."""

    @given(edge_planes())
    @settings(max_examples=300, deadline=None)
    def test_matches_elimination(self, case):
        planes, names, zeta = case
        pt, ref = meet(planes, names), elimination_meet(planes, names)
        assert (pt is None) == (ref is None)
        if pt is None:
            return
        location, minv = ref
        assert pt.location == location
        assert coordinates(pt, zeta) == [sum((z * row[i] for z, row in zip(zeta, minv)), Q(0))
                                         for i in range(len(names))]
        assert all(p.evaluate(dict(zip(names, pt.location))) == 0 for p in planes)
        assert pt.functionals == tuple(planes)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True).map(tuple),
                 min_size=max(0, n - 1), max_size=n + 1),
        st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))))
    @settings(max_examples=300, deadline=None)
    def test_integer_walk_is_the_tree_walk(self, case):
        # the walk over per-node lists takes quiver._tree_walk's steps in
        # its order, and puts each node at its parent's integer -+ the step
        n, edges, steps = case
        got, ref = arrangement._integer_walk(n, edges, steps), _tree_walk(range(n + 1), edges, n)
        assert (got is None) == (ref is None)
        if got is not None:
            walk, at = got
            assert walk == ref and at[n] == 0
            assert all(at[v] == (at[p] - steps[k] if down else at[p] + steps[k])
                       for v, k, p, down in walk)

    @pytest.mark.parametrize("plane", [lf(u=1, w=1), lf(u=2, w=-1), lf(u=1, z=-1),
                                       lf() + 1])
    def test_non_edge_plane_is_named(self, plane):
        with pytest.raises(ValueError, match="is not an edge") as ei:
            meet([lf(u=1), plane], UW)
        assert repr(plane) in str(ei.value)


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

    def test_no_coordinates(self):
        # n = 0: the one empty flag, nu = sign(dmu) = 1 and in the cone, so
        # the residue of a constant is the constant
        assert enumerate_flags((), (), ()) == [Flag((), (), 1, (), (), True)]
        assert jk_zeta(RationalExpr(5), (), (), ()) == 5

    @pytest.mark.parametrize("dmu_order", [("u",), ("u", "u"), ("u", "z"),
                                           ("u", "w", "z")])
    def test_dmu_order_must_order_the_coordinates(self, dmu_order):
        with pytest.raises(ValueError, match="is not an ordering"):
            enumerate_flags(self.ACTIVE, self.ZETA, dmu_order, var_order=UW)


def reference_dmu_sign(dmu_order, base):
    """Sign of the permutation carrying `base` to `dmu_order`, by cycles."""
    perm = [list(base).index(v) for v in dmu_order]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def reference_enumerate_flags(activeset, zeta, dmu_order, var_order=None):
    """The subspace-table enumeration enumerate_flags replaced (test
    reference): the span of every independent subset of active forms, keyed
    by its reduced row echelon form, the forms each span holds, and a chain
    of spans grown by containment tests, sorted by partition at the end."""
    base = tuple(var_order) if var_order is not None else tuple(sorted(dmu_order))
    n = len(base)
    zeta = tuple(Q(x) for x in zeta)
    vecs = [f.vector(base) for f in activeset]
    dsign = reference_dmu_sign(dmu_order, base)

    spaces = [dict() for _ in range(n + 1)]
    spaces[0][()] = ()
    for j in range(1, n + 1):
        for sub in itertools.combinations(range(len(vecs)), j):
            rows = [list(vecs[i]) for i in sub]
            if mat_rank(rows) == j:
                spaces[j].setdefault(rref(rows), sub)

    def contains(big, small_sub):
        gens = [list(r) for r in big]
        return all(in_span(vecs[i], gens) for i in small_sub)

    def members(space_key):
        gens = [list(r) for r in space_key]
        return tuple(i for i in range(len(vecs)) if in_span(vecs[i], gens))

    member_cache = {key: members(key) for j in range(1, n + 1) for key in spaces[j]}
    flags = []

    def rec(j, chain):
        if j == n:
            finish(chain)
            return
        prev = chain[-1] if chain else ()
        prev_members = member_cache[prev] if prev else ()
        for key in spaces[j + 1]:
            if prev and not contains(key, member_cache[prev]):
                continue
            if not [i for i in member_cache[key] if i not in prev_members]:
                continue
            rec(j + 1, chain + [key])

    def finish(chain):
        partition = []
        prev_members = ()
        for key in chain:
            cur = member_cache[key]
            partition.append(tuple(i for i in cur if i not in prev_members))
            prev_members = cur
        kappas = []
        running = [Q(0)] * n
        for part in partition:
            for i in part:
                running = [a + b for a, b in zip(running, vecs[i])]
            kappas.append(tuple(running))
        det = mat_det(kappas)
        nu = 0 if det == 0 else (1 if det > 0 else -1) * dsign
        coeffs = None
        in_cone = False
        if nu != 0:
            cols = [[kappas[j][i] for j in range(n)] for i in range(n)]
            coeffs = tuple(solve_linear(cols, list(zeta)))
            if any(c == 0 for c in coeffs):
                raise NotSumRegular("zeta lies on a kappa-cone wall",
                                    witness=partition)
            in_cone = all(c > 0 for c in coeffs)
        gamma = [activeset[part[0]] for part in partition]
        gdet = mat_det([g.vector(base) for g in gamma])
        if gamma and gdet != 0:
            gamma[-1] = gamma[-1] * (Q(dsign) / gdet)
        flags.append(Flag(tuple(partition), tuple(kappas), nu, tuple(gamma),
                          coeffs, in_cone))

    rec(0, [])
    flags.sort(key=lambda fl: fl.partition)
    return flags


def flag_outcomes(activeset, zeta, dmu_order, var_order):
    """(library, reference) outcomes: the flags in order, or the error and
    its witness."""
    return tuple(outcome(fn, activeset, zeta, dmu_order, var_order)
                 for fn in (enumerate_flags, reference_enumerate_flags))


@st.composite
def flag_cases(draw):
    """Active sets in 0 <= n <= 3 coordinates with up to n + 3 forms, entries in
    -2..2, so zero and parallel forms and dependent sets occur, some forms
    drawn as multiples of earlier ones; zeta in -2..2, often on a kappa-cone
    wall, and dmu_order any ordering of the coordinates."""
    n = draw(st.integers(min_value=0, max_value=3))
    names = tuple(f"x{i}" for i in range(n))
    entry = st.integers(min_value=-2, max_value=2)
    vectors = []
    for _ in range(draw(st.integers(min_value=0, max_value=n + 3))):
        if vectors and draw(st.booleans()):
            vectors.append([draw(entry) * x for x in draw(st.sampled_from(vectors))])
        else:
            vectors.append(draw(st.lists(entry, min_size=n, max_size=n)))
    active = tuple(LinForm({v: Q(c) for v, c in zip(names, vec)}) for vec in vectors)
    zeta = tuple(Q(z) for z in draw(st.lists(entry, min_size=n, max_size=n)))
    return active, zeta, tuple(draw(st.permutations(names))), names


class TestFlagsGrowOneFlatAtATime:
    """enumerate_flags against the subspace table it replaced: the same
    flags in the same order, or NotSumRegular with the same witness."""

    @given(flag_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_subspace_table(self, case):
        got, expected = flag_outcomes(*case)
        assert got == expected

    @pytest.mark.parametrize("zeta, flags, walls", [
        ((Q(7, 3), Q(-5, 11), Q(13, 17), Q(2, 19)), 660, 0),
        ((Q(1), Q(2), Q(3), Q(-7)), 276, 8),
    ])
    def test_degenerate_points_of_k21(self, zeta, flags, walls):
        # K(2,1) d=(2,1;2) at seed 0, whose points build_arrangement rejects:
        # the 13 points where 5 or 6 planes meet in n = 4; the flags of the
        # points where zeta is on no kappa-cone wall, and the points where it is
        q = bipartite_quiver(2, 1)
        a = unchecked_arrangement(q, dv(q, i1=2, i2=1, j1=2),
                                  sample_rcharges(len(q.arrows), 0))
        planes = [lf + off for lf, off in a.hyperplanes()]
        index = {v: i for i, v in enumerate(a.variables)}
        edges = [(*(index[v] for v in p.coeffs), a.n, a.n)[:2] for p in planes]
        active = {}
        for basis in _spanning_tree_indices(a.n + 1, edges):
            pt = meet([planes[i] for i in basis], a.variables, basis)
            active.setdefault(pt.location, set()).update(basis)
        degenerate = [sorted(idx) for idx in active.values() if len(idx) > a.n]
        assert len(degenerate) == 13
        seen = []
        for idx in degenerate:
            forms = tuple(planes[i] - planes[i].const for i in idx)
            got, expected = flag_outcomes(forms, zeta, a.variables, a.variables)
            assert got == expected
            seen.append(got)
        assert sum(len(got[1]) for got in seen if got[0] == "value") == flags
        assert sum(got[0] == "NotSumRegular" for got in seen) == walls


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
        basis = (lf(u=1), lf(u=-1, w=1))
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

    The basis is a random spanning tree of scaled edges k (x_head - x_tail)
    on the coordinates and the reference node (x = 0): meet accepts no
    other basis.  Each basis form b_i gives the pole (b_i / k_i)^-e, e = 1 or 2;
    extra factors are units at 0 or vanishing numerators, some of them
    along a basis form, and the polynomial numerator is random.  A random
    linear denominator may be added; ``off`` says that the germ has a
    vanishing denominator that is not along the basis.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    names = NAMES[:n]

    def form(const=0):
        return LinForm(dict(zip(names, draw(st.lists(small, min_size=n, max_size=n)))),
                       const)

    def node(i):
        return LinForm.var(names[i]) if i < n else LinForm()

    placed, basis = [n], []
    for v in draw(st.permutations(range(n))):
        p = draw(st.sampled_from(placed))
        t, h = (p, v) if draw(st.booleans()) else (v, p)
        basis.append((node(h) - node(t)) * draw(nonzero))
        placed.append(v)
    basis = draw(st.permutations(basis))
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


def residue_outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (NotSumRegular, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


class TestIntegerRead:
    """quiverjk's closed-form read of Z_Q's residue off the edge table
    against jk_basis, the general read of the built Z_Q."""

    # the jk_ab jobs of the benchmark's jk-finite workload; their values do
    # not depend on the R-charges
    K11, K21, K31 = (bipartite_quiver(a, b) for a, b in ((1, 1), (2, 1), (3, 1)))
    FIXTURES = [(K31, (1, 1, 1, 2), (2, 2, 2, -3), 2),
                (K21, (2, 1, 2), (2, 2, -3), 0),
                (K11, (2, 3), (3, -2), 0)]

    @pytest.mark.parametrize("q, d, zeta, value", FIXTURES,
                             ids=["K31-1112", "K21-212", "K11-23"])
    @pytest.mark.parametrize("rseed", [0, 7, 2 ** 31 - 1])
    # lambda 2^31 / 3 cancels the draws' denominator 2^31: jk_ab's one gcd
    # must reduce its integer R-charges to build_arrangement's table over 3
    @pytest.mark.parametrize("lam", [Q(1), Q(1000), Q(3, 7), Q(2 ** 31, 3)])
    def test_jk_ab_fixtures(self, monkeypatch, q, d, zeta, value, rseed, lam):
        # jk_ab reads Z_Q's residue off each term's edge table
        # (quiverjk._zq_residue) where zeta's cone is.  A term's table,
        # points and zeta are those of its arrangement as abelianize and
        # build_arrangement build it; at every point of every term the table
        # read equals jk_basis on build_ZQ, read with a zeta inside the
        # point's cone, and the term's own zeta gives that value or 0 as the
        # table read is taken there or not
        tables, reads = [], []
        real_global, real_read = quiverjk._zq_global, quiverjk._zq_residue
        monkeypatch.setattr(quiverjk, "_zq_global",
                            lambda *args: tables.append(args) or real_global(*args))
        monkeypatch.setattr(quiverjk, "_zq_residue",
                            lambda *args: reads.append(args) or real_read(*args))
        dim, theta = DimVector.make(q, dict(zip(q.vertices, d))), stab(q, *zeta)
        assert jk_ab(q, dim, theta, rseed, lam) == value
        terms = abelianize(q, dim, theta)
        assert len(tables) == len(terms) and reads
        read_at = {(id(table), tuple(basis)) for table, _big, basis, _at in reads}
        for k, (term, (table, big, points, term_zeta)) in enumerate(zip(terms, tables)):
            rbar = sample_rcharges(len(term.quiver.arrows), rseed + 1000003 * k)
            a = build_arrangement(term.quiver, term.dimension, rcharges=[lam * r for r in rbar])
            assert (a.table, a.denominator) == (table, big)
            assert [(pt.numerators, pt.active, pt.walk) for pt in a.points] == points
            assert tuple(term_zeta) == zeta_from_theta(a, term.stability)
            z = build_ZQ(a)
            for pt in a.points:
                inside = tuple(sum((f.coeff(v) for f in pt.functionals), Q(0))
                               for v in a.variables)
                got = Q(*real_read(table, big, pt.active, pt.numerators))
                assert got == jk_basis(z, pt, inside, a.variables)
                assert jk_basis(z, pt, term_zeta, a.variables) == \
                    (got if (id(table), pt.active) in read_at else 0)

    @pytest.mark.parametrize("zeta, expected", [
        ((Q(1), Q(1)), ("value", Q(3, 4))),
        ((Q(2), Q(-1)), ("value", Q(0))),
        ((Q(1), Q(0)), ("NotSumRegular", "zeta has vanishing components [1] w.r.t. the basis",
                        [lf(u=1) - 1])),
    ])
    def test_non_integral_factor(self, zeta, expected):
        # planes u - 1 and w - u meet at p = (1, 1), where zeta = (c1 - c2,
        # c2); the factor 2u + 3w - 1 canonicalizes to u + (3/2) w - 1/2,
        # which is read as a Fraction: 4 at p, and (u + 2) gives 3
        planes = [lf(u=1) - 1, lf(u=-1, w=1)]
        f = RationalExpr(1, ((planes[0], -1), (planes[1], -1), (lf(u=2, w=3) - 1, -1),
                             (lf(u=1) + 2, 1)))
        assert residue_outcome(jk_basis, f, meet(planes, UW), zeta, UW) == expected


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
        z = build_ZQ(a)
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
        z = build_ZQ(a)
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
        z = build_ZQ(a)
        zeta = zeta_from_theta(a, stab(KRON2, 1, -1))
        assert jk_global(z, a, zeta) == 2

    def test_unstable_side_vanishes(self):
        d = dv(KRON2, **{"1": 1, "2": 1})
        a = build_arrangement(KRON2, d, rcharges=[Q(1, 3), Q(2, 5)])
        z = build_ZQ(a)
        zeta = zeta_from_theta(a, stab(KRON2, -1, 1))
        assert jk_global(z, a, zeta) == 0


# -- views built on first read -------------------------------------------------

def eager_arrangement(q, d, rc):
    """The eager build that made every plane and point as LinForms and
    Fractions alongside the edge table (test reference): the weights'
    (form, rcharge, arrow, arrow_index), the roots, and each point's
    (location, active, functionals, walk, scales, numerators, denominator);
    DegenerateRCharges with the same message as build_arrangement."""
    rv = d.support()[-1]
    rk = d[rv]
    coords = [(v, k) for v in q.vertices for k in range(1, d[v] + 1) if (v, k) != (rv, rk)]
    node = {vk: i for i, vk in enumerate(coords + [(rv, rk)])}
    variables = tuple(arrangement.coord_name(v, k) for v, k in coords)

    def proj(vertex, k):
        if (vertex, k) == (rv, rk):
            return LinForm()
        return LinForm.var(arrangement.coord_name(vertex, k))

    ends = [(t, h, i, j, r, idx) for idx, ((t, h), r) in enumerate(zip(q.arrows, rc))
            for i in range(1, d[t] + 1) for j in range(1, d[h] + 1)]
    pairs = [(v, i, j) for v in q.vertices
             for i in range(1, d[v] + 1) for j in range(1, d[v] + 1) if i != j]
    weights = tuple((proj(h, j) - proj(t, i), r, (t, h), idx) for t, h, i, j, r, idx in ends)
    roots = tuple(proj(v, j) - proj(v, i) for v, i, j in pairs)
    big = lcm(*(r.denominator for r in rc))
    table = (tuple((node[t, i], node[h, j], r.numerator * (big // r.denominator))
                   for t, h, i, j, r, _idx in ends)
             + tuple((node[v, i], node[v, j], -big) for v, i, j in pairs))
    n = len(variables)
    edges = [(t, h) for t, h, _c in table]
    pts = {}
    for basis in _spanning_tree_indices(n + 1, edges):
        walk, at = arrangement._integer_walk(n, [edges[i] for i in basis],
                                             [table[i][2] for i in basis])
        key = tuple(at[:n])
        if key in pts:
            where = ", ".join(f"{x.numerator}/{x.denominator}" for x in (Q(y, big) for y in key))
            raise DegenerateRCharges(f"more than {n} hyperplanes meet at ({where})")
        pts[key] = basis, walk
    planes = [w[0] + w[1] for w in weights] + [r - 1 for r in roots]
    points = [(tuple(Q(x, big) for x in key), basis, tuple(planes[i] for i in basis), walk,
               (Q(1),) * n, key, big)
              for key, (basis, walk) in sorted(pts.items())]
    return variables, weights, roots, points


def eager_meet(planes, var_order, active=()):
    """meet with its location and functionals made at once (test
    reference): the point's old fields, or None unless a basis."""
    pt = meet(planes, var_order, active)
    if pt is None:
        return None
    return (tuple(Q(x, pt.denominator) for x in pt.numerators), active, tuple(planes),
            pt.walk, pt.scales, pt.numerators, pt.denominator)


def point_fields(pt):
    """A point's old fields, read through its views."""
    return (pt.location, pt.active, pt.functionals, pt.walk, pt.scales, pt.numerators,
            pt.denominator)


@st.composite
def bipartite_builds(draw):
    """K(l1, l2) with l1, l2 <= 3, d entries 0..2 (a 2 gives roots), n <=
    4, and seeded R-charges scaled by lambda 1 or 1000."""
    l1, l2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = bipartite_quiver(l1, l2)
    dims = draw(st.lists(st.integers(0, 2), min_size=l1 + l2, max_size=l1 + l2))
    assume(1 <= sum(dims) <= 5)
    lam = draw(st.sampled_from((Q(1), Q(1000))))
    rc = [lam * r for r in sample_rcharges(len(q.arrows), draw(st.integers(0, 50)))]
    return q, DimVector.make(q, dict(zip(q.vertices, dims))), rc


def linform_count(monkeypatch):
    """A list that grows by one per LinForm constructed from now on."""
    made, real = [], exact.LinForm.__init__
    monkeypatch.setattr(exact.LinForm, "__init__",
                        lambda self, *a, **kw: made.append(1) or real(self, *a, **kw))
    return made


class TestViewsOnFirstRead:
    """A build computes the integer table alone: Weight.form,
    Arrangement.roots and each point's location and functionals are built
    on first read, equal to the eager build's."""

    def test_integer_paths_build_no_linform(self, monkeypatch):
        made = linform_count(monkeypatch)
        k31, k22, k11 = (bipartite_quiver(a, b) for a, b in ((3, 1), (2, 2), (1, 1)))
        assert jk_ab(k31, dv(k31, i1=1, i2=1, i3=1, j1=2), stab(k31, 2, 2, 2, -3),
                     rseed=0) == 2
        assert made == []
        d = dv(k22, i1=1, i2=1, j1=1, j2=1)
        theta = stab(k22, 3, 1, -2, -2)
        a = build_arrangement(k22, d, seed=0)
        value = jk_global_ZQ(k22, theta, a)
        assert made == []
        # the degenerate refusal of `jk` on K(1,1) d=(316;1): 99,856 planes
        out = io.StringIO()
        assert cli.main(["jk", "--l1", "1", "--l2", "1", "--d", "316;1",
                         "--zeta", "1,-316"], out=out) == 2
        report = json.loads(out.getvalue())
        assert report["error"] == "DegenerateRCharges"
        where = ", ".join(["1813382119/2147483648"] * 315 + ["3960865767/2147483648"])
        assert report["message"] == f"more than 316 hyperplanes meet at ({where})"
        # each view is built on its first read, then read from its cache
        b = build_arrangement(k11, dv(k11, i1=2, j1=1), seed=0)
        assert made == []
        pt = b.points[0]
        for obj, name, count in [(b, "roots", 2), (b.weights[0], "form", 1),
                                 (pt, "functionals", 2), (pt, "location", 0)]:
            assert name not in vars(obj)
            view = getattr(obj, name)
            assert len(made) == count and getattr(obj, name) is view
            made.clear()
        assert jk_global(build_ZQ(a), a, zeta_from_theta(a, theta)) == value
        assert a == build_arrangement(k22, d, seed=0) != build_arrangement(k22, d, seed=1)

    @given(bipartite_builds())
    @settings(max_examples=150, deadline=None)
    def test_matches_eager_build(self, case):
        q, d, rc = case
        try:
            variables, weights, roots, points = eager_arrangement(q, d, rc)
        except DegenerateRCharges as exc:
            with pytest.raises(DegenerateRCharges) as ei:
                build_arrangement(q, d, rcharges=rc)
            assert str(ei.value) == str(exc)
            return
        a, b = (build_arrangement(q, d, rcharges=rc) for _ in range(2))
        assert a.variables == variables
        assert [(w.form, w.rcharge, w.arrow, w.arrow_index) for w in a.weights] == list(weights)
        assert a.roots == roots
        assert [point_fields(pt) for pt in a.points] == points
        assert a.hyperplanes() == [w[:2] for w in weights] + [(r, Q(-1)) for r in roots]
        # meet's points: the same old fields from the same planes
        met = [meet(pt[2], variables, pt[1]) for pt in points]
        assert [point_fields(pt) for pt in met] == [eager_meet(pt[2], variables, pt[1])
                                                    for pt in points]
        # == and hash still compare the old fields: a rebuild is equal, and
        # a met point equals a built one exactly when their old fields do
        assert a == b and hash(a) == hash(b) and a.weights == b.weights
        pool = list(a.points) + list(b.points) + met
        for p, r in itertools.product(pool, repeat=2):
            assert (p == r) == (point_fields(p) == point_fields(r))
            assert p != r or hash(p) == hash(r)
