"""Tests for quiver combinatorics: validation, reduced quivers, spanning
trees, stability coefficients, and abelianization.
"""

import gc
from fractions import Fraction as Q
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter import quiver
from jkscatter.errors import (DuplicateVertex, HasLoop, HasOrientedCycle,
                              NonRegularStability, NotATree, NotNormalized,
                              TooManyTerms, TooManyTrees, TooMuchWork, UnknownVertex)
from jkscatter.exact import solve_linear
from jkscatter.quiver import (DimVector, Quiver, SpanningTree, Stability, _bits,
                              _connected, _edges, _spanning_tree_indices, _type_dp,
                              abelianize, bipartite_quiver, check_tree_walks,
                              moduli_dimension, reduced_quiver,
                              skew_euler_form, spanning_tree_count, spanning_trees,
                              stable_trees, tree_components, twin_classes,
                              validate_quiver, weist_count, weist_plan)
from jkscatter.quiverjk import wt_residue

A2 = Quiver.make(["1", "2"], [("1", "2")])
KRON2 = Quiver.make(["1", "2"], [("1", "2"), ("1", "2")])


def stab(q, *vals):
    return Stability.make(q, {v: Q(x) for v, x in zip(q.vertices, vals)})


# -- validation ------------------------------------------------------------

def test_loop_rejected():
    with pytest.raises(HasLoop):
        validate_quiver(Quiver.make(["a"], [("a", "a")]))


def test_cycle_rejected_with_witness():
    q = Quiver.make(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(HasOrientedCycle) as ei:
        validate_quiver(q)
    assert set(ei.value.cycle) == {"a", "b", "c"}


def test_unknown_vertex():
    with pytest.raises(UnknownVertex):
        validate_quiver(Quiver.make(["a"], [("a", "b")]))


def test_repeated_vertex_ids_are_named():
    q = Quiver.make(["b", "a", "b", "a", "c"], [("a", "c")])
    with pytest.raises(DuplicateVertex) as ei:
        validate_quiver(q)
    assert str(ei.value) == "repeated vertex ids ['a', 'b']"


def test_no_vertex_has_no_spanning_tree():
    q = Quiver.make([], [])
    assert spanning_trees(q) == []
    assert weist_count(q, Stability.make(q, {})) == 0


def test_one_vertex_has_the_empty_tree():
    q = Quiver.make(["a"], [])
    assert spanning_trees(q) == [SpanningTree(())]
    assert weist_count(q, stab(q, 0)) == 1


def test_disconnected_has_no_spanning_tree():
    q = Quiver.make(["a", "b", "c"], [("a", "b")])
    assert spanning_trees(q) == []
    assert weist_count(q, stab(q, 1, -1, 0)) == 0


# -- reduced quiver / Euler form --------------------------------------------

def test_reduced_quiver_multiplicities():
    qbar, mult = reduced_quiver(KRON2)
    assert qbar.arrows == (("1", "2"),)
    assert mult == {0: 2}


def test_skew_euler_form_antisymmetric():
    assert skew_euler_form(KRON2, "2", "1") == 2
    assert skew_euler_form(KRON2, "1", "2") == -2
    assert skew_euler_form(A2, "1", "1") == 0


def test_moduli_dimension():
    d = DimVector.make(KRON2, {"1": 1, "2": 1})
    assert moduli_dimension(KRON2, d) == 2 * 1 * 1 - 2 + 1  # = 1
    k21 = bipartite_quiver(2, 1)
    assert moduli_dimension(k21, DimVector.make(k21, {v: 1 for v in k21.vertices})) == 0


# -- dimension vectors and stability ----------------------------------------

def test_dimvector_helpers():
    k21 = bipartite_quiver(2, 1)
    d = DimVector.make(k21, {"i1": 1, "i2": 0, "j1": 2})
    assert d.total() == 3
    assert d.support() == ("i1", "j1")
    assert not d.is_abelian()


def test_negative_dimension_rejected():
    with pytest.raises(ValueError):
        DimVector.make(A2, {"1": -1, "2": 1})


@pytest.mark.parametrize("value", [1.7, Q(3, 2), Q(2), 1.0, "1"])
def test_non_integer_dimension_rejected(value):
    with pytest.raises(TypeError, match="dimension at 2 must be an int"):
        DimVector.make(A2, {"1": 1, "2": value})


def test_normalization_check():
    d = DimVector.make(A2, {"1": 1, "2": 1})
    stab(A2, 1, -1).check_normalized(d)
    with pytest.raises(NotNormalized):
        stab(A2, 1, 1).check_normalized(d)


# -- spanning trees ----------------------------------------------------------

def test_spanning_trees_bipartite():
    qbar, _ = reduced_quiver(bipartite_quiver(2, 2))
    # K(2,2) underlying graph is the 4-cycle: 4 spanning trees
    assert len(spanning_trees(qbar)) == 4


def test_spanning_trees_leave_no_reference_cycle():
    # the tree enumerator frees its state by reference counting alone: a
    # recursive closure was a function-cell cycle left for the cyclic GC
    qbar, _ = reduced_quiver(bipartite_quiver(2, 3))
    gc.collect()
    gc.disable()
    try:
        assert len(spanning_trees(qbar)) == 12
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_components_sign():
    comps = tree_components(A2, SpanningTree((0,)), stab(A2, 1, -1))
    assert comps == {0: -1}
    comps = tree_components(A2, SpanningTree((0,)), stab(A2, -1, 1))
    assert comps == {0: 1}


def solved_components(qbar, tree, theta):
    """Test-only reference: solve theta = sum c_alpha (e_head - e_tail)."""
    verts = list(qbar.vertices)
    rows = [[int(qbar.arrows[i][1] == v) - int(qbar.arrows[i][0] == v)
             for i in tree.arrows] for v in verts[:-1]]
    sol = solve_linear(rows, [theta[v] for v in verts[:-1]])
    return {i: c for i, c in zip(tree.arrows, sol)}


@st.composite
def trees_with_stability(draw):
    """A connected reduced quiver on <= 6 vertices, one of its spanning
    trees, and an integer stability summing to 0."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = [f"v{i}" for i in range(n)]
    rank = draw(st.permutations(range(n)))  # arrows go up in rank: no cycles
    pairs = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] < p[1]), max_size=6)))
    arrows = [(vertices[a], vertices[b]) if rank[a] < rank[b] else (vertices[b], vertices[a])
              for a, b in sorted(pairs)]
    qbar, _ = reduced_quiver(Quiver.make(vertices, arrows))
    tree = draw(st.sampled_from(spanning_trees(qbar)))
    vals = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    return qbar, tree, stab(qbar, *vals, -sum(vals))


class TestCutSums:
    @given(trees_with_stability())
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_solve(self, data):
        qbar, tree, theta = data
        want = solved_components(qbar, tree, theta)
        zeros = [i for i in tree.arrows if want[i] == 0]
        if not zeros:
            assert list(tree_components(qbar, tree, theta).items()) == list(want.items())
            return
        with pytest.raises(NonRegularStability) as ei:
            tree_components(qbar, tree, theta)
        arrow = qbar.arrows[zeros[0]]
        assert str(ei.value) == f"component of arrow {arrow} vanishes on tree {tree.arrows}"
        assert ei.value.witness == {"tree": tree.arrows, "arrow": arrow}

    # K(2,2) with a pendant vertex k behind j1; arrows 0-3 form the 4-cycle
    PENDANT = Quiver.make(["i1", "i2", "j1", "j2", "k"],
                          [("i1", "j1"), ("i1", "j2"), ("i2", "j1"), ("i2", "j2"),
                           ("j1", "k")])

    @pytest.mark.parametrize("arrows", [
        (0, 1, 2),        # a forest that leaves k out; theta is consistent on it
        (0, 1, 2, 3),     # the 4-cycle, with k left out
        (0, 1, 2, 3, 4),  # one arrow too many
    ])
    def test_non_trees_rejected(self, arrows):
        theta = stab(self.PENDANT, 1, 1, -1, -1, 0)
        with pytest.raises(NotNormalized):
            tree_components(self.PENDANT, SpanningTree(arrows), theta)
        with pytest.raises(NotATree):
            wt_residue(self.PENDANT, SpanningTree(arrows), {i: 1 for i in range(5)}, "i1")

    # theta is checked before the zero coefficient of arrow (i1, j2) in the
    # second case
    @pytest.mark.parametrize("vals, total", [
        ((1, 1, -1, -1, 5), "5"),
        ((0, 0, 0, 0, "1/2"), "1/2"),
    ])
    def test_unnormalized_theta(self, vals, total):
        theta = stab(self.PENDANT, *vals)
        with pytest.raises(NotNormalized) as ei:
            tree_components(self.PENDANT, SpanningTree((0, 1, 2, 4)), theta)
        assert str(ei.value) == f"sum d_v*theta_v = {total} != 0"

    def test_bad_root_rejected(self):
        with pytest.raises(NotATree):
            wt_residue(self.PENDANT, SpanningTree((0, 1, 2, 4)), {i: 1 for i in range(5)}, "x")


def test_stable_trees_and_weist_count():
    th = stab(KRON2, 1, -1)
    qbar, _ = reduced_quiver(KRON2)
    assert [t.arrows for t in stable_trees(qbar, th)] == [(0,)]
    assert weist_count(KRON2, th) == 2
    assert weist_count(KRON2, stab(KRON2, -1, 1)) == 0


def test_weist_count_k22_asymmetric():
    k22 = bipartite_quiver(2, 2)
    assert weist_count(k22, stab(k22, 3, 1, -2, -2)) == 2


def test_vanishing_component_is_an_error():
    k22 = bipartite_quiver(2, 2)
    with pytest.raises(NonRegularStability) as ei:
        weist_count(k22, stab(k22, 1, 1, -1, -1))
    assert "tree" in ei.value.witness


def tree_scan_count(q, theta):
    """Test-only reference: the lexicographic scan over the stable trees."""
    qbar, mult = reduced_quiver(q)
    return sum((prod(mult[i] for i in tree.arrows) for tree in stable_trees(qbar, theta)),
               Q(0))


def outcome(fn, *args):
    """fn's value, or its error's type, message and witness."""
    try:
        return fn(*args)
    except (NotNormalized, NonRegularStability) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


@st.composite
def quivers_with_stability(draw, max_vertices=7):
    """An acyclic quiver on <= max_vertices vertices with repeated arrows,
    connected or not, and a Fraction stability of small entries (so walls
    are common) that mostly sums to 0."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    rank = draw(st.permutations(range(n)))  # arrows go up in rank: no cycles
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=8)) if n > 1 else []
    if draw(st.integers(0, 5)):  # mostly connected: a random spanning tree first
        pairs += [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    arrows = [(vertices[a], vertices[b]) if rank[a] < rank[b] else (vertices[b], vertices[a])
              for a, b in pairs]
    vals = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n))
    if n and draw(st.integers(0, 5)):
        vals[-1] -= sum(vals)
    q = Quiver.make(vertices, arrows)
    return q, stab(q, *vals)


def subset_dp(qbar, mult, theta):
    """Test-only reference: the DP over vertex subsets, F(S, r) on bitmasks
    in about V * 3^V steps, which the type DP is when every vertex is its
    own type.  A disconnected quiver counts 0, as the scan does."""
    n = len(qbar.vertices)
    index = {v: i for i, v in enumerate(qbar.vertices)}
    adj = [0] * n
    # down[r][u]: arrows r -> u; up[r][u]: arrows u -> r
    down = [[0] * n for _ in range(n)]
    up = [[0] * n for _ in range(n)]
    for k, (t, h) in enumerate(qbar.arrows):
        a, b = index[t], index[h]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        down[a][b] = up[b][a] = mult[k]
    full = (1 << n) - 1
    if not n or not _connected(full, adj):
        return Q(0)
    values = theta.as_dict()
    th = [values[v] for v in qbar.vertices]
    total = sum(th, Q(0))
    if total != 0:
        raise NotNormalized(f"sum d_v*theta_v = {total} != 0")
    scale = lcm(*[c.denominator for c in th])
    scaled = [int(c * scale) for c in th]
    theta_of = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        theta_of[mask] = theta_of[mask ^ low] + scaled[low.bit_length() - 1]
    for side in range(1, full, 2):  # the side that holds vertex 0
        if theta_of[side] == 0 and _connected(side, adj) and _connected(full ^ side, adj):
            edges = [(index[t], index[h]) for t, h in qbar.arrows]
            for tree in _spanning_tree_indices(n, edges):
                tree_components(qbar, SpanningTree(tree), theta)
    rooted = [0] * ((full + 1) * n)
    hanging = [0] * ((full + 1) * n)
    for mask in range(1, full + 1):
        for r in _bits(mask):
            rest = mask ^ (1 << r)
            if not rest:
                rooted[mask * n + r] = 1
                continue
            low = rest & -rest
            others = rest ^ low
            count = 0
            sub = others
            while True:  # every branch = sub | low, sub running over others' subsets
                count += hanging[(sub | low) * n + r] * rooted[(mask ^ sub ^ low) * n + r]
                if not sub:
                    break
                sub = (sub - 1) & others
            rooted[mask * n + r] = count
        if theta_of[mask]:
            w = down if theta_of[mask] < 0 else up
            for r in _bits(full ^ mask):
                hanging[mask * n + r] = sum(rooted[mask * n + u] * w[r][u]
                                            for u in _bits(mask & adj[r]))
    return Q(rooted[full * n])


def type_dp(qbar, mult, theta):
    return _type_dp(qbar, mult, theta, twin_classes(qbar, mult, theta))


def assert_three_routes_agree(q, theta):
    """The type DP, the subset DP and the tree scan give one value, or one
    error type, message and witness; so does weist_count on its own route."""
    want = outcome(tree_scan_count, q, theta)
    qbar, mult = reduced_quiver(q)
    assert outcome(type_dp, qbar, mult, theta) == want
    assert outcome(subset_dp, qbar, mult, theta) == want
    assert outcome(weist_count, q, theta) == want


@st.composite
def quivers_with_twins(draw):
    """A quiver on <= 7 vertices whose vertices come in twin classes: each
    vertex of a random acyclic quiver on <= 4 vertices is cloned 1-3 times,
    clones keeping its arrows and theta (one clone's theta is sometimes
    moved, which splits its class).  theta mostly sums to 0."""
    base, theta = draw(quivers_with_stability(max_vertices=4))
    copies = {}
    for v in base.vertices:
        room = 7 - sum(copies.values()) - (len(base.vertices) - len(copies) - 1)
        copies[v] = draw(st.integers(1, max(1, min(3, room))))
    clones = {v: [f"{v}.{k}" for k in range(copies[v])] for v in base.vertices}
    arrows = [(a, b) for t, h in base.arrows for a in clones[t] for b in clones[h]]
    q = Quiver.make([c for v in base.vertices for c in clones[v]], arrows)
    vals = {c: theta[v] for v in base.vertices for c in clones[v]}
    if vals and draw(st.sampled_from([False] * 3 + [True])):
        vals[draw(st.sampled_from(sorted(vals)))] += draw(st.sampled_from([-1, 1, Q(1, 2)]))
    if vals and draw(st.integers(0, 5)):
        last = q.vertices[-1]
        vals[last] -= sum(vals.values())
    return q, Stability.make(q, vals)


@st.composite
def abelianization_terms(draw):
    """One abelianization term (its blown-up quiver and lifted stability)
    of a random K(l1, l2), l1, l2 <= 2, with |d| <= 7 and integer zeta
    that mostly sums to 0 against d."""
    l1, l2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    q = bipartite_quiver(l1, l2)
    d = draw(st.lists(st.integers(0, 3), min_size=l1 + l2, max_size=l1 + l2)
             .filter(lambda d: 0 < sum(d) <= 7))
    zeta = draw(st.lists(st.integers(-4, 4), min_size=l1 + l2, max_size=l1 + l2))
    nonzero = [i for i, x in enumerate(d) if x]
    fix = nonzero[-1]
    total = sum(x * z for x, z in zip(d, zeta))
    zeta = [Q(z) for z in zeta]
    zeta[fix] -= Q(total, d[fix])
    dim = DimVector.make(q, dict(zip(q.vertices, d)))
    terms = abelianize(q, dim, stab(q, *zeta))
    term = draw(st.sampled_from(terms))
    theta = term.stability
    if draw(st.sampled_from([False] * 7 + [True])):
        v = term.quiver.vertices[0]
        theta = Stability.make(term.quiver, dict(theta.as_dict(), **{v: theta[v] + 1}))
    return term.quiver, theta


class TestWeistCount:
    @given(quivers_with_stability())
    @settings(max_examples=300, deadline=None)
    def test_matches_tree_scan(self, data):
        assert_three_routes_agree(*data)

    @given(quivers_with_twins())
    @settings(max_examples=300, deadline=None)
    def test_twin_classes_match_tree_scan(self, data):
        assert_three_routes_agree(*data)

    @given(abelianization_terms())
    @settings(max_examples=200, deadline=None)
    def test_abelianization_terms_match_tree_scan(self, data):
        assert_three_routes_agree(*data)

    def test_twins_are_one_type(self):
        # K(3,2) with theta (2, 2, 1, -3, -2): i1 and i2 are twins, i3 is
        # not (its theta differs), and neither are j1, j2
        k32 = bipartite_quiver(3, 2)
        qbar, mult = reduced_quiver(k32)
        assert twin_classes(qbar, mult, stab(k32, 2, 2, 1, -3, -2)) == ((0, 1), (2,), (3,), (4,))
        assert twin_classes(qbar, mult, stab(k32, 1, 1, 1, -1, -2)) == ((0, 1, 2), (3,), (4,))
        # same theta, other arrows: a -> b, c has no arrow
        q = Quiver.make(["a", "b", "c"], [("a", "b")])
        qbar, mult = reduced_quiver(q)
        assert twin_classes(qbar, mult, stab(q, 0, 0, 0)) == ((0,), (1,), (2,))

    @given(quivers_with_stability())
    @settings(max_examples=200, deadline=None)
    def test_kirchhoff_count_matches_listing(self, data):
        # on the quiver with its repeated arrows and on its reduced quiver
        q, _theta = data
        qbar, _mult = reduced_quiver(q)
        for g in (q, qbar):
            assert spanning_tree_count(len(g.vertices), _edges(g)) == len(spanning_trees(g))

    def test_trees_are_counted_only_past_the_arrow_sets(self, monkeypatch):
        # K(4,3) has C(12, 6) = 924 arrow sets of a tree's size, under the
        # bound, so no count is made; K(4,4) has C(16, 7) = 11,440 sets and
        # 4^3 * 4^3 = 4,096 trees, under it; K(5,5) has 5^4 * 5^4, over it
        counted = []
        real = quiver.spanning_tree_count

        def count(nodes, edges):
            counted.append(nodes)
            return real(nodes, edges)

        monkeypatch.setattr(quiver, "spanning_tree_count", count)
        for a, b in ((4, 3), (4, 4)):
            k = bipartite_quiver(a, b)
            check_tree_walks([(len(k.vertices), _edges(k))])
        assert counted == [8]
        k55 = bipartite_quiver(5, 5)
        with pytest.raises(TooManyTrees) as ei:
            check_tree_walks([(10, _edges(k55))])
        assert (ei.value.estimate, ei.value.bound) == (5 ** 8, 10_000)

    def test_route_follows_the_tree_count(self):
        # with a distinct theta per vertex no two vertices are twins.  A star
        # has one spanning tree: scanned; K(4,4) has 4^3 * 4^3 trees, more
        # than the DP's 8 * 3^8 steps buy at 100 * 8 steps a tree
        star = bipartite_quiver(20, 1)
        plan = weist_plan(star, stab(star, *range(1, 21), -210))
        assert (plan.steps, plan.scan) == (100 * 21, True)
        k44 = bipartite_quiver(4, 4)
        plan = weist_plan(k44, stab(k44, 1, 2, 3, 4, -1, -2, -3, -4))
        assert (plan.steps, plan.scan) == (8 * 3 ** 8, False)

    def test_twins_take_the_dp_without_counting_trees(self, monkeypatch):
        # the star with one theta on its 20 sources has 2 types of 20 and 1
        # vertices: 2 * C(22, 2) * C(3, 2) DP steps, under the 100 * 21 of
        # the cheapest scan, so its trees are not counted
        def no_count(_qbar):
            raise AssertionError("the spanning trees were counted")

        monkeypatch.setattr(quiver, "spanning_tree_count", no_count)
        star = bipartite_quiver(20, 1)
        theta = stab(star, *[1] * 20, -20)
        plan = weist_plan(star, theta)
        assert (plan.steps, plan.scan) == (2 * 231 * 3, False)
        assert weist_count(star, theta) == 1

    def test_count_follows_its_own_quiver(self):
        # the path i1 -> j1 <- i2 -> j2 has no stable tree at this theta, K(2,2)
        # has 2; weist_count once took a plan, and followed one made for K(2,2)
        path = Quiver.make(["i1", "i2", "j1", "j2"], [("i1", "j1"), ("i2", "j1"), ("i2", "j2")])
        k22 = bipartite_quiver(2, 2)
        assert weist_count(path, stab(path, 3, 1, -2, -2)) == 0
        assert weist_count(k22, stab(k22, 3, 1, -2, -2)) == 2
        with pytest.raises(TypeError):
            weist_count(path, stab(path, 3, 1, -2, -2), weist_plan(k22, stab(k22, 3, 1, -2, -2)))

    def test_star_is_scanned(self):
        # 21 vertices, no twins: the DP would take 21 * 3^21 steps
        star = bipartite_quiver(20, 1)
        theta = stab(star, *range(1, 21), -210)
        assert weist_plan(star, theta).scan
        assert weist_count(star, theta) == 1
        assert weist_count(star, stab(star, *range(-1, -21, -1), 210)) == 0

    def test_too_much_work_is_refused(self, monkeypatch):
        # K(8,8) with a distinct theta per vertex has no twins: 16 * 3^16 DP
        # steps, and 8^7 * 8^7 trees at 100 * 16 steps each.  It is refused
        # before any table is built
        def no_table(*_args):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(quiver, "_type_dp", no_table)
        k88 = bipartite_quiver(8, 8)
        with pytest.raises(TooMuchWork) as ei:
            weist_count(k88, stab(k88, *range(1, 9), *range(-1, -9, -1)))
        assert (ei.value.estimate, ei.value.bound) == (16 * 3 ** 16, 200_000_000)

    def test_wall_witness_is_the_first_scanned(self):
        # the 4-cycle K(2,2) with theta({i1, j1}) = 0: tree (0, 1, 2) has no
        # zero cut, and the next one, (0, 1, 3), has one at arrow 1
        k22 = bipartite_quiver(2, 2)
        with pytest.raises(NonRegularStability) as ei:
            weist_count(k22, stab(k22, 2, 1, -2, -1))
        assert ei.value.witness == {"tree": (0, 1, 3), "arrow": ("i1", "j2")}

    def test_wall_witness_past_the_scan_bound_is_built(self, monkeypatch):
        # K(6,6) with a distinct theta per vertex, whose one wall is
        # theta({i1, j1}) = 0 (a sink set sums to an integer only with none
        # or all of j2..j6): scanning its 6^5 * 6^5 trees to the first
        # witness is priced over MAX_WEIST_STEPS, so the witness is a tree
        # of each side with the first arrow across, and only it is cut
        real, cut = quiver.tree_components, []

        def tree_components(qbar, tree, theta):
            cut.append(tree.arrows)
            return real(qbar, tree, theta)

        monkeypatch.setattr(quiver, "tree_components", tree_components)
        k66 = bipartite_quiver(6, 6)
        sinks = [-Q(1, p) for p in (1, 7, 11, 13, 17)]
        theta = stab(k66, 1, 10, 100, 1000, 10000, 100000, *sinks, -111111 - sum(sinks))
        with pytest.raises(NonRegularStability) as ei:
            weist_count(k66, theta)
        tree = (0, 1, 7, 8, 9, 10, 11, 13, 19, 25, 31)
        assert ei.value.witness == {"tree": tree, "arrow": ("i1", "j2")}
        assert cut == [tree]


# -- abelianization -----------------------------------------------------------

def test_abelianize_trivial_for_abelian_d():
    d = DimVector.make(A2, {"1": 1, "2": 1})
    terms = abelianize(A2, d, stab(A2, 1, -1))
    assert len(terms) == 1
    t = terms[0]
    assert t.coefficient == 1
    assert len(t.quiver.vertices) == 2 and len(t.quiver.arrows) == 1


def test_abelianize_k11_d21():
    k11 = bipartite_quiver(1, 1)
    d = DimVector.make(k11, {"i1": 2, "j1": 1})
    terms = abelianize(k11, d, stab(k11, 1, -2))
    # partitions of 2 at the source: 1+1 and 2
    assert sorted(t.coefficient for t in terms) == [Q(-1, 2), Q(1)]
    by_coeff = {t.coefficient: t for t in terms}
    split = by_coeff[Q(1)]
    assert len(split.quiver.vertices) == 3 and len(split.quiver.arrows) == 2
    merged = by_coeff[Q(-1, 2)]
    # the l=2 part doubles both the arrow multiplicity and the stability
    assert len(merged.quiver.arrows) == 2
    src = [v for v in merged.quiver.vertices if v.startswith("i1")][0]
    assert merged.stability[src] == 2


def test_abelianize_coefficients_sum_rule():
    # sum of coefficients times 1 = d! * sum over partitions prod (1/m_l!)((-1)^(l-1)/l^2)^m_l
    k11 = bipartite_quiver(1, 1)
    d = DimVector.make(k11, {"i1": 3, "j1": 1})
    terms = abelianize(k11, d, stab(k11, 1, -3))
    # partitions of 3: 1+1+1, 1+2, 3
    assert len(terms) == 3
    expected = 6 * (Q(1, 6) + Q(-1, 4) + Q(1, 9))
    assert sum(t.coefficient for t in terms) == expected


def test_abelianized_stability_normalized():
    k11 = bipartite_quiver(1, 1)
    d = DimVector.make(k11, {"i1": 2, "j1": 1})
    for t in abelianize(k11, d, stab(k11, 1, -2)):
        t.stability.check_normalized(t.dimension)


def test_abelianize_counts_partitions():
    # p(7) * p(5) = 15 * 7 terms, each m_* once, in lexicographic order
    k11 = bipartite_quiver(1, 1)
    terms = abelianize(k11, DimVector.make(k11, {"i1": 7, "j1": 5}), stab(k11, 5, -7))
    picks = [t.multiplicities for t in terms]
    assert len(picks) == 15 * 7 == len(set(picks))
    assert picks == sorted(picks)
    for pick in picks:
        assert [sum(l * m for l, m in enumerate(ms, start=1)) for _v, ms in pick] == [7, 5]


def test_abelianize_refuses_too_many_terms():
    # p(20) * p(15) = 627 * 176 terms, over the bound, refused before any is built
    k11 = bipartite_quiver(1, 1)
    with pytest.raises(TooManyTerms) as ei:
        abelianize(k11, DimVector.make(k11, {"i1": 20, "j1": 15}), stab(k11, 15, -20))
    assert (ei.value.estimate, ei.value.bound) == (627 * 176, 10_000)
