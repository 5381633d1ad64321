"""Tests for quiver combinatorics: validation, reduced quivers, spanning
trees, stability coefficients, and abelianization.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter.errors import (Disconnected, HasLoop, HasOrientedCycle,
                              NonRegularStability, NotATree, NotNormalized,
                              UnknownVertex)
from jkscatter.exact import solve_linear
from jkscatter.quiver import (DimVector, Quiver, SpanningTree, Stability,
                              abelianize, bipartite_quiver, moduli_dimension,
                              reduced_quiver, skew_euler_form, spanning_trees,
                              stable_trees, tree_components, validate_quiver,
                              weist_count)
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


def test_disconnected():
    q = Quiver.make(["a", "b", "c"], [("a", "b")])
    with pytest.raises(Disconnected):
        validate_quiver(q, require_connected=True)


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
