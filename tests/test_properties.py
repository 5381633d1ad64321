"""Property-based tests for algebraic invariants of the residue and series
layers.
"""

import itertools
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter.exact import (LinForm, RationalExpr, change_vars_linear,
                             iterated_residue)
from jkscatter.quiver import (Quiver, SpanningTree, bipartite_quiver,
                              reduced_quiver, spanning_trees)
from jkscatter.quiverjk import wt_residue
from jkscatter.series import TruncatedSeries

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_rationals = rationals.filter(lambda r: r != 0)


def lf(**coeffs):
    out = LinForm()
    for name, c in coeffs.items():
        out = out + LinForm.var(name) * Q(c)
    return out


# a germ with poles only at the origin of (u, w): product of forms a*u + b*w
# with a > 0 (keeps the set projective) and constants
@st.composite
def origin_germs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    factors = []
    for _ in range(n):
        a = draw(st.integers(min_value=1, max_value=3))
        b = draw(st.integers(min_value=-3, max_value=3))
        factors.append((lf(u=a, w=b), -1))
    factors.append((lf(u=1), -1))
    factors.append((lf(w=1), -1))
    scalar = draw(nonzero_rationals)
    return RationalExpr(scalar, factors)


class TestResidueProperties:
    @given(origin_germs(), origin_germs(), rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, f, g, a, b):
        combo = RationalExpr(a) * f + RationalExpr(b) * g
        assert iterated_residue(combo, ["u", "w"]) == \
            a * iterated_residue(f, ["u", "w"]) + b * iterated_residue(g, ["u", "w"])

    @given(origin_germs(), nonzero_rationals, nonzero_rationals)
    @settings(max_examples=60, deadline=None)
    def test_diagonal_change_of_variables(self, f, a, b):
        # IR is invariant under x_i = a*u, b*w with the Jacobian factor
        g = change_vars_linear(f, [lf(u=a), lf(w=b)], var_order=["u", "w"])
        assert iterated_residue(g, ["x1", "x2"]) == iterated_residue(f, ["u", "w"])

    @given(origin_germs())
    @settings(max_examples=30, deadline=None)
    def test_identity_change_of_variables(self, f):
        g = change_vars_linear(f, [lf(u=1), lf(w=1)], var_order=["u", "w"])
        assert iterated_residue(g, ["x1", "x2"]) == iterated_residue(f, ["u", "w"])


@st.composite
def nilpotent_series(draw):
    params = ("s", "t")
    cutoff = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    out = TruncatedSeries(params, cutoff)
    for _ in range(n):
        xe = draw(st.integers(min_value=-2, max_value=2))
        ye = draw(st.integers(min_value=-2, max_value=2))
        se = draw(st.integers(min_value=0, max_value=2))
        te = draw(st.integers(min_value=0 if se else 1, max_value=2))
        c = draw(nonzero_rationals)
        out = out + TruncatedSeries(params, cutoff, {(xe, ye, (se, te)): c})
    return out


class TestSeriesProperties:
    @given(nilpotent_series())
    @settings(max_examples=80, deadline=None)
    def test_exp_log_roundtrip(self, g):
        assert g.exp().log() == g

    @given(nilpotent_series())
    @settings(max_examples=80, deadline=None)
    def test_inverse_roundtrip(self, g):
        f = 1 + g
        assert f * f.inverse() == TruncatedSeries.const(f.params, f.cutoff, 1)

    @given(nilpotent_series(), nilpotent_series())
    @settings(max_examples=40, deadline=None)
    def test_log_turns_products_into_sums(self, g, h):
        if g.cutoff != h.cutoff:
            h = TruncatedSeries(g.params, g.cutoff, h.terms)
        f1, f2 = 1 + g, 1 + h
        assert (f1 * f2).log() == f1.log() + f2.log()


@st.composite
def small_quivers(draw):
    """Acyclic quivers on 1-6 vertices: arrows run from a lower to a higher
    index, in drawn order, parallel arrows allowed and often disconnected."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=9)) if pairs else []
    return Quiver.make(vertices, arrows)


def subset_scan_trees(q):
    """Every (V-1)-subset of arrows that reaches all vertices from the first
    (test reference for spanning_trees), in combination order."""
    out = []
    for combo in itertools.combinations(range(len(q.arrows)), len(q.vertices) - 1):
        reached = {q.vertices[0]}
        for _ in combo:
            reached |= {v for i in combo for v in q.arrows[i]
                        if reached & set(q.arrows[i])}
        if len(reached) == len(q.vertices):
            out.append(combo)
    return out


def kirchhoff_count(q):
    """Matrix-tree theorem: the determinant of the Laplacian with the first
    row and column removed, by exact elimination."""
    index = {v: i for i, v in enumerate(q.vertices)}
    lap = [[Q(0)] * len(index) for _ in index]
    for t, h in q.arrows:
        a, b = index[t], index[h]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Q(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@st.composite
def random_rooted_trees(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    vertices = [f"v{i}" for i in range(n)]
    arrows = []
    for i in range(1, n):
        p = draw(st.integers(min_value=0, max_value=i - 1))
        pair = (vertices[p], vertices[i])
        if draw(st.booleans()):
            pair = (pair[1], pair[0])
        arrows.append(pair)
    mult = {i: draw(st.integers(min_value=1, max_value=5)) for i in range(n - 1)}
    root = vertices[draw(st.integers(min_value=0, max_value=n - 1))]
    return Quiver.make(vertices, arrows), mult, root


class TestTreeProperties:
    @given(random_rooted_trees())
    @settings(max_examples=50, deadline=None)
    def test_wt_residue_closed_form(self, data):
        q, mult, root = data
        got = wt_residue(q, SpanningTree(tuple(range(len(q.arrows)))), mult, root)
        want = 1
        for m in mult.values():
            want *= m
        assert got == want

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    @settings(max_examples=16, deadline=None)
    def test_bipartite_spanning_tree_count(self, a, b):
        # K(a,b) has a^(b-1) * b^(a-1) spanning trees
        qbar, _ = reduced_quiver(bipartite_quiver(a, b))
        assert len(spanning_trees(qbar)) == a ** (b - 1) * b ** (a - 1)

    @given(small_quivers())
    @settings(max_examples=200, deadline=None)
    def test_spanning_trees_match_subset_scan(self, q):
        trees = [t.arrows for t in spanning_trees(q)]
        assert trees == subset_scan_trees(q)
        assert len(trees) == kirchhoff_count(q)
