"""Tests for the exact rational-function layer: linear forms, polynomials,
factored rational expressions, and iterated residues.
"""

import itertools
from fractions import Fraction as Q
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkscatter.exact import (LinForm, Poly, RationalExpr, binom_general,
                             change_vars_linear, in_span, iterated_residue,
                             mat_det, mat_inverse, mat_rank, qify, rref,
                             residue_step, solve_linear, subst_linear_basis)
from jkscatter.errors import SingularBasis, ZeroDenominator


def lf(**coeffs):
    const = coeffs.pop("const", 0)
    out = LinForm.constant(const)
    for name, c in coeffs.items():
        out = out + LinForm.var(name) * Q(c)
    return out


class TestLinearAlgebra:
    def test_qify_rejects_floats(self):
        with pytest.raises(TypeError):
            qify(0.5)

    def test_qify_accepts_ints_and_fractions(self):
        assert qify(3) == Q(3)
        assert qify(Q(2, 7)) == Q(2, 7)

    def test_det(self):
        assert mat_det([[Q(1), Q(2)], [Q(3), Q(4)]]) == -2
        assert mat_det([[Q(1)]]) == 1

    def test_inverse_roundtrip(self):
        m = [[Q(2), Q(1)], [Q(1), Q(1)]]
        inv = mat_inverse(m)
        prod = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]
        assert prod == [[1, 0], [0, 1]]

    def test_inverse_singular(self):
        assert mat_inverse([[Q(1), Q(2)], [Q(2), Q(4)]]) is None

    def test_solve_linear_unique(self):
        sol = solve_linear([[Q(1), Q(1)], [Q(1), Q(-1)]], [Q(3), Q(1)])
        assert sol == [2, 1]

    def test_solve_linear_inconsistent(self):
        assert solve_linear([[Q(1), Q(1)], [Q(2), Q(2)]], [Q(1), Q(3)]) is None

    def test_rank_and_span(self):
        assert mat_rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
        assert in_span([Q(3), Q(6)], [[Q(1), Q(2)]])
        assert not in_span([Q(1), Q(0)], [[Q(1), Q(2)]])

    def test_binom_general_negative_exponent(self):
        # C(-1, k) = (-1)^k
        assert [binom_general(-1, k) for k in range(4)] == [1, -1, 1, -1]
        assert binom_general(-2, 2) == 3


# -- the elimination kernel against formulas that use no elimination ----------

# zeros and small entries make singular and inconsistent systems common
entries = st.one_of(st.just(Q(0)), st.fractions(min_value=-3, max_value=3,
                                                 max_denominator=3))


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=5))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def leibniz(m):
    n = len(m)
    return sum((Q(-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
                * prod(m[i][p[i]] for i in range(n))
                for p in itertools.permutations(range(n))), Q(0))


def rank_by_minors(m):
    """The largest k with a nonzero k x k minor."""
    nrows, ncols = len(m), len(m[0])
    for k in range(min(nrows, ncols), 0, -1):
        if any(leibniz([[m[i][j] for j in cols] for i in rows]) != 0
               for rows in itertools.combinations(range(nrows), k)
               for cols in itertools.combinations(range(ncols), k)):
            return k
    return 0


class TestKernel:
    @given(matrices(square=True))
    @settings(max_examples=60, deadline=None)
    def test_det_is_leibniz(self, m):
        assert mat_det(m) == leibniz(m)

    @given(matrices(square=True))
    @settings(max_examples=60, deadline=None)
    def test_inverse_times_m_is_identity(self, m):
        inv = mat_inverse(m)
        n = len(m)
        if leibniz(m) == 0:
            assert inv is None
        else:
            assert [[sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)] == [[Q(i == j) for j in range(n)] for i in range(n)]

    @given(matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_solve_linear(self, a, data):
        nrows, ncols = len(a), len(a[0])
        if data.draw(st.booleans()):   # consistent by construction
            x0 = [data.draw(entries) for _ in range(ncols)]
            b = [sum(r * x for r, x in zip(row, x0)) for row in a]
        else:
            b = [data.draw(entries) for _ in range(nrows)]
        rank = rank_by_minors(a)
        consistent = rank_by_minors([row + [bb] for row, bb in zip(a, b)]) == rank
        x = solve_linear(a, b)
        if rank == ncols and consistent:
            assert [sum(r * xx for r, xx in zip(row, x)) for row in a] == b
        else:
            assert x is None

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_span_and_rref(self, m):
        rank = rank_by_minors(m)
        assert mat_rank(m) == rank
        reduced = rref(m)
        assert len(reduced) == rank
        # echelon form with unit pivot columns, and every row of m is the
        # combination of the reduced rows read off at the pivot columns
        pivots = [next(j for j, x in enumerate(row) if x != 0) for row in reduced]
        assert pivots == sorted(set(pivots))
        assert all(row[p] == (i == k) for k, p in enumerate(pivots)
                   for i, row in enumerate(reduced))
        assert all(list(v) == [sum(v[p] * row[j] for p, row in zip(pivots, reduced))
                               for j in range(len(v))] for v in m)
        assert in_span(m[-1], m[:-1]) == (rank_by_minors(m[:-1]) == rank
                                          if len(m) > 1 else all(x == 0 for x in m[0]))


class TestLinForm:
    def test_arithmetic_and_eval(self):
        f = lf(x=1, y=-2, const=3)
        assert f.evaluate({"x": Q(1), "y": Q(1)}) == 2
        assert (f + f).evaluate({"x": Q(1), "y": Q(0)}) == 8
        assert (-f).evaluate({"x": Q(0), "y": Q(0)}) == -3

    def test_subs(self):
        f = lf(x=1, y=1)
        g = f.subs({"x": lf(u=2), "y": lf(u=-1, const=5)})
        assert g == lf(u=1, const=5)

    def test_canonical_divides_by_lead(self):
        unit, canon = lf(x=2, y=4).canonical()
        assert unit == 2 and canon == lf(x=1, y=2)

    def test_canonical_constant(self):
        unit, canon = LinForm.constant(Q(-5, 3)).canonical()
        assert unit == Q(-5, 3) and canon == LinForm.constant(1)


class TestPoly:
    def test_product_and_eval(self):
        p = Poly.from_linform(lf(x=1, const=1)) * Poly.from_linform(lf(x=1, const=-1))
        assert p.evaluate({"x": Q(3)}) == 8

    def test_split_var(self):
        p = Poly.from_linform(lf(x=1, y=1)).power(2)
        parts = p.split_var("x")
        assert set(parts) == {0, 1, 2}
        assert parts[1].evaluate({"y": Q(5)}) == 10

    def test_div_linform_exact(self):
        p = Poly.from_linform(lf(x=1, y=1)) * Poly.from_linform(lf(x=1, y=-1))
        q = p.div_linform(lf(x=1, y=1))
        assert q == Poly.from_linform(lf(x=1, y=-1))

    def test_div_linform_not_divisible(self):
        p = Poly.from_linform(lf(x=1, const=1))
        assert p.div_linform(lf(x=1)) is None


class TestRationalExpr:
    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalExpr(1, ((LinForm(), -1),))

    def test_merge_proportional_factors(self):
        f = RationalExpr(1, ((lf(x=2), 1), (lf(x=1), -1)))
        assert f.as_fraction() == 2  # 2x / x

    def test_addition_common_denominator(self):
        x = lf(x=1)
        f = RationalExpr(1, ((x, -1),)) + RationalExpr(1, ((x, -1),))
        assert f == RationalExpr(2, ((x, -1),))

    def test_difference_is_zero(self):
        x, y = lf(x=1), lf(y=1)
        a = RationalExpr(1, ((x + y, 1), (x, -1)))
        b = RationalExpr(1, ((x, -1),), Poly.from_linform(x + y))
        assert a == b

    def test_reduce_cancels(self):
        x, y = lf(x=1), lf(y=1)
        f = RationalExpr(1, ((x, -1),), Poly.from_linform(x + y) - Poly.from_linform(y))
        assert f.reduce().as_fraction() == 1

    def test_evaluate(self):
        f = RationalExpr(3, ((lf(x=1, const=1), -2),))
        assert f.evaluate({"x": Q(1)}) == Q(3, 4)


class TestResidues:
    def test_simple_pole(self):
        f = RationalExpr(1, ((lf(v=1), -1),))
        assert iterated_residue(f, ["v"]) == 1

    def test_regular_point(self):
        f = RationalExpr(1, ((lf(v=1, const=1), -1),))
        assert iterated_residue(f, ["v"]) == 0

    def test_two_variable_product(self):
        f = RationalExpr(1, ((lf(v1=1), -1), (lf(v2=1), -1)))
        assert iterated_residue(f, ["v1", "v2"]) == 1

    def test_order_sensitive_zero(self):
        # 1/(v1 v2 (v1+v2)): inner residue at v1 leaves a double pole in v2
        f = RationalExpr(1, ((lf(v1=1), -1), (lf(v2=1), -1), (lf(v1=1, v2=1), -1)))
        assert iterated_residue(f, ["v1", "v2"]) == 0

    def test_unit_series_expansion(self):
        # residue_v 1/(v(v-w)) = -1/w: the v-w factor is a unit at v=0
        f = RationalExpr(1, ((lf(v=1), -1), (lf(v=1, w=-1), -1)))
        g = residue_step(f, "v")
        assert g == RationalExpr(-1, ((lf(w=1), -1),))

    def test_square_of_unit(self):
        # residue_v (1 - 1/v)^2 * (-1) applied inside a product
        one_minus = RationalExpr(1, ((lf(v=1), -1),), Poly.from_linform(lf(v=1, const=-1)))
        f = one_minus * one_minus * RationalExpr(-1)
        # -(v-1)^2/v^2 has residue -2*(-1) = 2 at 0
        assert residue_step(f, "v").as_fraction() == 2

    def test_higher_order_pole(self):
        # residue_v v / (v^2 (v - w)) = residue of 1/(v(v-w)) = -1/w
        f = RationalExpr(1, ((lf(v=1), -2), (lf(v=1, w=-1), -1)),
                         Poly.from_linform(lf(v=1)))
        assert residue_step(f, "v") == RationalExpr(-1, ((lf(w=1), -1),))

    def test_extra_variable_kills_constant(self):
        # the w-residue of a w-free function vanishes
        f = RationalExpr(1, ((lf(v=1), -1),))
        assert iterated_residue(f, ["v", "w"]) == 0

    def test_missing_variable_rejected(self):
        f = RationalExpr(1, ((lf(v=1), -1), (lf(w=1), -1)))
        with pytest.raises(ValueError):
            iterated_residue(f, ["v"])


class TestChangeOfVariables:
    def test_substitution_basis(self):
        # x1 = u+w, x2 = u-w diagonalizes 1/((u+w)(u-w))
        f = RationalExpr(1, ((lf(u=1, w=1), -1), (lf(u=1, w=-1), -1)))
        g = subst_linear_basis(f, [lf(u=1, w=1), lf(u=1, w=-1)], var_order=["u", "w"])
        assert iterated_residue(g, ["x1", "x2"]) == 1

    def test_affine_basis_moves_the_point_to_zero(self):
        # x1 = u+w-3, x2 = u-w-1 vanish at (u, w) = (2, 1), where u = 2
        x1, x2 = lf(u=1, w=1, const=-3), lf(u=1, w=-1, const=-1)
        f = RationalExpr(1, ((lf(u=1), 1), (x1, -1), (x2, -2)))
        g = subst_linear_basis(f, [x1, x2], var_order=["u", "w"])
        assert g == RationalExpr(1, ((lf(x1=Q(1, 2), x2=Q(1, 2), const=2), 1),
                                     (lf(x1=1), -1), (lf(x2=1), -2)))

    def test_singular_basis_raises(self):
        f = RationalExpr(1, ((lf(u=1), -1),))
        with pytest.raises(SingularBasis):
            subst_linear_basis(f, [lf(u=1, w=1), lf(u=2, w=2)], var_order=["u", "w"])

    def test_jacobian_invariance_under_scaling(self):
        # with the Jacobian factor, rescaling the basis leaves the IR invariant
        f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1)))
        base = change_vars_linear(f, [lf(u=1), lf(w=1)], var_order=["u", "w"])
        scaled = change_vars_linear(f, [lf(u=3), lf(w=Q(1, 5))], var_order=["u", "w"])
        assert iterated_residue(base, ["x1", "x2"]) == \
            iterated_residue(scaled, ["x1", "x2"]) == 1
