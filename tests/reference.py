"""Reference helpers that the tests use and no command reaches.

Each was a public function or method of ``jkscatter`` whose only callers
were tests; it lives here with its code and docstring unchanged, so the
tests that read it as an oracle or a tool keep every assertion.  pytest
does not collect this module (its name does not start with ``test_``).

* ``meet`` (was ``arrangement.meet``): the singular point of n planes
  given as LinForm edges, walked as ``arrangement._table_points`` walks a
  table's trees.
* ``hyperplanes(a)`` (was ``Arrangement.hyperplanes``): the planes of an
  arrangement as (linear part, offset) pairs.
* ``rref`` and ``change_vars_linear`` (were in ``exact``).
* ``series_exp(g)`` (was ``TruncatedSeries.exp``).
* ``wt_residue`` (was ``quiverjk.wt_residue``) with the ``NotATree`` it
  raises (was ``errors.NotATree``): the W_T residue lemma, each stable tree
  contributes the product of its arrows' multiplicities.
* ``skew_euler_form`` (was in ``quiver``) with ``arrow_count(q, t, h)``
  (was ``Quiver.arrow_count``).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from jkscatter.arrangement import Arrangement, SingularPoint, _integer_walk
from jkscatter.errors import BadConstantTerm, JKScatterError, SingularBasis, UnknownVertex
from jkscatter.exact import (LinForm, ONE, Q, RationalExpr, ZERO, _gauss_jordan, mat_det,
                             residue_step, subst_linear_basis)
from jkscatter.quiver import Quiver, SpanningTree, _tree_walk
from jkscatter.series import TruncatedSeries


def meet(planes: Sequence[LinForm], var_order: Sequence[str],
         active: tuple[int, ...] = ()) -> SingularPoint | None:
    """The point where the affine planes p_i = 0 meet, or None unless they
    form a basis (n = len(var_order) planes with independent linear parts).

    Each plane must be an edge k (x_head - x_tail) + c on the n coordinates
    and the reference node n, fixed at 0 (a plane in one coordinate is an
    edge to it), else ValueError.  The location is read along the walk of
    the tree from the reference, in integers over the lcm of the c / k's
    denominators; the walk and the scales stay on the point.
    """
    n = len(var_order)
    index = {v: i for i, v in enumerate(var_order)}
    edges, scales, steps = [], [], []
    for p in planes:
        terms = sorted(p.coeffs.items(), key=lambda vc: -vc[1])  # the head first
        ends = [index.get(v) for v, _ in terms] + [n]  # the reference last
        if None in ends or not (len(terms) == 1 or len(terms) == 2 and terms[0][1] == -terms[1][1]):
            raise ValueError(f"plane {p!r} is not an edge k (x_head - x_tail) + c")
        edges.append((ends[1], ends[0]))
        scales.append(terms[0][1])
        steps.append(p.const / terms[0][1])
    big = lcm(*(x.denominator for x in steps))
    got = _integer_walk(n, edges, [x.numerator * (big // x.denominator) for x in steps])
    if got is None:
        return None
    walk, at = got
    return SingularPoint(active, walk, tuple(scales), tuple(at[:n]), big, tuple(var_order))


def hyperplanes(a: Arrangement) -> list[tuple[LinForm, Fraction]]:
    """(linear part, offset) pairs; the hyperplane is {linear + offset = 0}."""
    out = [(w.form, w.rcharge) for w in a.weights]
    out.extend((r, Q(-1)) for r in a.roots)
    return out


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """The nonzero rows of the reduced row echelon form of m."""
    rows, pivots, _values, _swaps = _gauss_jordan(m, len(m[0]) if m else 0)
    return tuple(tuple(row) for row in rows[:len(pivots)])


def change_vars_linear(f: RationalExpr, basis: Sequence[LinForm],
                       var_order: Sequence[str] | None = None,
                       new_names: Sequence[str] | None = None) -> RationalExpr:
    """f in coordinates x_i = basis_i(u), times the Jacobian det(du/dx).

    iterated_residue of the output is invariant under rescaling of basis
    elements, and equals the flag residue for a positively-oriented basis.
    """
    if var_order is None:
        var_order = sorted(f.variables() | {v for b in basis for v in b.variables()})
    m = [[b.coeff(u) for u in var_order] for b in basis]
    det = mat_det(m) if len(m) == len(var_order) else ZERO
    if det == 0:
        raise SingularBasis("basis matrix is singular")
    return subst_linear_basis(f, basis, var_order, new_names) * (ONE / det)


def series_exp(g: TruncatedSeries) -> TruncatedSeries:
    if g.param_degree_zero_part():
        raise BadConstantTerm("exp requires an element == 0 mod parameters")
    return g._power_sum(1, lambda n: Fraction(1, factorial(n)))


def arrow_count(q: Quiver, tail: str, head: str) -> int:
    return sum(1 for t, h in q.arrows if (t, h) == (tail, head))


def skew_euler_form(q: Quiver, a: str, b: str) -> int:
    """<a,b> = #(arrows b->a) - #(arrows a->b)."""
    if a not in q.vertices or b not in q.vertices:
        raise UnknownVertex(f"{a!r} or {b!r} not in quiver")
    return arrow_count(q, b, a) - arrow_count(q, a, b)


class NotATree(JKScatterError):
    """An arrow subset is not a spanning tree oriented away from the root."""


def wt_residue(qbar: Quiver, tree: SpanningTree,
               multiplicities: dict[int, int], root: str) -> Fraction:
    """Iterated residue of W_T at the locus where all w coincide.

    W_T = prod over tree arrows i->j of (w_i / w_j) * m / (w_j - w_i);
    residues are taken in the coordinates v_a = w_head - w_tail, leaf-first,
    with the root variable left untouched (the result is w_root-free).
    Contract: the value equals prod m_a.
    """
    walk = _tree_walk(qbar.vertices, [qbar.arrows[i] for i in tree.arrows], root)
    if walk is None:
        raise NotATree("arrows do not form a spanning tree with a valid root")

    w = {v: LinForm.var(f"w_{v}") for v in qbar.vertices}
    expr = RationalExpr(1)
    for i in tree.arrows:
        t, h = qbar.arrows[i]
        m = multiplicities[i]
        expr = expr * RationalExpr(m, ((w[t], 1), (w[h], -1), (w[h] - w[t], -1)))

    # coordinates: v_i = w_head - w_tail per arrow; w_v = w_parent +- v_i
    path: dict[str, LinForm] = {root: LinForm.var(f"w_{root}")}
    depth = {root: 0}
    for v, k, p, down in walk:
        depth[v] = depth[p] + 1
        step = LinForm.var(f"v{tree.arrows[k]}")
        path[v] = path[p] + step if down else path[p] - step
    expr = expr.subs_linear({f"w_{v}": path[v] for v in qbar.vertices})

    # leaf-first: deepest arrows first; residue variable v_i for arrow into v
    for _v, k, _p, _down in sorted(walk, key=lambda s: (-depth[s[0]], s[0])):
        expr = residue_step(expr, f"v{tree.arrows[k]}")
        if expr.is_zero():
            return ZERO
    expr = expr.reduce()
    root_var = f"w_{root}"
    if root_var in expr.variables():
        # the residue is w_root-free as a function; cancel by evaluation
        v1 = expr.evaluate({root_var: Q(1)})
        v2 = expr.evaluate({root_var: Q(2)})
        if v1 != v2:
            raise NotATree("residue unexpectedly depends on the root variable")
        return v1
    return expr.as_fraction()
