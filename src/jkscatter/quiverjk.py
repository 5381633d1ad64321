"""Quiver-level residue pipeline: Z_Q, tree expansions of abelian JK
residues, abelianized JK for general dimension vectors, the large-R-charge
limit, and residues of the tree functions W_T.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arrangement import (Arrangement, build_arrangement, jk_basis, jk_global,
                          meet, scale_rcharges, zeta_from_theta)
from .errors import NonRegularStability, NotATree, NotSumRegular
from .exact import LinForm, ONE, Q, RationalExpr, ZERO, qify, residue_step
from .quiver import (DimVector, Quiver, SpanningTree, Stability, _tree_walk,
                     abelianize, spanning_trees, support_quiver,
                     tree_components, weist_count)


def build_ZQ(q: Quiver, d: DimVector, a: Arrangement) -> RationalExpr:
    """The meromorphic form (-1)^(|d|-1) * prod_roots r/(r-1) *
    prod_weights (rho+R-1)/(rho+R) of the arrangement, one weight factor per
    original arrow and index pair, so every pole is simple."""
    scalar = Q(-1) ** (d.total() - 1)
    factors = []
    for r in a.roots:
        factors.append((r, 1))
        factors.append((r - 1, -1))
    for w in a.weights:
        factors.append((w.form + (w.rcharge - 1), 1))
        factors.append((w.form + w.rcharge, -1))
    return RationalExpr(scalar, factors)


# ---------------------------------------------------------------------------
# tree expansion of the abelian JK residue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeExpansionTerm:
    tree: tuple[int, ...]             # reduced-quiver arrow indices
    lift: tuple[int, ...]             # chosen original arrow per tree arrow
    point: tuple[Fraction, ...]       # singular point x_T
    local_value: Fraction
    indicator: int                    # 1 if the tree is stable, else 0
    components: tuple[Fraction, ...]  # stability coefficients c_alpha


@dataclass(frozen=True)
class TreeExpansion:
    terms: tuple[TreeExpansionTerm, ...]
    value: Fraction


def jk_tree_expansion(q: Quiver, theta: Stability,
                      a: Arrangement) -> tuple[Fraction, TreeExpansion]:
    """Abelian JK residue as a sum over stable spanning trees.

    Every spanning tree of the reduced quiver on the support of d, together
    with a choice of original arrow per tree arrow, determines a singular
    point whose active weights form a basis; the tree contributes iff all
    its stability coefficients are negative.  A disconnected support has
    no spanning tree, and the residue is 0.  Each lift's planes are met
    here (meet, one elimination that jk_basis then reads), not looked up
    in a.points, so the two JK routes stay independent; zeta_from_theta
    reads a.points to check that the stability is regular.
    """
    if not a.dim.is_abelian():
        raise ValueError("tree expansion needs an abelian dimension vector")
    z = build_ZQ(q, a.dim, a)
    # the arrangement sees only the support of d: trees of the quiver on it
    qbar, _mult = support_quiver(q, a.dim)
    zeta = zeta_from_theta(a, theta)
    # weights grouped by reduced arrow
    by_reduced: dict[tuple[str, str], list[int]] = {}
    for i, w in enumerate(a.weights):
        by_reduced.setdefault(w.arrow, []).append(i)

    terms = []
    total = ZERO
    for tree in spanning_trees(qbar):
        comps = tree_components(qbar, tree, theta)
        stable = all(c < 0 for c in comps.values())
        comp_tuple = tuple(comps[i] for i in tree.arrows)
        for lift in itertools.product(*(by_reduced[qbar.arrows[i]] for i in tree.arrows)):
            point = meet([a.weights[i].form + a.weights[i].rcharge for i in lift],
                         a.variables)
            if point is None:
                raise NotATree("tree weights do not form a basis")
            local = ZERO
            if stable:
                try:
                    local = jk_basis(z, point, zeta, a.variables)
                except NotSumRegular as exc:
                    raise NonRegularStability(
                        f"zeta not regular for tree {tree.arrows}: {exc}",
                        witness=exc.witness) from exc
                total += local
            terms.append(TreeExpansionTerm(tree.arrows, tuple(lift), point.location,
                                           local, 1 if stable else 0, comp_tuple))
    return total, TreeExpansion(tuple(terms), total)


def jk_global_ZQ(q: Quiver, theta: Stability, a: Arrangement) -> Fraction:
    """Global JK of Z_Q via full singular-point enumeration (second route)."""
    z = build_ZQ(q, a.dim, a)
    zeta = zeta_from_theta(a, theta)
    return jk_global(z, a, zeta)


# ---------------------------------------------------------------------------
# abelianized JK and the large-R limit
# ---------------------------------------------------------------------------

def jk_ab(q: Quiver, d: DimVector, zeta: Stability, rseed: int,
          lam: Fraction = ONE) -> Fraction:
    """Abelianized JK residue: weighted sum over blown-up abelian quivers.

    Each term is evaluated by the tree expansion with R-charges lambda * R-bar,
    R-bar frozen deterministically from ``rseed`` per term.
    """
    total = ZERO
    for k, term in enumerate(abelianize(q, d, zeta)):
        arr = scale_rcharges(build_arrangement(
            term.quiver, term.dimension, seed=rseed + 1000003 * k), lam)
        value, _ = jk_tree_expansion(term.quiver, term.stability, arr)
        total += term.coefficient * value
    return total


def jk_ab_infinity(q: Quiver, d: DimVector, zeta: Stability) -> Fraction:
    """Closed-form large-R limit: sum of coefficient * weist_count per term."""
    total = ZERO
    for term in abelianize(q, d, zeta):
        total += term.coefficient * weist_count(term.quiver, term.stability)
    return total


def lambda_sweep(q: Quiver, d: DimVector, zeta: Stability, rseed: int,
                 lambdas: Sequence[Fraction]) -> dict:
    """Exact jk_ab values along a lambda family, with the closed-form limit."""
    limit = jk_ab_infinity(q, d, zeta)
    rows = []
    for lam in lambdas:
        val = jk_ab(q, d, zeta, rseed, qify(lam))
        rows.append({"lambda": qify(lam), "value": val, "abs_diff": abs(val - limit)})
    return {"rows": rows, "limit": limit}


# ---------------------------------------------------------------------------
# tree functions W_T
# ---------------------------------------------------------------------------

def wt_residue(qbar: Quiver, tree: SpanningTree,
               multiplicities: dict[int, int], root: str) -> Fraction:
    """Iterated residue of W_T at the locus where all w coincide.

    W_T = prod over tree arrows i->j of (w_i / w_j) * m / (w_j - w_i);
    residues are taken in the coordinates v_a = w_head - w_tail, leaf-first,
    with the root variable left untouched (the result is w_root-free).
    Contract: the value equals prod m_a.
    """
    walk = _tree_walk(qbar, tree.arrows, root)
    if walk is None:
        raise NotATree("arrows do not form a spanning tree with a valid root")
    order, parent = walk

    w = {v: LinForm.var(f"w_{v}") for v in qbar.vertices}
    expr = RationalExpr(1)
    for i in tree.arrows:
        t, h = qbar.arrows[i]
        m = multiplicities[i]
        expr = expr * RationalExpr(m, ((w[t], 1), (w[h], -1), (w[h] - w[t], -1)))

    # coordinates: v_i = w_head - w_tail per arrow; w_v = w_parent +- v_i
    path: dict[str, LinForm] = {root: LinForm.var(f"w_{root}")}
    depth = {root: 0}
    for v in order[1:]:
        i, p = parent[v]
        depth[v] = depth[p] + 1
        step = LinForm.var(f"v{i}")
        path[v] = path[p] + step if qbar.arrows[i][1] == v else path[p] - step
    expr = expr.subs_linear({f"w_{v}": path[v] for v in qbar.vertices})

    # leaf-first: deepest arrows first; residue variable v_i for arrow into v
    arrow_depth = sorted(order[1:], key=lambda v: (-depth[v], v))
    for v in arrow_depth:
        i = parent[v][0]
        expr = residue_step(expr, f"v{i}")
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
