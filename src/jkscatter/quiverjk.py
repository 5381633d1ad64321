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
                          zeta_from_theta)
from .errors import NonRegularStability, NotATree, NotSumRegular
from .exact import (LinForm, ONE, Q, RationalExpr, ZERO, qify, residue_step,
                    solve_linear)
from .quiver import (AbelianizationTerm, DimVector, Quiver, SpanningTree,
                     Stability, abelianize, moduli_dimension, reduced_quiver,
                     spanning_trees, tree_components, weist_count)


def build_ZQ(q: Quiver, d: DimVector, a: Arrangement,
             sign_mode: str = "paper") -> RationalExpr:
    """The meromorphic form of the arrangement.

    paper mode: (-1)^(|d|-1) * prod_roots r/(r-1) * prod_weights
    ((rho+R-1)/(rho+R))^m; mero mode multiplies by (-1)^D.
    """
    scalar = Q(-1) ** (d.total() - 1)
    if sign_mode == "mero":
        scalar *= Q(-1) ** moduli_dimension(q, d)
    elif sign_mode != "paper":
        raise ValueError(f"unknown sign_mode {sign_mode!r}")
    factors = []
    for r in a.roots:
        factors.append((r, 1))
        factors.append((r - 1, -1))
    for w in a.weights:
        factors.append((w.form + (w.rcharge - 1), w.multiplicity))
        factors.append((w.form + w.rcharge, -w.multiplicity))
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

    Every spanning tree of the reduced quiver, together with a choice of
    original arrow per tree arrow, determines a singular point whose active
    weights form a basis; the tree contributes iff all its stability
    coefficients are negative.  Residues are taken at these tree points
    only; the full singular-point enumeration runs once, inside
    zeta_from_theta, to check that the stability is regular.
    """
    if not a.dim.is_abelian():
        raise ValueError("tree expansion needs an abelian dimension vector")
    z = build_ZQ(q, a.dim, a)
    qbar, _mult = reduced_quiver(q)
    zeta = zeta_from_theta(a, theta)
    # weights grouped by reduced arrow
    by_reduced: dict[tuple[str, str], list[int]] = {}
    for i, w in enumerate(a.weights):
        by_reduced.setdefault(w.arrow, []).append(i)

    terms = []
    total = ZERO
    for tree in spanning_trees(qbar):
        comps = tree_components(qbar, tree, theta)
        for i, c in comps.items():
            if c == 0:
                raise NonRegularStability(
                    f"vanishing stability coefficient on arrow {qbar.arrows[i]}",
                    witness={"tree": tree.arrows, "arrow": qbar.arrows[i]})
        stable = all(c < 0 for c in comps.values())
        comp_tuple = tuple(comps[i] for i in tree.arrows)
        for lift in itertools.product(*(by_reduced[qbar.arrows[i]] for i in tree.arrows)):
            forms = [a.weights[i].form for i in lift]
            rows = [f.vector(a.variables) for f in forms]
            rhs = [-a.weights[i].rcharge for i in lift]
            point = solve_linear(rows, rhs)
            if point is None:
                raise NotATree("tree weights do not form a basis")
            local = ZERO
            if stable:
                germ = z.translate(dict(zip(a.variables, point)))
                try:
                    local = jk_basis(germ, forms, zeta, var_order=a.variables)
                except NotSumRegular as exc:
                    raise NonRegularStability(
                        f"zeta not regular for tree {tree.arrows}: {exc}",
                        witness=exc.witness) from exc
                total += local
            terms.append(TreeExpansionTerm(tree.arrows, tuple(lift), tuple(point),
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

def _term_arrangement(term: AbelianizationTerm, seed: int,
                      lam: Fraction | None = None) -> Arrangement:
    """Arrangement of a blown-up quiver with frozen R-bar scaled by lambda."""
    base = build_arrangement(term.quiver, term.dimension, seed=seed)
    if lam is None or lam == 1:
        return base
    lam = qify(lam)
    return build_arrangement(term.quiver, term.dimension,
                             reference=base.reference,
                             rcharges=[r * lam for r in base.rcharges])


def jk_ab(q: Quiver, d: DimVector, zeta: Stability, rseed: int,
          lam: Fraction = ONE) -> Fraction:
    """Abelianized JK residue: weighted sum over blown-up abelian quivers.

    Each term is evaluated by the tree expansion with R-charges lambda * R-bar,
    R-bar frozen deterministically from ``rseed`` per term.
    """
    total = ZERO
    for k, term in enumerate(abelianize(q, d, zeta)):
        arr = _term_arrangement(term, rseed + 1000003 * k, lam)
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
    arrows = [qbar.arrows[i] for i in tree.arrows]
    verts = set(qbar.vertices)
    if root not in verts or len(arrows) != len(verts) - 1:
        raise NotATree("not a spanning arrow subset with a valid root")
    # root the tree on its undirected structure: parent[v] = (arrow id, sign)
    # where sign is +1 if the arrow points from the parent into v
    adj: dict[str, list[tuple[int, str, int]]] = {v: [] for v in verts}
    for i, (t, h) in zip(tree.arrows, arrows):
        adj[t].append((i, h, 1))
        adj[h].append((i, t, -1))
    depth = {root: 0}
    order = [root]
    parent: dict[str, tuple[int, str, int]] = {}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for i, u, sign in adj[v]:
            if u in depth:
                if u != v and (v not in parent or parent[v][0] != i):
                    raise NotATree("arrow subset has a cycle")
                continue
            depth[u] = depth[v] + 1
            parent[u] = (i, v, sign)
            order.append(u)
            queue.append(u)
    if len(depth) != len(verts):
        raise NotATree("arrow subset does not span the vertices")

    w = {v: LinForm.var(f"w_{v}") for v in qbar.vertices}
    expr = RationalExpr(1)
    for i in tree.arrows:
        t, h = qbar.arrows[i]
        m = multiplicities[i]
        expr = expr * RationalExpr(m, ((w[t], 1), (w[h], -1), (w[h] - w[t], -1)))

    # coordinates: v_i = w_head - w_tail per arrow; w_v = w_parent +- v_i
    path: dict[str, LinForm] = {root: LinForm.var(f"w_{root}")}
    for v in order[1:]:
        i, p, sign = parent[v]
        step = LinForm.var(f"v{i}")
        path[v] = path[p] + step if sign > 0 else path[p] - step
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
