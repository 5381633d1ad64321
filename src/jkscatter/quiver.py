"""Quiver combinatorics: reduced quivers, Euler forms, spanning trees,
stability coefficients, and abelianization (blown-up quivers).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Mapping, Sequence

from .errors import (Disconnected, HasLoop, HasOrientedCycle, NonRegularStability,
                     NotNormalized, UnknownVertex)
from .exact import ONE, ZERO, qify

Q = Fraction


@dataclass(frozen=True)
class Quiver:
    """Directed graph without loops or oriented cycles.

    vertices: ordered tuple of string ids; arrows: tuple of (tail, head).
    """
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]

    @staticmethod
    def make(vertices: Sequence[str], arrows: Sequence[tuple[str, str]]) -> "Quiver":
        return Quiver(tuple(vertices), tuple((t, h) for t, h in arrows))

    def arrow_count(self, tail: str, head: str) -> int:
        return sum(1 for t, h in self.arrows if (t, h) == (tail, head))


def bipartite_quiver(l1: int, l2: int) -> Quiver:
    """Complete bipartite quiver K(l1, l2): sources i1..i_l1, sinks j1..j_l2."""
    sources = [f"i{a + 1}" for a in range(l1)]
    sinks = [f"j{b + 1}" for b in range(l2)]
    arrows = [(s, t) for s in sources for t in sinks]
    return Quiver.make(sources + sinks, arrows)


def validate_quiver(q: Quiver, require_connected: bool = False) -> None:
    """Enforce loop-freeness, acyclicity and (optionally) connectivity."""
    vs = set(q.vertices)
    if len(vs) != len(q.vertices):
        raise HasOrientedCycle([])  # duplicate ids would corrupt everything
    for t, h in q.arrows:
        if t not in vs or h not in vs:
            raise UnknownVertex(f"arrow ({t}, {h}) references unknown vertex")
        if t == h:
            raise HasLoop(f"loop at vertex {t}")
    # Kahn's algorithm; leftover vertices witness a cycle
    indeg = {v: 0 for v in q.vertices}
    succ: dict[str, list[str]] = {v: [] for v in q.vertices}
    for t, h in q.arrows:
        indeg[h] += 1
        succ[t].append(h)
    queue = [v for v in q.vertices if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != len(q.vertices):
        cycle = sorted(v for v in q.vertices if indeg[v] > 0)
        raise HasOrientedCycle(cycle)
    if require_connected and not _is_connected(q.vertices, q.arrows):
        raise Disconnected("the underlying graph is not connected")


def _is_connected(vertices: Sequence[str], arrows) -> bool:
    if not vertices:
        return True
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for t, h in arrows:
        adj[t].add(h)
        adj[h].add(t)
    stack, seen = [vertices[0]], {vertices[0]}
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def reduced_quiver(q: Quiver) -> tuple[Quiver, dict[int, int]]:
    """One arrow per (tail, head) pair; multiplicities keyed by reduced arrow index."""
    validate_quiver(q)
    pairs: dict[tuple[str, str], int] = {}
    for t, h in q.arrows:
        pairs[(t, h)] = pairs.get((t, h), 0) + 1
    order = {v: i for i, v in enumerate(q.vertices)}
    reduced = sorted(pairs, key=lambda p: (order[p[0]], order[p[1]]))
    qbar = Quiver.make(q.vertices, reduced)
    mult = {i: pairs[a] for i, a in enumerate(reduced)}
    return qbar, mult


def skew_euler_form(q: Quiver, a: str, b: str) -> int:
    """<a,b> = #(arrows b->a) - #(arrows a->b)."""
    if a not in q.vertices or b not in q.vertices:
        raise UnknownVertex(f"{a!r} or {b!r} not in quiver")
    return q.arrow_count(b, a) - q.arrow_count(a, b)


# ---------------------------------------------------------------------------
# dimension vectors and stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimVector:
    values: tuple[tuple[str, int], ...]  # (vertex, d_v) in quiver order

    @staticmethod
    def make(q: Quiver, mapping: Mapping[str, int]) -> "DimVector":
        vals = []
        for v in q.vertices:
            d = int(mapping.get(v, 0))
            if d < 0:
                raise ValueError(f"negative dimension at {v}")
            vals.append((v, d))
        return DimVector(tuple(vals))

    def __getitem__(self, v: str) -> int:
        for w, d in self.values:
            if w == v:
                return d
        raise UnknownVertex(v)

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)

    def total(self) -> int:
        return sum(d for _, d in self.values)

    def support(self) -> tuple[str, ...]:
        return tuple(v for v, d in self.values if d > 0)

    def is_abelian(self) -> bool:
        return all(d <= 1 for _, d in self.values)


@dataclass(frozen=True)
class Stability:
    values: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def make(q: Quiver, mapping: Mapping[str, Fraction]) -> "Stability":
        return Stability(tuple((v, qify(mapping.get(v, 0))) for v in q.vertices))

    def __getitem__(self, v: str) -> Fraction:
        for w, c in self.values:
            if w == v:
                return c
        raise UnknownVertex(v)

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)

    def check_normalized(self, d: DimVector) -> None:
        tot = sum((self[v] * dv for v, dv in d.values), ZERO)
        if tot != 0:
            raise NotNormalized(f"sum d_v*theta_v = {tot} != 0")


def moduli_dimension(q: Quiver, d: DimVector) -> int:
    """D = sum over arrows of d_tail*d_head - |d| + 1."""
    dd = d.as_dict()
    return sum(dd[t] * dd[h] for t, h in q.arrows) - d.total() + 1


# ---------------------------------------------------------------------------
# spanning trees and stability coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanningTree:
    arrows: tuple[int, ...]          # indices into the reduced quiver's arrows
    root: str | None = None


def spanning_trees(qbar: Quiver) -> list[SpanningTree]:
    """All spanning trees of the underlying graph, lexicographic in arrow ids."""
    validate_quiver(qbar, require_connected=True)
    n = len(qbar.vertices)
    out = []
    for combo in itertools.combinations(range(len(qbar.arrows)), n - 1):
        if _tree_walk(qbar, combo, qbar.vertices[0]) is not None:
            out.append(SpanningTree(combo))
    return out


def _tree_walk(qbar: Quiver, arrows: Sequence[int], root: str):
    """Breadth-first walk from root: (vertex order, {vertex: (arrow, parent)}),
    or None unless the arrows form a spanning tree and root is a vertex."""
    if root not in qbar.vertices or len(arrows) != len(qbar.vertices) - 1:
        return None
    adj: dict[str, list[tuple[int, str]]] = {v: [] for v in qbar.vertices}
    for i in arrows:
        t, h = qbar.arrows[i]
        adj[t].append((i, h))
        adj[h].append((i, t))
    order, parent = [root], {}
    for v in order:  # grows while it is read: a FIFO queue
        for i, u in adj[v]:
            if u != root and u not in parent:
                parent[u] = (i, v)
                order.append(u)
    # n - 1 arrows that reach all n vertices form a tree
    return (order, parent) if len(order) == len(qbar.vertices) else None


def tree_components(qbar: Quiver, tree: SpanningTree,
                    theta: Stability) -> dict[int, Fraction]:
    """The c_alpha of theta = sum c_alpha * (e_head - e_tail) over the tree.

    Cut arrow alpha: every other arrow adds 0 to theta summed over either
    side, so c_alpha is theta summed over the side that holds alpha's head.
    Raises NotNormalized unless theta sums to 0 and the arrows form a
    spanning tree, and NonRegularStability (witness: tree and arrow) on the
    first zero c_alpha in tree order.
    """
    d_ab = DimVector.make(qbar, {v: 1 for v in qbar.vertices})
    theta.check_normalized(d_ab)
    walk = _tree_walk(qbar, tree.arrows, qbar.vertices[0])
    if walk is None:
        raise NotNormalized("tree arrows do not form a basis of the hyperplane")
    order, parent = walk
    below = theta.as_dict()  # becomes theta summed over the subtree below v
    comps = {}
    for v in reversed(order[1:]):
        i, p = parent[v]
        below[p] += below[v]
        comps[i] = below[v] if qbar.arrows[i][1] == v else -below[v]
    for i in tree.arrows:
        if comps[i] == 0:
            raise NonRegularStability(
                f"component of arrow {qbar.arrows[i]} vanishes on tree {tree.arrows}",
                witness={"tree": tree.arrows, "arrow": qbar.arrows[i]})
    return {i: comps[i] for i in tree.arrows}


def stable_trees(qbar: Quiver, theta: Stability) -> list[SpanningTree]:
    """N^theta: spanning trees with all components strictly negative."""
    return [tree for tree in spanning_trees(qbar)
            if all(c < 0 for c in tree_components(qbar, tree, theta).values())]


def weist_count(q: Quiver, theta: Stability) -> Fraction:
    """Sum over stable spanning trees of the product of arrow multiplicities."""
    qbar, mult = reduced_quiver(q)
    stable = stable_trees(qbar, theta)
    return sum((prod(mult[i] for i in tree.arrows) for tree in stable), ZERO)


# ---------------------------------------------------------------------------
# abelianization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianizationTerm:
    quiver: Quiver
    dimension: DimVector
    stability: Stability
    coefficient: Fraction
    multiplicities: tuple[tuple[str, tuple[int, ...]], ...] = ()
    # per original vertex: m = (m_1, m_2, ...) with sum l*m_l = d_v


def _multiplicity_vectors(d: int) -> list[tuple[int, ...]]:
    """All (m_1, .., m_d) with sum l*m_l = d, deterministic order."""
    out = []

    def rec(l: int, left: int, acc: list[int]):
        if l > d:
            if left == 0:
                out.append(tuple(acc))
            return
        for m in range(left // l + 1):
            rec(l + 1, left - l * m, acc + [m])

    rec(1, d, [])
    return out


def abelianize(q: Quiver, d: DimVector, zeta: Stability) -> list[AbelianizationTerm]:
    """One term per total multiplicity vector m_* partitioning d.

    Each original vertex i with d_i > 0 is replaced by vertices ``i@k,l`` for
    every part size l with m_l > 0 and k = 1..m_l; an original arrow gains
    multiplicity l_tail * l_head between blown-up endpoints.  The lifted
    stability is zeta_hat(i@k,l) = l * zeta_i, and the coefficient is
    prod_i d_i! * prod_l (1/m_l!) * ((-1)^(l-1) / l^2)^(m_l).
    """
    validate_quiver(q)
    zeta.check_normalized(d)
    support = [v for v in q.vertices if d[v] > 0]
    choices = [_multiplicity_vectors(d[v]) for v in support]
    terms = []
    for pick in itertools.product(*choices):
        coeff = ONE
        new_vertices: list[str] = []
        parts: dict[str, list[tuple[str, int]]] = {}  # vertex -> [(new id, l)]
        for v, m in zip(support, pick):
            coeff *= factorial(d[v])
            parts[v] = []
            for l, ml in enumerate(m, start=1):
                if ml == 0:
                    continue
                coeff *= Q(1, factorial(ml)) * (Q((-1) ** (l - 1), l * l)) ** ml
                for k in range(1, ml + 1):
                    vid = f"{v}@{k},{l}"
                    new_vertices.append(vid)
                    parts[v].append((vid, l))
        new_arrows = []
        for t, h in q.arrows:
            if d[t] == 0 or d[h] == 0:
                continue
            for tid, lt in parts[t]:
                for hid, lh in parts[h]:
                    new_arrows.extend([(tid, hid)] * (lt * lh))
        nq = Quiver.make(new_vertices, new_arrows)
        nd = DimVector.make(nq, {v: 1 for v in new_vertices})
        nz = Stability.make(nq, {vid: zeta[v] * l
                                 for v in support for vid, l in parts[v]})
        terms.append(AbelianizationTerm(
            nq, nd, nz, coeff,
            tuple((v, m) for v, m in zip(support, pick))))
    return terms
