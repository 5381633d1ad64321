"""Quiver combinatorics: reduced quivers, Euler forms, spanning trees,
stability coefficients, and abelianization (blown-up quivers).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import lshift, mul
from typing import Mapping, Sequence

from .errors import (DuplicateVertex, HasLoop, HasOrientedCycle, NonRegularStability,
                     NotNormalized, TooManyTerms, TooManyTrees, TooMuchWork,
                     UnknownVertex)
from .exact import ONE, ZERO, qify

Q = Fraction

# The tuples of pairs on a Quiver, a Stability and an AbelianizationTerm are
# built as tuple([...]), not tuple(generator): on CPython 3.11 the generator
# form left about 1.8 MB more in the interpreter's per-size tuple free lists
# (capped at 2000 tuples a size) over the benchmark's six jk_ab_infinity
# jobs, 7% of their peak RSS.  Measured on 3.11 only.


@dataclass(frozen=True)
class Quiver:
    """Directed graph without loops or oriented cycles.

    vertices: ordered tuple of string ids; arrows: tuple of (tail, head).
    """
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]

    @staticmethod
    def make(vertices: Sequence[str], arrows: Sequence[tuple[str, str]]) -> "Quiver":
        return Quiver(tuple(vertices), tuple([(t, h) for t, h in arrows]))

    def arrow_count(self, tail: str, head: str) -> int:
        return sum(1 for t, h in self.arrows if (t, h) == (tail, head))


def bipartite_quiver(l1: int, l2: int) -> Quiver:
    """Complete bipartite quiver K(l1, l2): sources i1..i_l1, sinks j1..j_l2."""
    sources = [f"i{a + 1}" for a in range(l1)]
    sinks = [f"j{b + 1}" for b in range(l2)]
    arrows = [(s, t) for s in sources for t in sinks]
    return Quiver.make(sources + sinks, arrows)


def validate_quiver(q: Quiver) -> None:
    """Enforce distinct and known vertices, loop-freeness and acyclicity."""
    vs = set(q.vertices)
    if len(vs) != len(q.vertices):
        repeated = sorted({v for v in q.vertices if q.vertices.count(v) > 1})
        raise DuplicateVertex(f"repeated vertex ids {repeated}")
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


def support_quiver(q: Quiver, d: DimVector) -> tuple[Quiver, dict[int, int]]:
    """reduced_quiver of the full subquiver of q on the support of d."""
    support = d.support()
    return reduced_quiver(Quiver.make(
        support, [(t, h) for t, h in q.arrows if t in support and h in support]))


def skew_euler_form(q: Quiver, a: str, b: str) -> int:
    """<a,b> = #(arrows b->a) - #(arrows a->b)."""
    if a not in q.vertices or b not in q.vertices:
        raise UnknownVertex(f"{a!r} or {b!r} not in quiver")
    return q.arrow_count(b, a) - q.arrow_count(a, b)


# ---------------------------------------------------------------------------
# dimension vectors and stability
# ---------------------------------------------------------------------------

def _check_keys(q: Quiver, mapping: Mapping, what: str) -> None:
    unknown = set(mapping) - set(q.vertices)
    if unknown:
        raise UnknownVertex(f"{what} keys {sorted(unknown)} are not vertices")


@dataclass(frozen=True)
class DimVector:
    values: tuple[tuple[str, int], ...]  # (vertex, d_v) in quiver order

    @staticmethod
    def make(q: Quiver, mapping: Mapping[str, int]) -> "DimVector":
        _check_keys(q, mapping, "dimension")
        vals = []
        for v in q.vertices:
            d = mapping.get(v, 0)
            if type(d) is not int:
                raise TypeError(f"dimension at {v} must be an int, got {d!r}")
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
        _check_keys(q, mapping, "stability")
        return Stability(tuple([(v, qify(mapping.get(v, 0))) for v in q.vertices]))

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


def spanning_trees(qbar: Quiver) -> list[SpanningTree]:
    """All spanning trees of the underlying multigraph, lexicographic in arrow
    ids; none if the graph is disconnected or has no vertex."""
    validate_quiver(qbar)
    return [SpanningTree(t) for t in _spanning_tree_indices(len(qbar.vertices), _edges(qbar))]


def _edges(q: Quiver) -> list[tuple[int, int]]:
    """q's arrows as (tail, head) pairs of vertex indices."""
    index = {v: i for i, v in enumerate(q.vertices)}
    return [(index[t], index[h]) for t, h in q.arrows]


def _spanning_tree_indices(nodes: int, edges: Sequence[tuple[int, int]]):
    """Edge-index tuples of the spanning trees on nodes 0..nodes-1, in
    lexicographic order: an edge is taken only when it joins two components
    of the forest so far, and a branch stops when too few edges remain."""
    return _grow_trees(nodes, edges, 0, list(range(nodes)), ()) if nodes else iter(())


def _grow_trees(nodes: int, edges: Sequence[tuple[int, int]], start: int,
                comp: list[int], chosen: tuple[int, ...]):
    """The trees of _spanning_tree_indices that extend the forest chosen
    (comp maps a node to its component) by edges from start on.  A
    module-level generator holds its state in its arguments, so it makes
    no reference cycle that only the cyclic GC would free."""
    if len(chosen) == nodes - 1:
        yield chosen
        return
    for i in range(start, len(edges) - nodes + len(chosen) + 2):
        a, b = comp[edges[i][0]], comp[edges[i][1]]
        if a != b:
            yield from _grow_trees(nodes, edges, i + 1, [a if c == b else c for c in comp],
                                   chosen + (i,))


def _tree_walk(nodes: Sequence, edges: Sequence[tuple], root):
    """Breadth-first walk from root along (tail, head) edges: a step
    (v, k, p, down) per other node v, reached from p along edges[k] (from p
    to v if down); None unless the edges form a spanning tree on nodes."""
    if root not in nodes or len(edges) != len(nodes) - 1:
        return None
    adj = {v: [] for v in nodes}
    for k, (t, h) in enumerate(edges):
        adj[t].append((k, h, True))
        adj[h].append((k, t, False))
    steps, seen = [(root, None, None, None)], {root}
    for v, _k, _p, _down in steps:  # grows while it is read: a FIFO queue
        for k, u, down in adj[v]:
            if u not in seen:
                seen.add(u)
                steps.append((u, k, v, down))
    # n - 1 edges that reach all n nodes form a tree
    return tuple(steps[1:]) if len(steps) == len(nodes) else None


def _cut_sums(walk, below) -> list:
    """The c_k of below = sum_k c_k (e_head_k - e_tail_k) off the walk's root:
    every edge but k adds 0 to below summed over the side of k's cut away
    from the root, so c_k is that sum, negated when k points toward the
    root.  below[v] becomes the sum over v's subtree."""
    sums = [None] * len(walk)
    for v, k, p, down in reversed(walk):
        below[p] += below[v]
        sums[k] = below[v] if down else -below[v]
    return sums


def tree_components(qbar: Quiver, tree: SpanningTree,
                    theta: Stability) -> dict[int, Fraction]:
    """The c_alpha of theta = sum c_alpha * (e_head - e_tail) over the tree,
    theta's cut sums.  Raises NotNormalized unless the arrows form a spanning
    tree and theta sums to 0 over its vertices, then NonRegularStability
    (witness: tree and arrow) on the first zero c_alpha in tree order.
    """
    edges = [qbar.arrows[i] for i in tree.arrows]
    walk = _tree_walk(qbar.vertices, edges, qbar.vertices[0])
    if walk is None:
        raise NotNormalized("tree arrows do not form a basis of the hyperplane")
    below = theta.as_dict()
    comps = dict(zip(tree.arrows, _cut_sums(walk, below)))
    if below[qbar.vertices[0]] != 0:
        raise NotNormalized(f"sum d_v*theta_v = {below[qbar.vertices[0]]} != 0")
    for i in tree.arrows:
        if comps[i] == 0:
            raise NonRegularStability(
                f"component of arrow {qbar.arrows[i]} vanishes on tree {tree.arrows}",
                witness={"tree": tree.arrows, "arrow": qbar.arrows[i]})
    return comps


def stable_trees(qbar: Quiver, theta: Stability) -> list[SpanningTree]:
    """N^theta: spanning trees with all components strictly negative."""
    return [tree for tree in spanning_trees(qbar)
            if all(c < 0 for c in tree_components(qbar, tree, theta).values())]


# weist_count's work is counted in steps of the type DP's inner loop: on T
# types of c_t vertices each it visits at most T * prod_t C(c_t + 2, 2)
# (state, branch) pairs.  Listing a spanning tree and cutting it costs
# about SCAN_STEPS_PER_TREE * V steps.  Measured on CPython 3.11 (x86_64),
# a scanned tree takes 3.5-5.3 us per vertex on quivers of 4 to 9 vertices,
# and a DP step 60-160 ns on twin-free complete bipartite quivers of 13
# down to 8 vertices.  jk_ab_infinity prices each term so, but counts all
# the terms that take the DP in one DP over the type vectors under them,
# which visits a tenth to a fifteenth of the pairs priced (K(1,1) d=(9;8):
# 540,742 against 5,513,657; d=(12;11): 1.3e7 against 1.95e8), at 40-55 ns
# a priced step on K(1,1) d=(11;10) and (12;11).
SCAN_STEPS_PER_TREE = 100
# weist_count and jk_ab_infinity refuse more steps than this: about 12 s
# on a twin-free quiver and 9 s over the many terms of a jk_ab_infinity
# request at those rates (K(1,1) d=(12;11), 1.95e8 steps over 4,312 terms,
# took 8.6 s and 55 MB; 25-33 s with a DP per term).  A twin-free quiver
# under it has at most 14 vertices (K(7,6): 13 vertices, 2.1e7 steps, 1.3
# s).  The DP's two tables have a row per type over the type vectors under
# some term (T * prod_t (c_t + 1) entries for one quiver), fewer than its
# steps
MAX_WEIST_STEPS = 200_000_000


def spanning_tree_count(nodes: int, edges: Sequence[tuple[int, int]]) -> int:
    """How many trees _spanning_tree_indices lists (Kirchhoff): the Laplacian
    without the last node's row and column, by fraction-free elimination."""
    if not nodes:
        return 0
    lap = [[0] * nodes for _ in range(nodes)]
    for a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[:-1] for row in lap[:-1]]
    pivot = 1
    for k, top in enumerate(m):
        # the minor is positive semi-definite, so a zero pivot (a zero
        # diagonal entry of a Schur complement) means a zero determinant
        if not top[k]:
            return 0
        for row in m[k + 1:]:
            row[k + 1:] = [(x * top[k] - row[k] * y) // pivot
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        pivot = top[k]
    return pivot


# `trees`, abelian arrangements and a jk_ab request (all its terms' trees)
# refuse more spanning trees than this.  Measured on CPython 3.11, x86_64,
# in-process: `trees` and `jk` on K(4,4) at d = 1, 4,096 trees, took
# 0.44-0.56 and 0.41-0.45 s for 2.9 and 2.7 MB reports (0.11-0.14 and
# 0.10-0.11 ms a tree), and jk_ab reads a tree off its term's edge table
# in 14-26 us (K(2,2) d=(2,2;2,1), 1,800 trees: 0.024-0.026 s; K(2,1)
# d=(5,4;2), 63,580 trees with the bound lifted: 1.3-1.6 s; 15-25 us on
# the same host when each term built its quiver and arrangement).  At the
# bound: about 1.3 s for `trees`, 1.1 s for `jk` and 0.25 s for a jk_ab
# request
MAX_SPANNING_TREES = 10_000


def check_tree_walks(graphs: Sequence[tuple[int, Sequence[tuple[int, int]]]]) -> list[int]:
    """Raise TooManyTrees past MAX_SPANNING_TREES spanning trees in all on the
    graphs (nodes, edges), counting them only when the C(edges, nodes - 1)
    sets of a tree's size, summed over the graphs, pass it.  Returns each
    graph's bound on its trees: its count if they were counted, else its
    C(edges, nodes - 1)."""
    trees = [comb(len(edges), nodes - 1) if nodes else 0 for nodes, edges in graphs]
    if sum(trees) > MAX_SPANNING_TREES:
        trees = [spanning_tree_count(nodes, edges) for nodes, edges in graphs]
        if sum(trees) > MAX_SPANNING_TREES:
            raise TooManyTrees(sum(trees), MAX_SPANNING_TREES)
    return trees


@dataclass(frozen=True)
class WeistPlan:
    """How weist_count counts the stable trees of a quiver at one theta: its
    reduced quiver and multiplicities, its twin classes (vertex indices of
    the reduced quiver), and the cheaper of the two routes (scan the
    spanning trees, or run the type DP) with its steps."""
    qbar: Quiver
    mult: dict[int, int]
    types: tuple[tuple[int, ...], ...]
    steps: int
    scan: bool


def twin_classes(qbar: Quiver, mult: Mapping[int, int],
                 theta: Stability) -> tuple[tuple[int, ...], ...]:
    """The vertices of a reduced quiver grouped by type, in order of their
    first vertex: two vertices have one type when they have the same theta,
    the same arrows out to each vertex and the same arrows in from each.
    Equal rows leave no arrow between two vertices of one type, and any
    permutation inside a type is an automorphism that keeps theta."""
    n = len(qbar.vertices)
    out = [[0] * n for _ in range(n)]
    for k, (a, b) in enumerate(_edges(qbar)):
        out[a][b] = mult[k]
    values = theta.as_dict()
    classes: dict[tuple, list[int]] = {}
    for i, v in enumerate(qbar.vertices):
        key = (values[v], tuple(out[i]), tuple([row[i] for row in out]))
        classes.setdefault(key, []).append(i)
    return tuple([tuple(c) for c in classes.values()])


def _route(counts: Sequence[int], tree_count) -> tuple[int, bool]:
    """weist_count's steps on a quiver of counts[t] > 0 vertices of type t,
    and whether the tree scan is its cheaper route: the type DP takes T *
    prod_t C(c_t + 2, 2) steps (V * 3^V when no two vertices are twins), a
    scan SCAN_STEPS_PER_TREE * V steps a tree.  A scan costs at least
    SCAN_STEPS_PER_TREE * V steps, so tree_count(), the Kirchhoff count, is
    called only when the DP costs more than that."""
    dp = len(counts) * prod(comb(c + 2, 2) for c in counts)
    least_scan = SCAN_STEPS_PER_TREE * sum(counts)
    if dp <= least_scan:
        return dp, False
    scan = least_scan * tree_count()
    return min(scan, dp), scan <= dp


def weist_plan(q: Quiver, theta: Stability) -> WeistPlan:
    """weist_count's route on q at theta (_route): the type DP, or the tree
    scan where that is cheaper, as on a sparse twin-free quiver with many
    vertices."""
    qbar, mult = reduced_quiver(q)
    types = twin_classes(qbar, mult, theta)
    steps, scan = _route([len(c) for c in types],
                         lambda: spanning_tree_count(len(qbar.vertices), _edges(qbar)))
    return WeistPlan(qbar, mult, types, steps, scan)


def weist_count(q: Quiver, theta: Stability) -> Fraction:
    """Sum over theta-stable spanning trees of the product of arrow
    multiplicities (Weist's count of tree modules), along weist_plan(q,
    theta).  TooMuchWork is raised if the plan takes more than
    MAX_WEIST_STEPS.

    The scan lists stable_trees.  The DP (_type_dp, whose counting kernel
    is _type_counts): a tree is stable iff every arrow leaves theta > 0 on
    the side of its tail when cut.  Rooted at r, a child u with subtree U
    hangs from r by an arrow r -> u if theta(U) < 0 and u -> r if theta(U)
    > 0.  Vertices of one type (twin_classes) are interchangeable, so a
    count depends on a vertex set only through its type vector s.  The
    count F(s, rho) of stable trees on s rooted at one vertex of type rho
    sums, over the type vector u of the branch that holds one fixed vertex
    of the lowest type t0 left in r = s - e_rho,

        C(r_t0 - 1, u_t0 - 1) * prod_(t != t0) C(r_t, u_t) * H(u, rho) * F(s - u, rho),
        H(u, rho) = sum over sigma of u_sigma * F(u, sigma) * w(rho, sigma, theta(u)),

    the binomials counting the branches of type vector u, and weist_count
    is F(c, type of vertices[0]) for the full type vector c.  With every
    type a single vertex, this is the DP over vertex subsets.  A
    disconnected quiver counts 0, as the scan does; otherwise the DP raises
    as the scan would: theta not summing to 0 raises NotNormalized, and a
    wall (a split into two connected sides with theta = 0 on each) raises
    NonRegularStability with the scan's first tree and arrow as the
    witness, scanning trees only up to that one (past MAX_WEIST_STEPS for
    a full scan: a tree of each side of the wall and the first arrow across).
    """
    plan = weist_plan(q, theta)
    if plan.steps > MAX_WEIST_STEPS:
        raise TooMuchWork(plan.steps, MAX_WEIST_STEPS)
    if plan.scan:  # also every quiver without a spanning tree
        return sum((prod(plan.mult[i] for i in tree.arrows)
                    for tree in stable_trees(plan.qbar, theta)), ZERO)
    return _type_dp(plan.qbar, plan.mult, theta, plan.types)


def _type_dp(qbar: Quiver, mult: Mapping[int, int], theta: Stability,
             types: Sequence[Sequence[int]]) -> Fraction:
    """weist_count's DP route; types are qbar's twin classes.  0 on a
    disconnected quiver, then NotNormalized unless theta sums to 0, then the
    scan's witness on the first wall (_type_wall), else _type_counts of the
    one type vector."""
    nt = len(types)
    kind = [0] * len(qbar.vertices)
    for t, members in enumerate(types):
        for i in members:
            kind[i] = t
    down = [[0] * nt for _ in range(nt)]  # down[rho][sigma]: arrows rho -> sigma
    for k, (a, b) in enumerate(_edges(qbar)):
        down[kind[a]][kind[b]] = mult[k]
    adj = _type_adjacency(down)
    counts = [len(c) for c in types]
    if not counts or not _types_connected(counts, adj):
        return ZERO
    values = theta.as_dict()
    th, scale = _integer_theta([values[qbar.vertices[c[0]]] for c in types])
    total = sum(map(mul, th, counts))
    if total:
        raise NotNormalized(f"sum d_v*theta_v = {Q(total, scale)} != 0")
    wall = _type_wall(th, counts, adj)
    if wall is not None:
        # a representative side: the first s_t vertices of each type
        side = sum(1 << i for c, k in zip(types, wall) for i in c[:k])
        # some tree crosses this wall: scan to the first, or build one past the bound
        n, edges = len(qbar.vertices), _edges(qbar)
        trees = _spanning_tree_indices(n, edges)
        if SCAN_STEPS_PER_TREE * n * spanning_tree_count(n, edges) > MAX_WEIST_STEPS:
            order = sorted(range(len(edges)), key=lambda k: (
                side >> edges[k][0] & 1 != side >> edges[k][1] & 1))
            first = next(_spanning_tree_indices(n, [edges[k] for k in order]))
            trees = [tuple(sorted(order[k] for k in first))]
        for tree in trees:
            tree_components(qbar, SpanningTree(tree), theta)
    return Q(_type_counts(th, down, [counts])[0])


def _integer_theta(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """theta per type times the lcm of its denominators, integers of the
    same signs, and that lcm."""
    scale = lcm(*[x.denominator for x in values])
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _type_adjacency(down: Sequence[Sequence[int]]) -> list[int]:
    """Per type, the bitmask of the types joined to it by an arrow."""
    adj = [0] * len(down)
    for a, row in enumerate(down):
        for b, m in enumerate(row):
            if m:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def _types_connected(counts: Sequence[int], adj: Sequence[int]) -> bool:
    """Whether counts[t] vertices of each type t span a connected subquiver.
    No arrow joins two vertices of one type, and each vertex of a type
    meets every vertex of a type adjacent to it, so the vertices are
    connected iff they are one vertex or the types they hold are."""
    present = sum(1 << t for t, k in enumerate(counts) if k)
    if not present & (present - 1):
        return sum(counts) <= 1
    return _connected(present, adj)


def _type_wall(th: Sequence[int], counts: Sequence[int],
               adj: Sequence[int]) -> list[int] | None:
    """The first type vector s, 0 < s < counts in mixed radix order (the
    last type lowest), with theta(s) = 0 where both s and counts - s are
    connected: a wall that some spanning tree crosses; None if there is
    none.  th is theta per type, as integers."""
    theta_of = [0]  # theta(s) for every s <= counts, in mixed radix order
    for c, x in zip(counts, th):
        theta_of = [y + k * x for y in theta_of for k in range(c + 1)]
    index = 0
    while True:
        try:
            index = theta_of.index(0, index + 1, len(theta_of) - 1)
        except ValueError:
            return None
        side, rest = [], index
        for c in reversed(counts):
            rest, k = divmod(rest, c + 1)
            side.append(k)
        side.reverse()
        if (_types_connected(side, adj)
                and _types_connected([c - k for c, k in zip(counts, side)], adj)):
            return side


def _type_counts(th: Sequence[int], down: Sequence[Sequence[int]],
                 targets: Sequence[Sequence[int]]) -> list[int]:
    """F(c, rho) of weist_count's DP for each target type vector c, rho the
    first type c holds, by one DP over every type vector under some target.
    th is theta per type, as integers; down[rho][sigma] counts the arrows
    from a vertex of type rho to one of type sigma.  Each target holds a
    vertex and crosses no wall (a subtree with theta = 0 would count 0).

    A state is a type vector packed into one int, a bit field per type as
    wide as the largest count of that type in any target; the states under
    some target, in increasing order, index the tables densely, and every
    sub-vector of a state comes before it."""
    nt = len(th)
    top = [max(col) for col in zip(*targets)]
    shifts, width = [], 0
    for c in top:
        shifts.append(width)
        width += c.bit_length()
    masks = [(1 << c.bit_length()) - 1 for c in top]
    strides = [1 << s for s in shifts]
    keys = {sum(map(lshift, c, shifts)) for c in targets}
    for s, m in zip(shifts, masks):  # lower each count in turn: all vectors under a target
        keys.update([key - (j << s) for key in keys for j in range(1, (key >> s & m) + 1)])
    states = sorted(keys)
    index = {key: i for i, key in enumerate(states)}
    up = [list(col) for col in zip(*down)]  # up[rho][sigma]: arrows sigma -> rho
    # branch offsets and binomials per (type, count): all j <= k, and
    # j >= 1 for the first type present, whose fixed vertex is in the branch
    binom = [[comb(m, j) for j in range(m + 1)] for m in range(max(top) + 1)]
    offsets = [[[j << s for j in range(k + 1)] for k in range(c + 1)]
               for c, s in zip(top, shifts)]
    # rooted[rho][i] = F(states[i] + e_rho, rho); hanging[rho][i] = H(states[i], rho)
    rooted = [[0] * len(states) for _ in range(nt)]
    hanging = [[0] * len(states) for _ in range(nt)]
    for f in rooted:
        f[0] = 1
    for i in range(1, len(states)):
        key = states[i]
        digits = [key >> s & m for s, m in zip(shifts, masks)]
        # the types a root can take: F(state + e_rho, rho) lies under a target
        open_ = [rho for rho, k in enumerate(digits)
                 if k < top[rho] and key + strides[rho] in index]
        if not open_:
            continue
        # F(state, .) is complete: hang the state from each open type
        theta = sum(map(mul, th, digits))
        if theta:
            w = down if theta < 0 else up
            # u_sigma * F(u, sigma) for each type sigma
            fs = [k and k * rooted[sigma][index[key - strides[sigma]]]
                  for sigma, k in enumerate(digits)]
            for rho in open_:
                hanging[rho][i] = sum(map(mul, w[rho], fs))
        # every branch u <= r = state that holds the fixed vertex
        subs = None
        for t, k in enumerate(digits):
            if not k:
                continue
            if subs is None:
                subs, coefs = offsets[t][k][1:], binom[k - 1]
            else:
                subs = [u + o for u in subs for o in offsets[t][k]]
                coefs = [c * b for c in coefs for b in binom[k]]
        branch = list(map(index.__getitem__, subs))
        rest = list(map(index.__getitem__, map(key.__sub__, subs)))
        for rho in open_:
            g, f = hanging[rho], rooted[rho]
            f[i] = sum(map(mul, map(mul, coefs, map(g.__getitem__, branch)),
                           map(f.__getitem__, rest)))
    values = []
    for c in targets:
        rho = next(t for t, k in enumerate(c) if k)
        values.append(rooted[rho][index[sum(map(lshift, c, shifts)) - strides[rho]]])
    return values


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _connected(mask: int, adj: Sequence[int]) -> bool:
    """Whether the vertices in the bitmask span a connected subgraph;
    adj[i] is the bitmask of vertex i's neighbours."""
    reach = mask & -mask
    while True:
        grown = reach
        for i in _bits(reach):
            grown |= adj[i]
        grown &= mask
        if grown == reach:
            return reach == mask
        reach = grown


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
    """All (m_1, .., m_d) with sum l*m_l = d, in lexicographic order."""
    out = []
    stack = [((), d)]  # (m_1, .., m_k) and what is left of d
    while stack:
        acc, left = stack.pop()
        l = len(acc) + 1
        if not left:
            out.append(acc + (0,) * (d - len(acc)))
        elif l <= left:  # else no part size is left that fits
            stack.extend((acc + (m,), left - l * m) for m in range(left // l, -1, -1))
    return out


# abelianize, jk_ab and jk_ab_infinity refuse a dimension vector with more
# terms than this.  Measured on CPython 3.11, x86_64, in-process, on K(1,1)
# d=(14;11), 7,560 terms: abelianize builds a term's quiver in 0.07-0.1 ms
# and keeps 12 KB a term; jk_ab keeps a term as data (_blow_up), 13-32 us
# and 3.3 KB a term, and refused that d (TooManyTrees) in 1.0-1.1 s, most
# of it spent counting the terms' trees.  At the bound: about 1 s and 120
# MB for abelianize, 0.3 s and 33 MB for jk_ab's terms
MAX_ABELIANIZATION_TERMS = 10_000


def _partition_counts(bound: int) -> list[int]:
    """p(0), p(1), .., p(n) up to the first partition count over bound, by
    Euler's pentagonal-number recurrence."""
    p = [1]
    while p[-1] <= bound:
        n, total, k = len(p), 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p


# p is increasing: a d_v past the table already counts as over the bound
_PARTITION_COUNTS = _partition_counts(MAX_ABELIANIZATION_TERMS)


def abelianize(q: Quiver, d: DimVector, zeta: Stability) -> list[AbelianizationTerm]:
    """One term per total multiplicity vector m_* partitioning d.

    Each original vertex i with d_i > 0 is replaced by vertices ``i@k,l`` for
    every part size l with m_l > 0 and k = 1..m_l; an original arrow gains
    multiplicity l_tail * l_head between blown-up endpoints.  The lifted
    stability is zeta_hat(i@k,l) = l * zeta_i, and the coefficient is
    prod_i d_i! * prod_l (1/m_l!) * ((-1)^(l-1) / l^2)^(m_l).  There are
    prod_i p(d_i) terms (p the partition count); past
    MAX_ABELIANIZATION_TERMS, TooManyTerms is raised before any is built.
    AbelianizationTypes holds the same terms without building them.
    """
    support, choices = _abelianization(q, d, zeta)
    return [_blown_up_term(q, support, pick) for pick in itertools.product(*choices)]


def _abelianization(q: Quiver, d: DimVector, zeta: Stability) -> tuple[list[str], list]:
    """abelianize's checks (validation, normalisation, TooManyTerms), then
    its support and, per support vertex v, (m, factor, [(new id, l, l *
    zeta_v)]) for each multiplicity vector m: a term picks one per vertex."""
    validate_quiver(q)
    zeta.check_normalized(d)
    support = [v for v in q.vertices if d[v] > 0]
    estimate = 1
    for v in support:
        estimate *= _PARTITION_COUNTS[min(d[v], len(_PARTITION_COUNTS) - 1)]
        if estimate > MAX_ABELIANIZATION_TERMS:
            raise TooManyTerms(estimate, MAX_ABELIANIZATION_TERMS)
    choices = []
    for v in support:
        lifted = [zeta[v] * l for l in range(d[v] + 1)]
        choices.append([(m, _blowup_factor(d[v], m),
                         [(f"{v}@{k},{l}", l, lifted[l]) for l, ml in enumerate(m, start=1)
                          for k in range(1, ml + 1)])
                        for m in _multiplicity_vectors(d[v])])
    return support, choices


def _blown_up_term(q: Quiver, support: Sequence[str],
                   pick: Sequence[tuple]) -> AbelianizationTerm:
    """abelianize's term for pick, one of _abelianization's choices per
    support vertex: the quiver of _blow_up."""
    ids, arrows, lifted = _blow_up(q, support, pick)
    nq = Quiver(tuple(ids), tuple([(ids[t], ids[h]) for t, h in arrows]))
    nd = DimVector.make(nq, {v: 1 for v in ids})
    nz = Stability.make(nq, dict(zip(ids, lifted)))
    return AbelianizationTerm(nq, nd, nz, _coefficient(pick),
                              tuple([(v, m) for v, (m, _f, _p) in zip(support, pick)]))


def _blow_up(q: Quiver, support: Sequence[str],
             pick: Sequence[tuple]) -> tuple[list[str], list[tuple[int, int]], list[Fraction]]:
    """The blown-up quiver of pick as data, none of it built: its vertex
    ids, its arrows as (tail, head) vertex indices, l_t * l_h copies per
    original arrow between blown-up endpoints in q's arrow order, and each
    vertex's lifted stability l * zeta_v."""
    ids, lifted, parts = [], [], {}
    for v, (_m, _f, blown) in zip(support, pick):
        parts[v] = [(len(ids) + i, l) for i, (_vid, l, _z) in enumerate(blown)]
        ids.extend([vid for vid, _l, _z in blown])
        lifted.extend([z for _vid, _l, z in blown])
    arrows = []
    for t, h in q.arrows:
        if t in parts and h in parts:
            for a, lt in parts[t]:
                for b, lh in parts[h]:
                    arrows.extend([(a, b)] * (lt * lh))
    return ids, arrows, lifted


def _coefficient(pick: Sequence[tuple]) -> Fraction:
    """The coefficient of pick's abelianization term."""
    return prod((factor for _m, factor, _p in pick), start=ONE)


class AbelianizationTypes:
    """The terms of abelianize(q, d, zeta), in its order, as type vectors
    over one set of vertex types, none of their quivers built; abelianize's
    checks run first.

    A base type (v, l), one per support vertex v and part size l <= d_v,
    holds the vertices v@k,l.  Two base types are merged when they have
    equal l * zeta_v, equal arrows l * a_vw out to each support vertex w and
    equal arrows l * a_wv in from each: every term holds some vertex w@k,l'
    for each w, so the types are the twin classes (twin_classes) of every
    term's quiver, and the count of stable trees on a type vector is the
    same in every term that holds it.  theta is each type's stability l *
    zeta_v, scaled to integers, and down[rho][sigma] the arrows from a
    vertex of type rho to one of type sigma; per term k, counts[k] is its
    type vector and routes[k] weist_plan's steps and route on its quiver
    (_route)."""

    def __init__(self, q: Quiver, d: DimVector, zeta: Stability):
        self.q = q
        self.support, choices = _abelianization(q, d, zeta)
        self.picks = list(itertools.product(*choices))
        arrows: dict[tuple[str, str], int] = {}
        for t, h in q.arrows:
            arrows[t, h] = arrows.get((t, h), 0) + 1
        # zeta_v as integers of its signs; l * zeta_v is the stability of v@k,l
        scaled = _integer_theta([zeta[v] for v in self.support])[0]
        types: dict[tuple, int] = {}
        first, kinds = [], []  # a base type (v, l) per type; per vertex, the type of each l
        for v, z in zip(self.support, scaled):
            kinds.append([])
            for l in range(1, d[v] + 1):
                key = (l * z, tuple([l * arrows.get((v, w), 0) for w in self.support]),
                       tuple([l * arrows.get((w, v), 0) for w in self.support]))
                if key not in types:
                    types[key] = len(first)
                    first.append((v, l))
                kinds[-1].append(types[key])
        self.theta = [key[0] for key in types]
        self._parts: dict[int, int] = {}  # per value of zeta_v, the sum of its d_v
        for v, z in zip(self.support, scaled):
            self._parts[z] = self._parts.get(z, 0) + d[v]
        self.down = [[l * k * arrows.get((v, w), 0) for w, k in first] for v, l in first]
        self.adj = _type_adjacency(self.down)
        self.counts = []
        for pick in self.picks:
            c = [0] * len(first)
            for (m, _f, _p), kind in zip(pick, kinds):
                for l, ml in enumerate(m):
                    if ml:
                        c[kind[l]] += ml
            self.counts.append(c)
        self.routes = [_route([k for k in c if k],
                              lambda c=c: spanning_tree_count(*self._graph(c)))
                       for c in self.counts]

    def _graph(self, counts: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
        """(nodes, edges) of the reduced quiver of counts[t] vertices of each
        type t: one edge per pair of vertices whose types have arrows."""
        first = list(itertools.accumulate(counts, initial=0))
        return first[-1], [(a, b) for r, row in enumerate(self.down) for s, m in enumerate(row)
                           if m for a in range(first[r], first[r + 1])
                           for b in range(first[s], first[s + 1])]

    @cached_property
    def _balanced(self) -> bool:
        """Whether a side of a wall can exist: its e_v <= d_v vertices of
        each original vertex v, neither none nor all, have zeta.e = 0.  Only
        the sum E_z of e_v over the vertices of each value z of zeta_v
        matters, so this counts the E <= D with sum z * E_z = 0 besides E =
        0 and E = D."""
        ways = {0: 1}
        for z, total in self._parts.items():
            sums: dict[int, int] = {}
            for x, n in ways.items():
                for k in range(total + 1):
                    sums[x + k * z] = sums.get(x + k * z, 0) + n
            ways = sums
        return ways[0] > 2

    def _has_trees(self, k: int) -> bool:
        """Whether term k's quiver is nonempty and connected."""
        return any(self.counts[k]) and _types_connected(self.counts[k], self.adj)

    def alone(self, k: int) -> bool:
        """Whether term k is counted on its own quiver: its cheaper route is
        the scan, or it lies on a wall (_type_wall), where weist_count
        raises with the scan's witness."""
        return self.routes[k][1] or (self._balanced and self._has_trees(k) and _type_wall(
            self.theta, self.counts[k], self.adj) is not None)

    def term(self, k: int) -> AbelianizationTerm:
        return _blown_up_term(self.q, self.support, self.picks[k])

    def coefficient(self, k: int) -> Fraction:
        return _coefficient(self.picks[k])

    def count(self, ks: Sequence[int]) -> list[int]:
        """The weist counts of terms ks, none of which is counted alone, by
        one _type_counts over all of them; an empty or disconnected quiver
        counts 0, as in _type_dp."""
        live = [k for k in ks if self._has_trees(k)]
        counts = dict(zip(live, _type_counts(self.theta, self.down,
                                             [self.counts[k] for k in live]))) if live else {}
        return [counts.get(k, 0) for k in ks]


def _blowup_factor(dv: int, m: tuple[int, ...]) -> Fraction:
    """d_v! * prod_l (1/m_l!) * ((-1)^(l-1) / l^2)^(m_l), one vertex's share
    of an abelianization coefficient, as one Fraction of two integers."""
    num, den = factorial(dv), 1
    for l, ml in enumerate(m, start=1):
        if ml:
            num *= (-1) ** ((l - 1) * ml)
            den *= factorial(ml) * l ** (2 * ml)
    return Q(num, den)
