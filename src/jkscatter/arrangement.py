"""Hyperplane arrangements from quiver data and the Jeffrey-Kirwan residue.

The ambient space has one coordinate ``u_{v}_{k}`` per vertex v and index
k = 1..d_v, with one reference coordinate removed (set to 0).  Weights are the
projections of u_{head,j} - u_{tail,i} displaced by rational R-charges, one
per original arrow; roots are the differences u_{v,j} - u_{v,i} displaced by 1.
So each plane is an edge x_head - x_tail + c between two of the n + 1 nodes
(the coordinates, then the reference node n), and the bases of n planes are
the spanning trees on n + 1 nodes.  build_arrangement records the planes
once as an integer edge table over one common denominator L (_edge_table):
tail, head, c L, and whether the plane is a weight or a root.  The points
of a table (_table_points) come from one integer walk of each tree
(_integer_walk, over per-node lists), so a point is known by the integers
L p, its numerators, and points are keyed and sorted by them.  The table
is all a build computes: the LinForm and Fraction views of it
(Weight.form, Arrangement.roots, and a point's location and functionals)
are built on first read and cached, so a path that reads only the table,
as jk_global_ZQ does, builds none of them.  quiverjk.jk_ab builds no
Arrangement at all: each of its terms is an edge table, read by the same
kernels (_edge_table, _table_points, _zeta_cut_sums) that
build_arrangement, singular_points and zeta_from_theta wrap.  _edge_table
takes the R-charges as integer numerators over one denominator and reduces
them by one gcd, so jk_ab passes the integer draws of sample_rcharges
(_rcharge_numerators) scaled by lambda and makes no Fraction per arrow.

Exactly n planes meet at every singular point (singular_points rejects
more), so the local JK residue there is the basis case (Jeffrey-Kirwan 1995,
Brion-Vergne 1999): it depends only on the signs of zeta's coordinates in
the basis, zeta summed across each cut of the tree (quiver._cut_sums, as
for theta in tree_components) over the edge's scale, so a coordinate's
sign is read from the cut sum and the scale without a division.
_zeta_cut_sums makes one list of cut sums per point's walk, which serves
the regularity test of zeta_from_theta and the cone test of
quiverjk.jk_global_ZQ.  Both JK routes of quiverjk read Z_Q's residue at
these points in closed form off the table, as an integer pair (top,
bottom) per point.  jk_basis reads the residue of any form at a basis
point, each factor evaluated at the location, and jk_zeta, the general
residue for active sets that are not a basis, sums iterated residues over
the flags adapted to the active set (Brion-Vergne 1999, Szenes-Vergne
2004), grown one flat at a time by enumerate_flags; no command reaches
either, and both stay because the benchmark's per-layer tracer
(perfbench/tracer.py) wraps them by name.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import (DegenerateRCharges, NonRegularStability, NotProjective,
                     NotSumRegular, TooManyPlanes)
from .exact import (LinForm, ONE, Q, RationalExpr, ZERO, iterated_residue,
                    mat_det, qify, solve_linear, subst_linear_basis)
from .quiver import (DimVector, Quiver, Stability, _cut_sums, _spanning_tree_indices,
                     check_tree_walks, validate_quiver)

Vector = tuple[Fraction, ...]


def coord_name(vertex: str, k: int) -> str:
    return f"u_{vertex}_{k}"


# ---------------------------------------------------------------------------
# arrangement construction
# ---------------------------------------------------------------------------

def _edge_form(tail: str | None, head: str | None, scale: Fraction = ONE,
               const: Fraction = ZERO) -> LinForm:
    """scale (x_head - x_tail) + const, an end None being the reference (0)."""
    coeffs = {}
    if head is not None:
        coeffs[head] = scale
    if tail is not None:
        coeffs[tail] = -scale
    return LinForm(coeffs, const)


@dataclass(frozen=True)
class Weight:
    rcharge: Fraction        # hyperplane: form + rcharge = 0
    arrow: tuple[str, str]   # original arrow
    arrow_index: int
    _ends: tuple[str | None, str | None]  # (tail, head) coordinates, None the reference

    @functools.cached_property
    def form(self) -> LinForm:
        """The linear part x_head - x_tail (reference coordinate projected
        out), built on first read."""
        return _edge_form(*self._ends)


@dataclass(frozen=True)
class Arrangement:
    quiver: Quiver
    dim: DimVector
    variables: tuple[str, ...]       # ordered coordinates (reference removed)
    reference: tuple[str, int]
    weights: tuple[Weight, ...]
    rcharges: tuple[Fraction, ...]   # one per arrow
    # one row (tail, head, c L, is a weight) per plane x_head - x_tail + c,
    # the weights' then the roots', over nodes 0..n (n the reference), and L
    table: tuple[tuple[int, int, int, bool], ...]
    denominator: int

    @property
    def n(self) -> int:
        return len(self.variables)

    @functools.cached_property
    def roots(self) -> tuple[LinForm, ...]:
        """The roots' linear parts x_head - x_tail, one per root row of
        table, built on first read."""
        names = self.variables + (None,)
        return tuple(_edge_form(names[t], names[h])
                     for t, h, _c, weight in self.table if not weight)

    @functools.cached_property
    def points(self) -> tuple[SingularPoint, ...]:
        """The singular points, enumerated once per arrangement."""
        return tuple(singular_points(self))


RC_DENOMINATOR = 2 ** 31
# build_arrangement, and jk_ab for each term, refuses more hyperplanes than
# this before building any (_check_planes): building their table takes up to about 8 us a plane (CPython 3.11, x86_64,
# in-process: two vertices and 99,999 arrows at d = (1, 1), R-charges
# sampled, 0.8 s; K(1,1) d=(316;1), 99,856 planes, 99,540 of them roots,
# 0.12 s to its DegenerateRCharges), so under a second
MAX_ARRANGEMENT_PLANES = 100_000


def _check_planes(planes: int, coordinates: int) -> None:
    """Raise TooManyPlanes past MAX_ARRANGEMENT_PLANES planes."""
    if planes > MAX_ARRANGEMENT_PLANES:
        raise TooManyPlanes(planes, MAX_ARRANGEMENT_PLANES, coordinates)


def sample_rcharges(count: int, seed: int) -> list[Fraction]:
    """Deterministic generic rationals: _rcharge_numerators / 2^31."""
    return [Q(x, RC_DENOMINATOR) for x in _rcharge_numerators(count, seed)]


def _rcharge_numerators(count: int, seed: int) -> list[int]:
    """The numerators of sample_rcharges, each drawn from a seeded PRNG."""
    rng = random.Random(seed)
    return [rng.randrange(1, RC_DENOMINATOR) for _ in range(count)]


def build_arrangement(q: Quiver, d: DimVector,
                      rcharges: Sequence[Fraction] | None = None,
                      seed: int | None = None) -> Arrangement:
    """Build the weight/root arrangement of (Q, d) with explicit or seeded R.

    Every arrow carries its own R-charge, so parallel arrows give parallel
    weight hyperplanes and no hyperplane is repeated.  A seed names one R,
    sample_rcharges(len(q.arrows), seed); more than n planes through a point
    raise DegenerateRCharges, and no other R is tried (such coincidences are
    structural).  The reference coordinate is the last index of the last
    vertex in the support of d.  TooManyPlanes is raised before anything is
    built when the planes, d_t * d_h per arrow and d_v * (d_v - 1) per
    vertex, number more than MAX_ARRANGEMENT_PLANES.  The edge table puts
    the planes over L, the lcm of the R-charges' denominators.
    """
    validate_quiver(q)
    dims = d.as_dict()
    _check_planes(sum(dims[t] * dims[h] for t, h in q.arrows)
                  + sum(x * (x - 1) for x in dims.values()), d.total() - 1)
    if rcharges is None:
        if seed is None:
            raise ValueError("provide explicit rcharges or a seed")
        rcharges = sample_rcharges(len(q.arrows), seed)
    rc = tuple(qify(r) for r in rcharges)
    if len(rc) != len(q.arrows):
        raise ValueError(f"expected {len(q.arrows)} R-charges, got {len(rc)}")
    rv = d.support()[-1]
    rk = d[rv]
    coords = [(v, k) for v in q.vertices for k in range(1, d[v] + 1) if (v, k) != (rv, rk)]
    node = {vk: i for i, vk in enumerate(coords + [(rv, rk)])}  # the reference is node n
    variables = tuple(coord_name(v, k) for v, k in coords)
    names = variables + (None,)

    ends = [(node[t, i], node[h, j], idx) for idx, (t, h) in enumerate(q.arrows)
            for i in range(1, d[t] + 1) for j in range(1, d[h] + 1)]
    pairs = [(node[v, i], node[v, j]) for v in q.vertices
             for i in range(1, d[v] + 1) for j in range(1, d[v] + 1) if i != j]
    weights = tuple(Weight(rc[idx], q.arrows[idx], idx, (names[t], names[h]))
                    for t, h, idx in ends)
    lcd = lcm(*(r.denominator for r in rc))
    table, big = _edge_table(ends, [r.numerator * (lcd // r.denominator) for r in rc], lcd, pairs)
    arr = Arrangement(q, d, variables, (rv, rk), weights, rc, table, big)
    arr.points  # raises DegenerateRCharges on coincidences
    return arr


def _edge_table(weights: Sequence[tuple[int, int, int]], numerators: Sequence[int],
                denominator: int, roots: Sequence[tuple[int, int]] = ()) -> tuple[tuple, int]:
    """(table, L) for the R-charges numerators[i] / denominator: L is the
    lcm of their reduced denominators, denominator over its gcd with all
    the numerators, and the rows (tail, head, c L, is a weight) are the
    weight planes x_head - x_tail + R_i for the weights (tail, head, i),
    then the root planes x_head - x_tail - 1 on the edges roots."""
    g = gcd(denominator, *numerators)
    big = denominator // g
    steps = [x // g for x in numerators]
    return (tuple([(t, h, steps[i], True) for t, h, i in weights])
            + tuple([(t, h, -big, False) for t, h in roots])), big


# ---------------------------------------------------------------------------
# singular points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPoint:
    active: tuple[int, ...]              # indices into the table's rows, or ()
    walk: tuple[tuple, ...]              # the active planes' edges' tree from the reference
    scales: tuple[Fraction, ...]         # functional i: scales[i] (x_h - x_t) + c
    numerators: tuple[int, ...]          # location = numerators / denominator
    denominator: int
    _variables: tuple[str, ...]          # the coordinates, the nodes 0..n-1 of walk

    @functools.cached_property
    def location(self) -> Vector:
        """The point w.r.t. the variables, built on first read."""
        return tuple(Q(x, self.denominator) for x in self.numerators)

    @functools.cached_property
    def functionals(self) -> tuple[LinForm, ...]:
        """The active planes, 0 at the location, built on first read: plane
        i is the walk's edge i, scales[i] (x_head - x_tail) + c, and c is
        read off the numerators of its ends."""
        names = self._variables + (None,)
        at = self.numerators + (0,)  # the reference node n
        out = [None] * len(self.walk)
        for v, k, p, down in self.walk:
            t, h = (p, v) if down else (v, p)
            s = self.scales[k]
            out[k] = _edge_form(names[t], names[h], s, s * Q(at[t] - at[h], self.denominator))
        return tuple(out)


def _integer_walk(n: int, edges: Sequence[tuple[int, int]], steps: Sequence[int]):
    """(walk, at) for the planes x_head - x_tail + step = 0 on edges (tail,
    head) of nodes 0..n, walked from the reference node n (at 0) as
    quiver._tree_walk walks it, over per-node lists: at[v] is the integer
    where they put node v; None unless the edges form a tree."""
    if len(edges) != n:
        return None
    adj = [[] for _ in range(n + 1)]
    for k, (t, h) in enumerate(edges):
        adj[t].append((k, h, True))
        adj[h].append((k, t, False))
    at = [None] * n + [0]  # None until the walk reaches the node
    walk, queue = [], [n]
    for p in queue:  # grows while it is read: breadth first, as _tree_walk
        for k, v, down in adj[p]:
            if at[v] is None:
                at[v] = at[p] - steps[k] if down else at[p] + steps[k]
                walk.append((v, k, p, down))
                queue.append(v)
    # n edges that reach all n + 1 nodes form a tree
    return (tuple(walk), at) if len(walk) == n else None


def singular_points(a: Arrangement) -> list[SingularPoint]:
    """All points where n hyperplanes meet, sorted by location
    (_table_points of a.table).  An abelian d meets every basis:
    TooManyTrees past MAX_SPANNING_TREES.
    """
    if a.dim.is_abelian():
        check_tree_walks([(a.n + 1, [(t, h) for t, h, _c, _w in a.table])])
    units = (ONE,) * a.n  # each plane is x_head - x_tail + c
    return [SingularPoint(basis, walk, units, key, a.denominator, a.variables)
            for key, basis, walk in _table_points(a.n, a.table, a.denominator)]


def _table_points(n: int, table: Sequence[tuple[int, int, int, bool]],
                  big: int) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple]]:
    """(numerators, basis, walk) of every point where n planes of the edge
    table over big meet, sorted by numerators.

    Every plane is an edge, so the bases are the spanning trees on n + 1
    nodes; each is walked once (_integer_walk), and the point
    is keyed by its numerators over big, which sort as the locations do.
    A second basis landing on a stored point means more than n planes meet
    there (basis exchange), which raises DegenerateRCharges at once.
    """
    edges = [(t, h) for t, h, _c, _w in table]
    pts: dict[tuple[int, ...], tuple] = {}
    for basis in _spanning_tree_indices(n + 1, edges):
        walk, at = _integer_walk(n, [edges[i] for i in basis], [table[i][2] for i in basis])
        key = tuple(at[:n])
        if key in pts:
            where = ", ".join(f"{x.numerator}/{x.denominator}" for x in (Q(y, big) for y in key))
            raise DegenerateRCharges(f"more than {n} hyperplanes meet at ({where})")
        pts[key] = basis, walk
    return [(key, basis, walk) for key, (basis, walk) in sorted(pts.items())]


# ---------------------------------------------------------------------------
# projectivity
# ---------------------------------------------------------------------------

def is_projective(vectors: Sequence[Vector]) -> bool:
    """Is the set contained in a strict half-space (0 not in its convex hull)?"""
    vecs = [tuple(qify(x) for x in v) for v in vectors]
    if any(all(x == 0 for x in v) for v in vecs):
        return False
    dim = len(vecs[0]) if vecs else 0
    # Caratheodory: 0 in conv(S) iff 0 in conv of some <= dim+1 points
    for r in range(2, min(len(vecs), dim + 1) + 1):
        for sub in itertools.combinations(vecs, r):
            rows = [[sub[j][i] for j in range(r)] for i in range(dim)]
            rows.append([ONE] * r)
            rhs = [ZERO] * dim + [ONE]
            lam = solve_linear(rows, rhs)
            if lam is not None and all(l >= 0 for l in lam):
                return False
    return True


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flag:
    partition: tuple[tuple[int, ...], ...]   # indices into the active set
    kappas: tuple[Vector, ...]
    nu: int                                  # 0 or +-1
    gamma: tuple[LinForm, ...]               # adapted basis, det = sign(dmu)
    cone_coeffs: tuple[Fraction, ...] | None
    in_cone: bool


def enumerate_flags(activeset: Sequence[LinForm], zeta: Sequence[Fraction],
                    dmu_order: Sequence[str],
                    var_order: Sequence[str] | None = None) -> list[Flag]:
    """All flags adapted to the active set, with nu, kappa and cone data,
    in partition order.

    ``dmu_order`` orders the coordinates whose wedge is the reference
    measure, else ValueError; zeta components follow ``var_order``
    (defaulting to the sorted coordinate names).  A flag grows one flat at
    a time, F_{j+1} = F_j + span(a) for an active form a outside F_j, and
    block j+1 of its partition holds the forms F_{j+1} adds (zero forms join
    block 1).  A flat is named by the forms it holds, and its successors are
    found once, one per unclaimed form in index order: that is block order,
    as their blocks share no nonzero form, so the flags come out sorted and
    the first kappa-cone wall met (NotSumRegular) is the smallest partition.
    """
    base = tuple(var_order) if var_order is not None else tuple(sorted(dmu_order))
    n = len(base)
    zeta = tuple(qify(x) for x in zeta)
    vecs = [f.vector(base) for f in activeset]
    perm = [[Q(v == w) for w in base] for v in dmu_order]
    dsign = int(mat_det(perm)) if len(perm) == n else 0
    if not dsign:
        raise ValueError(f"dmu_order {tuple(dmu_order)} is not an ordering of {base}")
    successors: dict[frozenset[int], list] = {}
    flags: list[Flag] = []

    def grow(held: frozenset[int], gens: list[Vector], partition: tuple):
        if len(partition) == n:
            flags.append(_finish(partition))
            return
        if held not in successors:
            rest = [k for k in range(len(vecs)) if k not in held]
            zeros = [k for k in rest if not any(vecs[k])]
            claimed, successors[held] = set(zeros), []
            for i in (i for i in rest if i not in claimed):  # claimed grows below
                up = gens + [vecs[i]]
                cols = [list(row) for row in zip(*up)]
                block = sorted(zeros + [i] + [k for k in rest if k > i and k not in claimed
                                              and solve_linear(cols, vecs[k]) is not None])
                claimed.update(block)
                successors[held].append((tuple(block), held.union(block), up))
        for block, flat, up in successors[held]:
            grow(flat, up, partition + (block,))

    def _finish(partition: tuple[tuple[int, ...], ...]) -> Flag:
        kappas, running = [], [ZERO] * n
        for part in partition:
            for i in part:
                running = [a + b for a, b in zip(running, vecs[i])]
            kappas.append(tuple(running))
        det = mat_det(kappas)
        nu = 0 if det == 0 else (1 if det > 0 else -1) * dsign
        coeffs = None
        if nu != 0:
            # zeta on the boundary of a kappa-cone is a sum-regularity failure
            # (each kappa is a sum of distinct active elements)
            coeffs = tuple(solve_linear([list(col) for col in zip(*kappas)], list(zeta)))
            if 0 in coeffs:
                raise NotSumRegular("zeta lies on a kappa-cone wall",
                                    witness=list(partition))
        gamma = [activeset[part[0]] for part in partition]
        gdet = mat_det([vecs[part[0]] for part in partition])
        if gamma and gdet != 0:  # n = 0: the one empty flag, nu = 1
            gamma[-1] = gamma[-1] * (Q(dsign) / gdet)
        return Flag(partition, tuple(kappas), nu, tuple(gamma), coeffs,
                    coeffs is not None and all(c > 0 for c in coeffs))

    grow(frozenset(), [], ())
    return flags


def _basis_residue(f: RationalExpr, basis: Sequence[LinForm],
                   var_order: Sequence[str]) -> Fraction:
    """IR_0 of f in the coordinates x_i = basis_i, taken in the basis order."""
    names = [f"x{i + 1}" for i in range(len(basis))]
    return iterated_residue(subst_linear_basis(f, basis, var_order, names), names)


def flag_residue(f: RationalExpr, flag: Flag,
                 var_order: Sequence[str]) -> Fraction:
    """Residue along the flag: IR_0 of f in the adapted coordinates.

    The adapted basis stored on the flag has determinant sign(dmu), which
    fixes the orientation; no Jacobian factor is applied (it is +-1 and
    already encoded in the basis normalization).
    """
    return _basis_residue(f, flag.gamma, var_order)


def jk_zeta(f: RationalExpr, activeset: Sequence[LinForm],
            zeta: Sequence[Fraction], dmu_order: Sequence[str],
            var_order: Sequence[str] | None = None) -> Fraction:
    """JK residue as the nu-weighted sum of flag residues over FL+(A, zeta)."""
    base = tuple(var_order) if var_order is not None else tuple(sorted(dmu_order))
    vecs = [a.vector(base) for a in activeset]
    if not is_projective(vecs):
        raise NotProjective("active set is not contained in a strict half-space")
    total = ZERO
    for flag in enumerate_flags(activeset, zeta, dmu_order, var_order=base):
        if flag.nu != 0 and flag.in_cone:
            total += flag.nu * flag_residue(f, flag, base)
    return total


def jk_basis(f: RationalExpr, point: SingularPoint, zeta: Sequence[Fraction],
             var_order: Sequence[str]) -> Fraction:
    """Local JK residue of f at a point where a basis of planes meets.

    The point (from a.points) carries its basis forms basis_i, its
    location p and its tree, which gives zeta's coordinates, zeta = sum c_i
    basis_i, as c_i = s_i / k_i: s_i is zeta's cut sum across basis edge i
    and k_i its scale.  Only their signs are read, so nothing is divided: a zero
    s_i raises NotSumRegular, and the value is 0 unless every s_i has the
    sign of its k_i.  Inside the cone, every denominator factor lf that
    vanishes at p must be proportional to a basis form, basis_i = kappa_i
    * lf, else ValueError.  In x_i = basis_i(u) the form is then g(x) /
    prod x_i^m_i with g holomorphic at x = 0, and the residue is the Taylor
    coefficient of g at x^(m-1), whatever the order of the x_i: 0 when some
    basis form carries no pole, and for simple poles

        scalar * num(p) * prod lf(p)^e * prod kappa_i,

    the first product over the factors that do not vanish at p (so 0 when a
    numerator factor vanishes there), each evaluated as a Fraction.  A pole
    of order >= 2 takes the iterated residue in the basis order.
    """
    basis = point.functionals
    n = len(basis)
    sums = _cut_sums(point.walk, [*zeta, ZERO])
    if 0 in sums:
        idx = [i for i, s in enumerate(sums) if s == 0]
        raise NotSumRegular(f"zeta has vanishing components {idx} w.r.t. the basis",
                            witness=[basis[i] for i in range(n) if i not in idx])
    if any((s < 0) != (k < 0) for s, k in zip(sums, point.scales)):
        return ZERO
    p = dict(zip(var_order, point.location))
    kappa = {canon: (i, unit)
             for i, (unit, canon) in enumerate(b.canonical() for b in basis)}
    poles = [0] * n
    value = f.scalar * f.num.evaluate(p)
    for lf, e in f.factors:
        at_p = lf.evaluate(p)
        if at_p:
            value *= at_p ** e
        elif lf in kappa:
            i, unit = kappa[lf]
            poles[i] = -e
            value *= unit
        elif e < 0:
            raise ValueError(f"denominator {lf!r} vanishes at p off the basis")
        else:
            value = ZERO
    if any(m < 1 for m in poles):
        return ZERO
    if all(m == 1 for m in poles):
        return value
    return _basis_residue(f, basis, var_order)


# ---------------------------------------------------------------------------
# global JK
# ---------------------------------------------------------------------------

def theta_lift(a: Arrangement, theta: Stability) -> Vector:
    """Diagonal embedding: component theta_v on every coordinate of vertex v."""
    comps = []
    for name in a.variables:
        vertex = name[2:name.rfind("_")]
        comps.append(theta[vertex])
    return tuple(comps)


def zeta_from_theta(a: Arrangement, theta: Stability) -> Vector:
    """zeta = -theta_lift, checked for regularity at every singular point
    (_zeta_cut_sums).

    The active functionals of every singular point form a basis B, and zeta
    is tested in its coordinates c, zeta = sum c_i B_i, read off the point's
    tree: c_i is zeta's cut sum s_i over the scale k_i, so c_i is 0 exactly
    when s_i is, and nothing is divided.  zeta lies on a wall, the span of
    n-1 active functionals, exactly when some c_i is 0: that raises
    NonRegularStability with the smallest such wall as the witness.
    Otherwise zeta is returned as it is: the local JK residue at a basis
    depends only on the signs of the c_i, so ties and other coincidences
    among them change no value.
    """
    zeta = tuple(-x for x in theta_lift(a, theta))
    _zeta_cut_sums([pt.walk for pt in a.points], zeta)
    return zeta


def _zeta_cut_sums(walks: Sequence[tuple], zeta: Sequence[Fraction]) -> list[list[int]]:
    """zeta's cut sums along each walk of a point's tree over the n nodes of
    zeta and the reference, times the lcm of zeta's denominators (only their
    signs are read), after the regularity test of zeta_from_theta:
    NonRegularStability, with the smallest wall as the witness, if any sum
    is 0.  A wall is named by the vectors of the other planes of its basis,
    each a unit edge x_head - x_tail over the n coordinates."""
    n = len(zeta)
    big = lcm(*(x.denominator for x in zeta))
    below = [x.numerator * (big // x.denominator) for x in zeta] + [0]
    out, walls = [], []
    for walk in walks:
        sums = _cut_sums(walk, below.copy())
        if 0 in sums:  # the vectors serve only to name a wall
            vecs = [None] * len(walk)
            for v, k, p, down in walk:
                t, h = (p, v) if down else (v, p)
                vec = [ZERO] * (n + 1)  # the reference node n is cut off below
                vec[h], vec[t] = ONE, -ONE
                vecs[k] = tuple(vec[:n])
            walls.extend(tuple(sorted(vecs[:i] + vecs[i + 1:]))
                         for i, x in enumerate(sums) if x == 0)
        out.append(sums)
    if walls:
        raise NonRegularStability(
            "lifted stability lies on an arrangement wall",
            witness=[list(w) for w in min(walls)])
    return out


def jk_global(f: RationalExpr, a: Arrangement, zeta: Sequence[Fraction]) -> Fraction:
    """Sum over singular points of the local JK of f, read where the
    point's active planes meet."""
    total = ZERO
    for pt in a.points:
        try:
            total += jk_basis(f, pt, zeta, a.variables)
        except NotSumRegular as exc:
            raise NonRegularStability(
                f"zeta is not regular at singular point {pt.location}: {exc}",
                witness=exc.witness) from exc
    return total
