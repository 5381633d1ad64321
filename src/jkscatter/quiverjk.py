"""Quiver-level residue pipeline: Z_Q, tree expansions of abelian JK
residues, abelianized JK for general dimension vectors, and the
large-R-charge limit.

Both JK routes read Z_Q's residue at a point off an integer edge table
(_zq_residue) as an integer pair (top, bottom), and sum a route's pairs in
a balanced tree (_pair_sum), so one Fraction is made per sum.  jk_ab makes
each term's table from the integer draws behind sample_rcharges, with no
Fraction per arrow.  A read is priced before it starts, at trees *
(planes - n)^2 units (_check_read).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .arrangement import (MAX_ARRANGEMENT_PLANES, RC_DENOMINATOR, Arrangement, _check_planes,
                          _edge_table, _rcharge_numerators, _table_points, _zeta_cut_sums,
                          theta_lift, zeta_from_theta)
from .errors import TooMuchWork
from .exact import ONE, Q, RationalExpr, ZERO, qify
from .quiver import (AbelianizationTypes, DimVector, Quiver, Stability,
                     _abelianization, _blow_up, _coefficient, check_tree_walks,
                     spanning_tree_count, spanning_trees, support_quiver, tree_components)


def build_ZQ(a: Arrangement) -> RationalExpr:
    """The meromorphic form (-1)^(|d|-1) * prod_roots r/(r-1) *
    prod_weights (rho+R-1)/(rho+R) of the arrangement, d = a.dim, one weight
    factor per original arrow and index pair, so every pole is simple."""
    scalar = Q(-1) ** (a.dim.total() - 1)
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
    no spanning tree, and the residue is 0.  Both routes read Z_Q's closed
    form (_zq_residue) at the points that building a met, and differ in
    which points they sum: this one the lifts of the theta-stable trees,
    jk_global_ZQ every point whose cone holds zeta.  A lift's weights are
    its rows of a.table, so its point is the one of a.points whose basis is
    the lift in ascending order, where zeta_from_theta found zeta regular.
    ValueError unless d is abelian and a is built on q, then TooMuchWork
    as jk_global_ZQ prices a.
    """
    if not a.dim.is_abelian():
        raise ValueError("tree expansion needs an abelian dimension vector")
    if q != a.quiver:
        raise ValueError("the arrangement is not built on this quiver")
    _check_read([(len(a.points), len(a.table), a.n)])
    # the arrangement sees only the support of d: trees of the quiver on it
    qbar, _mult = support_quiver(q, a.dim)
    zeta_from_theta(a, theta)  # raises on a wall
    by_basis = {pt.active: pt for pt in a.points}
    # weights grouped by reduced arrow
    by_reduced: dict[tuple[str, str], list[int]] = {}
    for i, w in enumerate(a.weights):
        by_reduced.setdefault(w.arrow, []).append(i)

    terms, reads = [], []
    for tree in spanning_trees(qbar):
        comps = tree_components(qbar, tree, theta)
        stable = all(c < 0 for c in comps.values())
        comp_tuple = tuple(comps[i] for i in tree.arrows)
        for lift in itertools.product(*(by_reduced[qbar.arrows[i]] for i in tree.arrows)):
            point = by_basis[tuple(sorted(lift))]
            local = ZERO
            if stable:
                reads.append(_zq_residue(a.table, a.denominator, point.active, point.numerators))
                local = Fraction(*reads[-1])
            terms.append(TreeExpansionTerm(tree.arrows, tuple(lift), point.location,
                                           local, 1 if stable else 0, comp_tuple))
    total = _pair_sum(reads)
    return total, TreeExpansion(tuple(terms), total)


def jk_global_ZQ(q: Quiver, theta: Stability, a: Arrangement) -> Fraction:
    """Global JK of Z_Q via full singular-point enumeration (second route):
    jk_global(build_ZQ(a), a, zeta_from_theta(a, theta)), read off a.table.

    One list of zeta's cut sums per point (_zeta_cut_sums) serves the
    regularity test of zeta_from_theta, with its error and witness, and the
    cone test: every edge of a.table has scale 1, so the point's cone holds
    zeta when every sum is positive.  There the residue of Z_Q is, with v_k
    = L h_k(p) the integer value of plane k at the point p (L =
    a.denominator, h_k = x_head - x_tail + c_k) and B its basis,

        (-1)^(|d|-1) prod_{k not in B} (v_k - L) / v_k over the weights
                     prod_{k not in B} (v_k + L) / v_k over the roots
                     (-1)^(weights in B),

    each weight's factor (h - 1) / h and each root's r / (r - 1) = (h + 1)
    / h, and a basis plane's numerator at p, -1 or 1, for its simple pole:
    one integer pair per point, summed in a balanced tree (_pair_sum), and
    no LinForm or RationalExpr is built.  ValueError unless a is built on
    q; TooMuchWork past MAX_JK_WORK (_check_read) before any residue is
    read.
    """
    if q != a.quiver:
        raise ValueError("the arrangement is not built on this quiver")
    _check_read([(len(a.points), len(a.table), a.n)])
    return _zq_global(a.table, a.denominator,
                      [(pt.numerators, pt.active, pt.walk) for pt in a.points],
                      [-x for x in theta_lift(a, theta)])


def _zq_global(table: Sequence[tuple[int, int, int, bool]], big: int,
               points: Sequence[tuple], zeta: Sequence[Fraction]) -> Fraction:
    """jk_global_ZQ off an edge table over big: the sum (_pair_sum) of
    _zq_residue over the points (numerators, basis, walk) of _table_points
    whose cone holds zeta, after _zeta_cut_sums' regularity test."""
    sums = _zeta_cut_sums([w for _a, _b, w in points], zeta)
    return _pair_sum([_zq_residue(table, big, basis, at)
                      for (at, basis, _walk), cut in zip(points, sums) if all(s > 0 for s in cut)])


# the JK routes price a read of Z_Q's residues at trees * (planes - n)^2
# units over the arrangements read, each residue a product of planes - n
# plane values whose sizes grow with planes - n.  Measured on CPython 3.11,
# x86_64, in-process: 2-3 * 10^7 units a second (K(4,4) at d = 1, 331,776
# units in 10 ms; jk_ab on m parallel arrows at d = (1, 1), m * (m - 1)^2
# units, 0.65 s at m = 250, 1.26 s at m = 300 and 2.5 s at m = 369).  They
# refuse more units than this, about 1.5 s of reading on parallel arrows
# (m = 311 passes, m = 312 does not).  The rate is calibrated there and
# varies with the input, so a price can understate the time up to tenfold:
# three vertices with 30 arrows between each two at d = 1 read 2.1 * 10^7
# units in 1.7 s (about 2.5 s at the bound), and requests of many small
# terms whose residues sum to integers read 3-6 * 10^6 units a second
# (K(2,1) at d = (3,3;2) and (4,3;2), 10^5 and 5 * 10^5 units in 28 and
# 90 ms; K(2,1) at d = (5,4;2), refused by the tree bound, as slowly)
MAX_JK_WORK = 30_000_000


def _read_units(arrangements: Sequence[tuple[int, int, int]]) -> int:
    """The units of reading the arrangements (trees, planes, n): trees *
    (planes - n)^2 each."""
    return sum(trees * (planes - n) ** 2 for trees, planes, n in arrangements)


def _check_read(arrangements: Sequence[tuple[int, int, int]]) -> None:
    """Raise TooMuchWork past MAX_JK_WORK units (_read_units) over the
    arrangements (trees, planes, n) read."""
    work = _read_units(arrangements)
    if work > MAX_JK_WORK:
        raise TooMuchWork(work, MAX_JK_WORK, f"reading the JK residues needs about {work} units")


# past this many bits CPython's quadratic gcd costs more than the longer
# products it saves.  CPython 3.11, x86_64, in-process, jk_ab with a gcd
# at every merge / with this cutoff / with none (and when each residue was
# a Fraction added to a running sum): 250 parallel arrows at d = (1, 1),
# 250 residues of 8,000 bits, 1.40 / 0.50 / 0.82 s (1.66 s); 40 parallel
# arrows at d = (2, 1), 1,600 residues of 2,500 bits a term, which share
# most factors, 0.25 / 0.27 / 2.33 s (0.40 s)
PAIR_GCD_BITS = 2 ** 15


def _pair_sum(pairs: Sequence[tuple[int, int]]) -> Fraction:
    """The sum of top / bottom over the integer pairs (top, bottom), added
    pairwise in a balanced tree, so the numbers merged stay alike in size, and
    made one Fraction at the end; a merge divides out the gcd of the
    bottoms only while they are shorter than PAIR_GCD_BITS."""
    while len(pairs) > 1:
        odd = [pairs[-1]] if len(pairs) % 2 else []
        merged = []
        for (a, b), (c, d) in zip(pairs[::2], pairs[1::2]):
            g = gcd(b, d) if b.bit_length() < PAIR_GCD_BITS else 1
            merged.append((a * (d // g) + c * (b // g), b * (d // g)))
        pairs = merged + odd
    return Fraction(*pairs[0]) if pairs else ZERO


def _zq_residue(table: Sequence[tuple[int, int, int, bool]], big: int,
                basis: Sequence[int], numerators: Sequence[int]) -> tuple[int, int]:
    """Z_Q's local JK residue at the point of an edge table over big where
    the planes basis meet, at numerators / big, in the closed form of
    jk_global_ZQ, as the integer pair (top, bottom) of its value top /
    bottom where the point's cone holds zeta.  The sign's |d| - 1 is the
    number of coordinates, len(numerators)."""
    at = (*numerators, 0)  # the reference node n
    basis = set(basis)
    odd = len(numerators)
    top = bottom = 1
    for k, (t, h, c, weight) in enumerate(table):
        if k in basis:
            odd += weight
        else:
            v = at[h] - at[t] + c
            top *= v - big if weight else v + big
            bottom *= v
    return -top if odd % 2 else top, bottom


# ---------------------------------------------------------------------------
# abelianized JK and the large-R limit
# ---------------------------------------------------------------------------

def jk_ab(q: Quiver, d: DimVector, zeta: Stability, rseed: int,
          lam: Fraction = ONE) -> Fraction:
    """Abelianized JK residue: weighted sum over blown-up abelian quivers.

    Term k of abelianize(q, d, zeta) contributes its coefficient times the
    global JK residue (jk_global_ZQ) of its blown-up quiver, at its lifted
    stability, with R-charges lambda * R-bar, R-bar = sample_rcharges(arrows,
    rseed + 1000003 * k).  No term's quiver or arrangement is built: a term
    is its vertices, arrow copies and lifted stability (_blow_up), and its
    arrangement, of one weight plane per arrow at d = 1, its integer edge
    table (_edge_table), made from the integer draws of sample_rcharges
    times lambda's numerator over 2^31 times lambda's denominator, so no
    R-charge is made a Fraction; its points (_table_points) are read as
    jk_global_ZQ reads them (_zq_global).  The request's bases, the
    spanning trees of all the terms' quivers, are priced before any table
    is built: TooManyTrees past MAX_SPANNING_TREES in all
    (check_tree_walks), then TooMuchWork past MAX_JK_WORK units of reading
    in all (_check_read, with the Kirchhoff count of a term's trees where
    check_tree_walks made one, else its C(arrows, n), unless the C(arrows,
    n) prices pass the bound: then every term's trees are counted).  Then,
    term by term, as build_arrangement and jk_global_ZQ would:
    TooManyPlanes past MAX_ARRANGEMENT_PLANES arrows, DegenerateRCharges
    where more planes meet than coordinates, and NonRegularStability where
    the lifted stability lies on a wall.
    """
    lam = qify(lam)
    support, choices = _abelianization(q, d, zeta)
    picks = list(itertools.product(*choices))
    terms = [_blow_up(q, support, pick) for pick in picks]
    # a term over the plane bound is refused below, as by its build
    priced = [(len(ids), arrows) for ids, arrows, _z in terms
              if len(arrows) <= MAX_ARRANGEMENT_PLANES]
    reads = [(trees, len(arrows), nodes - 1)
             for trees, (nodes, arrows) in zip(check_tree_walks(priced), priced)]
    if _read_units(reads) > MAX_JK_WORK:
        # a term's C(arrows, n) can overstate its trees many times over
        reads = [(spanning_tree_count(nodes, arrows), len(arrows), nodes - 1)
                 for nodes, arrows in priced]
    _check_read(reads)
    total = ZERO
    for k, (pick, (ids, arrows, lifted)) in enumerate(zip(picks, terms)):
        n = len(ids) - 1  # the last vertex is the reference
        _check_planes(len(arrows), n)
        rbar = _rcharge_numerators(len(arrows), rseed + 1000003 * k)
        table, big = _edge_table([(t, h, i) for i, (t, h) in enumerate(arrows)],
                                 [lam.numerator * x for x in rbar],
                                 lam.denominator * RC_DENOMINATOR)
        total += _coefficient(pick) * _zq_global(table, big, _table_points(n, table, big),
                                                 [-x for x in lifted[:-1]])
    return total


def jk_ab_infinity(q: Quiver, d: DimVector, zeta: Stability) -> Fraction:
    """Closed-form large-R limit: sum of coefficient * weist_count per
    abelianization term, counted without building the terms' quivers
    (AbelianizationTypes.weist_counts, of which weist_count is the case d =
    1): in a blown-up quiver the vertices i@k,l that share (i, l) are
    twins, one vertex type, and a type vector's count of stable trees is
    the same in every term that holds it.

    abelianize's checks run first: it refuses a d with more than
    MAX_ABELIANIZATION_TERMS terms.  Each term is priced at the cheaper of
    a stable-tree scan and the type DP, and TooMuchWork is raised before
    any is counted if the steps add up to more than MAX_WEIST_STEPS.  Then,
    in order, a term that the scan prices cheaper is built and scanned, and
    one on a wall raises with the scan's witness; every other term is read
    off one DP over the type vectors under all of them (_type_counts)."""
    types = AbelianizationTypes(q, d.as_dict(), zeta.as_dict(), _abelianization(q, d, zeta)[1])
    return sum((_coefficient(pick) * n for pick, n in zip(types.picks, types.weist_counts()) if n),
               ZERO)


def lambda_sweep(q: Quiver, d: DimVector, zeta: Stability, rseed: int,
                 lambdas: Sequence[Fraction]) -> dict:
    """Exact jk_ab values along a lambda family, with the closed-form limit."""
    limit = jk_ab_infinity(q, d, zeta)
    rows = []
    for lam in lambdas:
        val = jk_ab(q, d, zeta, rseed, qify(lam))
        rows.append({"lambda": qify(lam), "value": val, "abs_diff": abs(val - limit)})
    return {"rows": rows, "limit": limit}

