"""Rank-2 tropical vertex: wall-crossing automorphisms, path-ordered loop
products, consistent completion of bipartite initial diagrams, and the
log-coefficient / JK cross-check.

Initial walls are full lines through the origin; corrective walls are rays
with primitive directions strictly inside the first quadrant.  All series
live in Q[x^{±1}, y^{±1}][s_*, t_*] truncated in total parameter degree.
A diagram scattered for one coefficient c_d is also truncated to the box of
exponents <= d (see ``series``): its walls are the images of the full ones.
``scatter`` computes each parameter degree of each crossing once, and one
loop product at the full cutoff checks its result; ``loop_product`` and
``cross_wall`` share one kernel on packed dicts, ``_cross``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod

from .errors import (BadConstantTerm, BadCutoff, CutoffTooSmall, TooMuchWork,
                     ValidationError)
from .exact import Q, ZERO
from .quiver import DimVector, Stability, bipartite_quiver, moduli_dimension
from .quiverjk import jk_ab_infinity
from .series import (_X_MASK, _X_OFF, Coeff, TruncatedSeries, _by_degree, _graded,
                     _int_or_fraction, _mul_acc, _mul_graded, _summed)


@dataclass(slots=True)
class Wall:
    direction: tuple[int, int]       # primitive m
    support: str                     # "line" | "ray"
    function: TruncatedSeries        # f == 1 mod parameters, supported on z^{k m}

    def __post_init__(self):
        a, b = self.direction
        if gcd(a, b) != 1:
            raise ValidationError("wall", f"direction {self.direction} is not primitive")
        if self.support not in ("line", "ray"):
            raise ValidationError("wall", f"bad support {self.support!r}")


@dataclass(slots=True)
class ScatteringDiagram:
    walls: list[Wall]
    cutoff: int
    params: tuple[str, ...]
    box: tuple[int, ...] | None = None  # per-parameter exponent bounds, or none


def init_bipartite(l1: int, l2: int, cutoff: int,
                   box: tuple[int, ...] | None = None) -> ScatteringDiagram:
    """Initial diagram: line (1,0) with prod(1+s_i x), line (0,1) with prod(1+t_j y).

    ``box`` bounds the exponents of s_1..s_l1, t_1..t_l2 in that order.
    """
    _check_sizes(l1, l2, cutoff)
    params = _params(l1, l2)
    fx = fy = TruncatedSeries.const(params, cutoff, 1, box)
    for i in range(l1):
        fx = fx * (1 + TruncatedSeries.monomial(params, cutoff, xe=1,
                                                pexp={f"s{i + 1}": 1}, box=box))
    for j in range(l2):
        fy = fy * (1 + TruncatedSeries.monomial(params, cutoff, ye=1,
                                                pexp={f"t{j + 1}": 1}, box=box))
    return ScatteringDiagram([Wall((1, 0), "line", fx), Wall((0, 1), "line", fy)],
                             cutoff, params, fx.box)


@lru_cache(maxsize=64)
def _params(l1: int, l2: int) -> tuple[str, ...]:
    """s1..s_l1, t1..t_l2, one shared tuple of names per (l1, l2)."""
    return tuple(f"s{i + 1}" for i in range(l1)) + tuple(f"t{j + 1}" for j in range(l2))


def _check_sizes(l1: int, l2: int, cutoff: int) -> None:
    if l1 < 1 or l2 < 1 or cutoff < 1:
        raise BadCutoff(f"need l1, l2, cutoff >= 1, got ({l1}, {l2}, {cutoff})")


# the price of a full scatter: C(N + P, P) * (N + P) for P = l1 + l2
# parameters at order N (of a box scatter: ``_cd_box``).  Measured through
# cli.main in-process (nproc 2, Python 3.11.7), a unit costs 0.6 us on
# K(1,1), 1.2 us on K(2,2) and K(500,1) and up to 6 us with four or more
# parameters a side: K(2,2) order 20 (2.6e5) 0.3 s, K(10,10) order 4 (2.6e5)
# 1.5 s, K(6,6) order 6 (3.3e5) 1.8 s, K(4,4) order 10 (7.9e5) 3.5 s, K(1,1)
# order 120 (9.0e5) 0.5 s; the box of K(3,3) d=(3,3,3;2,3,3) (7.1e4) 1 s
MAX_SCATTER_WORK = 3 * 10 ** 5


def check_scatter_work(l1: int, l2: int, cutoff: int) -> None:
    """Refuse a full diagram of K(l1, l2) at ``cutoff`` priced over
    MAX_SCATTER_WORK, before any series is built.

    The price is C(N + P, P) parameter monomials of degree <= N times
    N + P.  C(N + P, P) is built one factor at a time and stops once over
    the bound, so an absurd request is priced in a few steps and reported
    with that lower bound.
    """
    _check_sizes(l1, l2, cutoff)
    n = cutoff + l1 + l2
    m = min(cutoff, l1 + l2)
    work = n  # C(n - m, 0) * n
    for i in range(1, m + 1):
        work = work * (n - m + i) // i  # C(n - m + i, i) * n, exact
        if work > MAX_SCATTER_WORK:
            raise TooMuchWork(work, MAX_SCATTER_WORK,
                              f"a full scattering diagram of K({l1}, {l2}) at order "
                              f"{cutoff} needs at least {work} steps (C(N + P, P) "
                              f"monomials times N + P, P = l1 + l2)")


def cross_wall(w: Wall, g: TruncatedSeries, orientation: int = 1) -> TruncatedSeries:
    """Apply x -> x f^{±<m,(1,0)>}, y -> y f^{±<m,(0,1)>} to g.

    The substitution sends a term c * p * x^A y^B to the same term times f^n,
    with n = ±<m,(A,B)>.  A wall function is f = 1 + h with h nilpotent (0
    mod parameters), so for every integer n, negative too, f^n = sum_k
    C(n, k) h^k, where h^k = 0 past the cutoff (Gross-Pandharipande-Siebert,
    "The tropical vertex").  Regrouped by k, the image is g + sum_{k >= 1}
    h^k * P_k, with P_k = sum_n C(n, k) * (the terms of g with pairing n),
    and no f^n is built (``_cross``).
    """
    if orientation not in (1, -1):
        raise ValidationError("orientation", "must be +1 or -1")
    g._compatible(w.function)
    a, b = w.direction
    return g._like(_cross(g._dict(), orientation * a, orientation * b,
                          _wall_powers(w.function, g._ring), g._ring))


def _wall_powers(function: TruncatedSeries, r) -> list[tuple]:
    """h, h^2, ... for h = f - 1, up to the last nonzero power (at most the
    cutoff-th, since h^k has parameter degree >= k), each as its terms
    sorted by parameter degree and their ends by degree (``_graded``)."""
    f = function._dict()
    hk = _by_degree({key: c for key, c in f.items() if key != r.bias}, r)
    if f.get(r.bias) != 1 or hk[0]:
        raise BadConstantTerm("a wall function must be 1 mod parameters")
    powers: list[tuple] = []
    while any(hk):
        powers.append(_graded(hk))
        t: dict[int, Coeff] = {}
        _mul_graded(t, hk, powers[0], r)
        hk = _by_degree(_nonzero(t), r)
    return powers


def _cross(g: dict[int, Coeff], a: int, b: int, powers: list[tuple], r) -> dict[int, Coeff]:
    """g + sum_k h^k P_k (``cross_wall``) for the packed terms g, the
    direction (a, b) times the orientation and the ``_wall_powers`` of f,
    one degree d of g at a time: its P_k meet the terms of h^k of degree
    <= cutoff - d.  The sum may hold zeros."""
    t, cutoff, xshift, yshift = dict(g), r.cutoff, r.xshift, r.yshift
    for d, kcs in enumerate(_by_degree(g, r)):
        if not kcs:
            continue
        parts: list[list[tuple[int, Coeff]]] = [[] for _ in powers[:cutoff - d]]
        for key, c in kcs:
            n = a * (key >> yshift) - b * (((key >> xshift) & _X_MASK) - _X_OFF)
            binom = 1
            for k, pk in enumerate(parts):
                binom = binom * (n - k) // (k + 1)  # C(n, k + 1), exact
                if not binom:                       # n >= 0 and k >= n
                    break
                pk.append((key, binom * c))
        for (hk, ends), pk in zip(powers, parts):
            if pk:
                _mul_acc(t, pk, hk[:ends[cutoff - d]], r)
    return t


# ---------------------------------------------------------------------------
# path-ordered loop product
# ---------------------------------------------------------------------------

START_DIRECTION = (1, -3)  # generic: not parallel to any integer wall we produce


def _angular_key(v: tuple[int, int]) -> tuple:
    """Sector of v counterclockwise from START_DIRECTION, then v itself: not
    angular inside a sector, where the first quadrant sorts (1,1), (1,2), (2,1)."""
    sx, sy = START_DIRECTION
    cr = sx * v[1] - sy * v[0]
    dt = sx * v[0] + sy * v[1]
    if cr == 0:
        sector = 0 if dt > 0 else 2
    else:
        sector = 1 if cr > 0 else 3
    return sector, v


@lru_cache(maxsize=1024)
def _event_key(v: tuple[int, int]) -> tuple:
    """The ccw order of crossings: by sector, then by -dot/cross with
    START_DIRECTION, the -cot of the angle from it (0 on the axis sectors)."""
    (a, b), (sx, sy) = v, START_DIRECTION
    cr = sx * b - sy * a
    return _angular_key(v)[0], Fraction(-(sx * a + sy * b), cr) if cr else 0


def _sort_events(events):
    """Sort crossing events, whose first item is a direction, ccw."""
    return sorted(events, key=lambda event: _event_key(event[0]))


def loop_product(d: ScatteringDiagram) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Images of x and y under one full counterclockwise loop of crossings,
    crossed as packed dicts (``_cross``) with the powers of each wall
    function minus 1 raised once."""
    one = TruncatedSeries.const(d.params, d.cutoff, 1, d.box)
    r = one._ring
    events = []
    for w in d.walls:
        one._compatible(w.function)
        (a, b), powers = w.direction, _wall_powers(w.function, r)
        events.append(((a, b), powers))
        if w.support == "line":
            events.append(((-a, -b), powers))
    zeros = (0,) * len(d.params)
    x, y = {r.pack(1, 0, zeros): 1}, {r.pack(0, 1, zeros): 1}
    for (a, b), powers in _sort_events(events):
        x = _nonzero(_cross(x, a, b, powers, r))
        y = _nonzero(_cross(y, a, b, powers, r))
    return one._like(x), one._like(y)


# ---------------------------------------------------------------------------
# consistent completion
# ---------------------------------------------------------------------------

def scatter(d0: ScatteringDiagram) -> ScatteringDiagram:
    """Add rays one parameter degree per round until the loop is trivial.

    Round k computes only the degree-k pieces of the loop product (on-line
    series: van der Hoeven, "Relax, but don't be too lazy"): each crossing
    keeps its images X, Y of x and y, and each wall the powers of f - 1,
    split by parameter degree, and the pieces of degree < k are final.  So
    the degree-k part of X/x - 1 and Y/y - 1 after the last crossing is the
    lowest defect, a sum of terms c * p * x^A y^B.  The two defects (on x
    and on y) of each monomial satisfy a*c_x + b*c_y = 0 for the primitive
    direction (a,b) of (A,B), and the increment 1 + c' * p * x^A y^B of the
    ray (a,b) is solved from either one.  At degree k it acts linearly: it
    adds -b c' p x^A y^B * x to X and a c' p x^A y^B * y to Y at its
    crossing and at every later one, after which the degree-k defect must be
    zero.  A last loop product at the full cutoff must be the identity.
    This is the order-by-order proof of the Kontsevich-Soibelman lemma
    (Gross-Pandharipande-Siebert, "The tropical vertex").
    """
    # fresh Wall objects: their functions are replaced below, and d0 keeps its own
    d = ScatteringDiagram([Wall(w.direction, w.support, w.function) for w in d0.walls],
                          d0.cutoff, d0.params, d0.box)
    _add_rays(d)
    if any(not g.is_zero() for g in _loop_defects(d)):
        raise ValidationError("scatter", f"loop product is not the identity at cutoff {d.cutoff}")
    for w in d.walls:  # the result callers keep: store its functions compactly
        w.function = w.function._kept()
    return d


def _add_rays(d: ScatteringDiagram) -> None:
    """The rounds of ``scatter``, on d in place; their state is dropped on
    return.  A crossing is (direction, wall, (X, Y)), X and Y lists of one
    piece of packed terms per parameter degree; the first crosses no wall.
    A piece is a dict until the crossing after it reads it finished and
    keeps it grouped for its direction (``_crossed``); a new ray's crossing
    starts from copies of the lists before it."""
    zero = TruncatedSeries(d.params, d.cutoff, box=d.box)
    r = zero._ring
    walls = [_Pieces(w, zero) for w in d.walls]
    rays = {w.wall.direction: w for w in reversed(walls) if w.wall.support == "ray"}
    unit = [r.pack(1, 0, (0,) * len(d.params)), r.pack(0, 1, (0,) * len(d.params))]
    xy = {unit[0]: 1}, {unit[1]: 1}  # every image at degree 0
    loop = [((0, 0), None, ([xy[0]], [xy[1]]))]
    for w in walls:
        a, b = w.wall.direction
        for eps in (1, -1) if w.wall.support == "line" else (1,):
            loop.append(((eps * a, eps * b), w, ([xy[0]], [xy[1]])))
    loop[1:] = sorted(loop[1:], key=lambda cr: _event_key(cr[0]))
    for k in range(1, d.cutoff + 1):
        for w in walls:
            w.fill(k)
        for s in (0, 1):
            loop[0][2][s].append({})
            for before, cr in zip(loop, loop[1:]):
                cr[2][s].append(_crossed(before[2][s], cr, k, r))
        defects: dict[tuple[int, int, tuple[int, ...]], list[Coeff]] = {}
        for s, image in enumerate(loop[-1][2]):
            for key, c in image[k].items():
                xe, ye, p = r.unpack(key)
                defects.setdefault((xe - 1 + s, ye - s, p), [0, 0])[s] = c
        added: dict[_Pieces, list[tuple[int, Coeff]]] = {}
        for (xe, ye, p) in sorted(defects, key=lambda t: _angular_key(_primitive(t[0], t[1]))):
            cx, cy = defects[(xe, ye, p)]
            if xe <= 0 or ye <= 0:
                raise ValidationError(
                    "scatter", f"defect direction ({xe},{ye}) not in the open first quadrant")
            m = a, b = _primitive(xe, ye)
            if a * cx + b * cy != 0:
                raise ValidationError(
                    "scatter", f"inconsistent defect at x^{xe} y^{ye} {p}: {cx}, {cy}")
            if m not in rays:  # a new ray joins the loop with the images before it
                rays[m] = w = _Pieces(Wall(m, "ray", zero + 1), zero, k)
                walls.append(w)
                d.walls.append(w.wall)
                j = bisect_right(loop, _event_key(m), 1, key=lambda cr: _event_key(cr[0]))
                loop.insert(j, (m, w, tuple(im[:] for im in loop[j - 1][2])))
            # c_x != 0 here: b c_y = -a c_x, and a defect is nonzero
            key, c = r.pack(xe, ye, p), _int_or_fraction(Fraction(cx, b))
            rays[m].times_one_plus(key, c, k)
            added.setdefault(rays[m], []).append((key, c))
        _add_increments(loop, added, k, unit, r)
        for s, image in enumerate(loop[-1][2]):
            for key in image[k]:
                xe, ye, p = r.unpack(key)
                raise ValidationError(
                    "scatter", f"defect at x^{xe - 1 + s} y^{ye - s} {p} left at degree {k}")
    for w in walls:
        w.wall.function = zero._like({key: c for piece in w.f for key, c in piece.items()})


def _add_increments(loop: list[tuple], added: dict, k: int, unit: list[int], r) -> None:
    """Add each increment c * key of round k on the ray (a, b) to the
    degree-k images at its crossing and every later one: -b c key x to X
    and a c key y to Y.  A touched piece is replaced by a new dict, since
    crossings share the pieces they copied."""
    acc: list[dict[int, Coeff]] = [{}, {}]
    for (a, b), w, images in loop[1:]:
        for key, c in added.get(w, ()):
            _mul_acc(acc[0], ((key, -b * c),), ((unit[0], 1),), r)
            _mul_acc(acc[1], ((key, a * c),), ((unit[1], 1),), r)
        for s in (0, 1):
            if acc[s]:
                images[s][k] = _nonzero(_summed(images[s][k], acc[s]))


class _Pieces:
    """A wall in the rounds of ``scatter``, split by parameter degree a:
    f[a] is the degree-a piece of its function, and so of h = f - 1 for
    a >= 1; powers[a] lists the pairs (i, h^i[a]) with i >= 2 and a nonzero
    piece, filled in round a; sums[a] keeps each (f^n - 1)[a] once built."""

    __slots__ = ("wall", "ring", "f", "powers", "sums")

    def __init__(self, wall: Wall, zero: TruncatedSeries, degree: int = 0):
        zero._compatible(wall.function)
        self.wall, self.ring = wall, zero._ring
        self.f = [dict(kcs) for kcs in _by_degree(wall.function._dict(), self.ring)]
        if self.f[0] != {self.ring.bias: 1}:
            raise BadConstantTerm("a wall function must be 1 mod parameters")
        self.powers: list[list[tuple[int, dict[int, Coeff]]]] = [[] for _ in range(degree + 1)]
        self.sums: list[dict[int, dict[int, Coeff]]] = [{} for _ in range(degree + 1)]

    def at(self, a: int) -> list[tuple[int, dict[int, Coeff]]]:
        """(i, h^i[a]) for i = 1, 2, ... with a nonzero piece."""
        return [(1, self.f[a]), *self.powers[a]] if self.f[a] else self.powers[a]

    def fill(self, k: int) -> None:
        """powers[k], from pieces of degree < k: h^i[k] = sum_c h^(i-1)[c] h[k - c]."""
        acc: dict[int, dict[int, Coeff]] = {}
        for c in range(1, k):
            if self.f[k - c]:
                for i, left in self.at(c):
                    _mul_acc(acc.setdefault(i + 1, {}), left.items(), self.f[k - c].items(),
                             self.ring)
        self.powers.append([(i, nz) for i, t in sorted(acc.items()) if (nz := _nonzero(t))])
        self.sums.append({})

    def sum_at(self, n: int, a: int) -> dict[int, Coeff]:
        """(f^n - 1)[a] = sum_i C(n, i) h^i[a]."""
        if n not in self.sums[a]:
            t: dict[int, Coeff] = {}
            for i, piece in self.at(a):
                c = comb(n, i) if n >= 0 else (-1) ** i * comb(i - n - 1, i)
                if not c:  # n >= 0 and i > n
                    break
                t = _summed(t, piece, c)
            self.sums[a][n] = _nonzero(t)
        return self.sums[a][n]

    def times_one_plus(self, key: int, c: Coeff, k: int) -> None:
        """f = f * (1 + c * key) for an increment of degree k: the pieces of
        degree >= k change, from the top down, and so do the sums at k."""
        f = self.f
        for a in range(len(f) - 1, k - 1, -1):
            if f[a - k]:
                t = dict(f[a])
                _mul_acc(t, ((key, c),), f[a - k].items(), self.ring)
                f[a] = _nonzero(t)
        self.sums[k].clear()


def _crossed(before: list, cr: tuple, k: int, r) -> dict[int, Coeff]:
    """The degree-k piece of ``cross_wall`` of the image ``before``: its own
    degree-k piece plus, for each degree b < k and nonzero pairing n, the
    terms of degree b with pairing n times (f^n - 1)[k - b], or before[k]
    itself when the wall adds nothing.  A finished piece before[b] not
    grouped for this crossing's direction is grouped (``_grouped``) and
    written back into ``before``, which no other crossing reads: a new
    ray's crossing starts from copies of the lists it shares pieces with."""
    m, w, _images = cr
    t = None
    for deg in range(k):
        piece = before[deg]
        if piece and (w.f[k - deg] or w.powers[k - deg]):
            if type(piece) is dict or piece[0] != m:
                piece = before[deg] = _grouped(piece, m, r)
            t = dict(before[k]) if t is None else t
            for n, kcs in piece[1]:
                if n:
                    _mul_acc(t, w.sum_at(n, k - deg).items(), kcs, r)
    return before[k] if t is None else _nonzero(t)


def _grouped(piece, m: tuple[int, int], r) -> tuple:
    """A finished piece (a dict, or grouped for another direction) grouped
    by the pairing n of its terms with m: (m, [(n, [(key, c), ...]), ...]),
    the groups in order of their first term and the one with n = 0 last.
    The piece itself is not changed."""
    (a, b), xshift, yshift = m, r.xshift, r.yshift
    terms = piece.items() if type(piece) is dict else (kc for _n, kcs in piece[1] for kc in kcs)
    groups: dict[int, list[tuple[int, Coeff]]] = {}
    for kc in terms:
        xe = ((kc[0] >> xshift) & _X_MASK) - _X_OFF
        groups.setdefault(a * (kc[0] >> yshift) - b * xe, []).append(kc)
    if 0 in groups:
        groups[0] = groups.pop(0)
    return m, list(groups.items())


def _nonzero(t: dict[int, Coeff]) -> dict[int, Coeff]:
    """t without its zero terms: t itself when it holds none."""
    return t if all(t.values()) else {k: c for k, c in t.items() if c}


def _loop_defects(d: ScatteringDiagram) -> tuple[TruncatedSeries, TruncatedSeries]:
    """X/x - 1 and Y/y - 1 for the loop product (X, Y) of d."""
    x, y = loop_product(d)
    return x.shift(-1, 0) - 1, y.shift(0, -1) - 1


@lru_cache(maxsize=1024)
def _primitive(a: int, b: int) -> tuple[int, int]:
    """(a, b) over its gcd; one shared tuple per (a, b), so the walls of
    every diagram scattered in a process share their direction tuples."""
    g = gcd(a, b)
    return (a // g, b // g)


# ---------------------------------------------------------------------------
# coefficient extraction and the main cross-identity
# ---------------------------------------------------------------------------

def extract_cd(d: ScatteringDiagram, dim: DimVector) -> Fraction:
    """c_d = coeff(s^{P1} t^{P2} x^{ka} y^{kb}, log f_{(a,b)}) / k.

    Raises ``CutoffTooSmall`` when |d| exceeds the cutoff or d leaves the box.
    """
    p1, p2, pexp = _cd_target(dim, d.cutoff)
    if d.box is not None and any(pexp.get(p, 0) > b for p, b in zip(d.params, d.box)):
        raise CutoffTooSmall(f"d = {pexp} leaves the diagram's box "
                             f"{dict(zip(d.params, d.box))}")
    k = gcd(p1, p2)
    a, b = p1 // k, p2 // k
    for w in d.walls:
        if w.support == "ray" and w.direction == (a, b):
            return w.function.log().coefficient(p1, p2, pexp) / k
    return ZERO


def _cd_target(dim: DimVector, cutoff: int) -> tuple[int, int, dict[str, int]]:
    """Source total P1, sink total P2 and parameter exponents of c_d.

    Raises unless d touches both sides and |d| fits under the cutoff.
    """
    dd = dim.as_dict()
    p1 = sum(v for k, v in dd.items() if k.startswith("i"))
    p2 = sum(v for k, v in dd.items() if k.startswith("j"))
    if p1 <= 0 or p2 <= 0:
        raise ValidationError("extract_cd", "dimension must touch both sides")
    if p1 + p2 > cutoff:
        raise CutoffTooSmall(f"|d| = {p1 + p2} exceeds cutoff {cutoff}")
    pexp = {}
    for name, v in dd.items():
        if v:
            pexp[("s" if name.startswith("i") else "t") + name[1:]] = v
    return p1, p2, pexp


def _cd_diagram(l1: int, l2: int, dim: DimVector, cutoff: int) -> ScatteringDiagram:
    """The scattered K(l1, l2) diagram in the box of dim, at cutoff |dim|.

    ``extract_cd`` reads from it the c_dim of the full diagram at any cutoff
    >= |dim|, which cutoff must be.  The cost follows dim, not the cutoff.
    """
    box = _cd_box(l1, l2, dim, cutoff)
    return scatter(init_bipartite(l1, l2, sum(box), box))


def _cd_box(l1: int, l2: int, dim: DimVector, cutoff: int) -> tuple[int, ...]:
    """The box of dim after the checks of ``_cd_target``, refused when its
    scatter is priced over MAX_SCATTER_WORK: prod(b_i + 1) box monomials
    times N + P for N = |dim| and P = l1 + l2."""
    box = tuple(_cd_target(dim, cutoff)[2].get(p, 0) for p in _params(l1, l2))
    work = (sum(box) + l1 + l2) * prod(b + 1 for b in box)
    if work > MAX_SCATTER_WORK:
        raise TooMuchWork(work, MAX_SCATTER_WORK,
                          f"the box scattering diagram of K({l1}, {l2}) for d = "
                          f"({','.join(map(str, box[:l1]))};{','.join(map(str, box[l1:]))}) "
                          f"needs {work} steps (prod(b_i + 1) box monomials times N + P, "
                          f"N = |d|, P = l1 + l2)")
    return box


@dataclass(frozen=True, slots=True)
class VerificationResult:
    passed: bool
    lhs: Fraction          # scattering-side coefficient c_d
    rhs: Fraction          # (-1)^D / d! times the abelianized JK limit
    moduli_dim: int


def verify_main_theorem(l1: int, l2: int, dim: DimVector, zeta: Stability,
                        cutoff: int) -> VerificationResult:
    """Check c_d = (-1)^D * jk_ab_infinity / prod d_v! for K(l1, l2).

    The input checks run first and the JK side second, so a rejected input
    (bad cutoff, |d| over the cutoff, non-regular stability, a box scatter
    over its work bound) never pays for the scattering diagram.
    """
    q = bipartite_quiver(l1, l2)
    _check_compatible(q, dim, zeta, l1)
    _check_sizes(l1, l2, cutoff)
    _cd_box(l1, l2, dim, cutoff)
    D = moduli_dimension(q, dim)
    dfact = 1
    for _v, dv in dim.values:
        dfact *= factorial(dv)
    rhs = Q(-1) ** D * jk_ab_infinity(q, dim, zeta) / dfact
    lhs = extract_cd(_cd_diagram(l1, l2, dim, cutoff), dim)
    return VerificationResult(lhs == rhs, lhs, rhs, D)


def _check_compatible(q, dim: DimVector, zeta: Stability, l1: int) -> None:
    src = {zeta[v] for v in q.vertices[:l1]}
    snk = {zeta[v] for v in q.vertices[l1:]}
    if len(src) != 1 or len(snk) != 1:
        raise ValidationError("stability", "zeta must be constant on sources and on sinks")
    if src == {ZERO} or snk == {ZERO}:
        raise ValidationError("stability", "zeta must be nontrivial")
    zeta.check_normalized(dim)
