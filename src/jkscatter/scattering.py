"""Rank-2 tropical vertex: wall-crossing automorphisms, path-ordered loop
products, consistent completion of bipartite initial diagrams, and the
log-coefficient / JK cross-check.

Initial walls are full lines through the origin; corrective walls are rays
with primitive directions strictly inside the first quadrant.  All series
live in Q[x^{±1}, y^{±1}][s_*, t_*] truncated in total parameter degree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import BadCutoff, CutoffTooSmall, ValidationError
from .exact import Q, ZERO
from .quiver import DimVector, Stability, bipartite_quiver, moduli_dimension
from .quiverjk import jk_ab_infinity
from .series import TruncatedSeries

# pairing <(a,b),(c,d)> = a*d - b*c
def _pair(m: tuple[int, int], v: tuple[int, int]) -> int:
    return m[0] * v[1] - m[1] * v[0]


@dataclass
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


@dataclass
class ScatteringDiagram:
    walls: list[Wall]
    cutoff: int
    params: tuple[str, ...]


def init_bipartite(l1: int, l2: int, cutoff: int) -> ScatteringDiagram:
    """Initial diagram: line (1,0) with prod(1+s_i x), line (0,1) with prod(1+t_j y)."""
    _check_sizes(l1, l2, cutoff)
    params = tuple(f"s{i + 1}" for i in range(l1)) + tuple(f"t{j + 1}" for j in range(l2))
    fx = TruncatedSeries.const(params, cutoff, 1)
    for i in range(l1):
        fx = fx * (1 + TruncatedSeries.monomial(params, cutoff, xe=1, pexp={f"s{i + 1}": 1}))
    fy = TruncatedSeries.const(params, cutoff, 1)
    for j in range(l2):
        fy = fy * (1 + TruncatedSeries.monomial(params, cutoff, ye=1, pexp={f"t{j + 1}": 1}))
    return ScatteringDiagram([Wall((1, 0), "line", fx), Wall((0, 1), "line", fy)],
                             cutoff, params)


def _check_sizes(l1: int, l2: int, cutoff: int) -> None:
    if l1 < 1 or l2 < 1 or cutoff < 1:
        raise BadCutoff(f"need l1, l2, cutoff >= 1, got ({l1}, {l2}, {cutoff})")


def cross_wall(w: Wall, g: TruncatedSeries, orientation: int = 1) -> TruncatedSeries:
    """Apply x -> x f^{±<m,(1,0)>}, y -> y f^{±<m,(0,1)>} to g.

    The substitution sends a term c * p * x^A y^B to the same term times f^n,
    with n = ±<m,(A,B)>.  The terms of g are grouped by that pairing value,
    so each distinct n costs one product f^n * part.
    """
    if orientation not in (1, -1):
        raise ValidationError("orientation", "must be +1 or -1")
    parts: dict[int, dict] = {}
    for key, c in g.terms.items():
        n = orientation * _pair(w.direction, (key[0], key[1]))
        parts.setdefault(n, {})[key] = c
    f = w.function
    inv = f.inverse() if min(parts, default=0) < 0 else None
    out = TruncatedSeries(g.params, g.cutoff)
    for n, part in parts.items():
        fn = f.power(n) if n >= 0 else inv.power(-n)
        out = out + fn * TruncatedSeries(g.params, g.cutoff, part)
    return out


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


def _sort_events(events):
    """Sort crossing events ccw; within a sector compare by the cross product."""

    def cmp(e1, e2):
        k1, k2 = _angular_key(e1[0])[0], _angular_key(e2[0])[0]
        if k1 != k2:
            return -1 if k1 < k2 else 1
        u, v = e1[0], e2[0]
        cr = u[0] * v[1] - u[1] * v[0]
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        return 0

    return sorted(events, key=functools.cmp_to_key(cmp))


def loop_product(d: ScatteringDiagram) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Images of x and y under one full counterclockwise loop of crossings."""
    events = []
    for w in d.walls:
        a, b = w.direction
        events.append(((a, b), w, 1))
        if w.support == "line":
            events.append(((-a, -b), w, -1))
    events = _sort_events(events)
    x = TruncatedSeries.monomial(d.params, d.cutoff, xe=1)
    y = TruncatedSeries.monomial(d.params, d.cutoff, ye=1)
    for _v, w, eps in events:
        x = cross_wall(w, x, eps)
        y = cross_wall(w, y, eps)
    return x, y


# ---------------------------------------------------------------------------
# consistent completion
# ---------------------------------------------------------------------------

def scatter(d0: ScatteringDiagram) -> ScatteringDiagram:
    """Add rays one parameter degree per round until the loop is trivial.

    Round k takes the loop product with every wall truncated at parameter
    degree k.  The rounds before it have cancelled every defect below degree
    k, so what is left is a sum of degree-k terms c * p * x^A y^B.  The two
    defects (on x and on y) of each monomial satisfy a*c_x + b*c_y = 0 for
    the primitive direction (a,b) of (A,B), and the increment 1 + c' * p *
    x^A y^B of the ray (a,b) is solved from either one.  Increments of a round
    commute, so their _angular_key order only places new rays in the wall
    list.  A last loop product at the full cutoff must be the identity.  This
    is the order-by-order proof of the Kontsevich-Soibelman lemma
    (Gross-Pandharipande-Siebert, "The tropical vertex").
    """
    # fresh Wall objects: rays grow in place below, and d0 keeps its own
    d = ScatteringDiagram([Wall(w.direction, w.support, w.function) for w in d0.walls],
                          d0.cutoff, d0.params)
    rays: dict[tuple[int, int], Wall] = {}
    for w in d.walls:
        if w.support == "ray":
            rays.setdefault(w.direction, w)
    for k in range(1, d.cutoff + 1):
        defects: dict[tuple[int, int, tuple[int, ...]], list[Fraction]] = {}
        for slot, g in enumerate(_loop_defects(_truncated(d, k))):
            for (xe, ye, p), c in g.terms.items():
                if sum(p) < k:
                    raise ValidationError(
                        "scatter", f"defect at x^{xe} y^{ye} {p} left below degree {k}")
                defects.setdefault((xe, ye, p), [ZERO, ZERO])[slot] = c
        for (xe, ye, p) in sorted(defects, key=lambda t: _angular_key(_primitive(t[0], t[1]))):
            cx, cy = defects[(xe, ye, p)]
            if xe <= 0 or ye <= 0:
                raise ValidationError(
                    "scatter", f"defect direction ({xe},{ye}) not in the open first quadrant")
            a, b = _primitive(xe, ye)
            if a * cx + b * cy != 0:
                raise ValidationError(
                    "scatter", f"inconsistent defect at x^{xe} y^{ye} {p}: {cx}, {cy}")
            coeff = Fraction(cx, b) if cx else Fraction(-cy, a)
            if coeff == 0:
                continue
            increment = 1 + TruncatedSeries(d.params, d.cutoff, {(xe, ye, p): coeff})
            wall = rays.get((a, b))
            if wall is None:
                rays[(a, b)] = Wall((a, b), "ray", increment)
                d.walls.append(rays[(a, b)])
            else:
                wall.function = wall.function * increment
    if any(not g.is_zero() for g in _loop_defects(d)):
        raise ValidationError("scatter", f"loop product is not the identity at cutoff {d.cutoff}")
    return d


def _truncated(d: ScatteringDiagram, k: int) -> ScatteringDiagram:
    """The diagram with every wall function truncated at parameter degree k."""
    return ScatteringDiagram(
        [Wall(w.direction, w.support, TruncatedSeries(d.params, k, w.function.terms))
         for w in d.walls], k, d.params)


def _loop_defects(d: ScatteringDiagram) -> tuple[TruncatedSeries, TruncatedSeries]:
    """X/x - 1 and Y/y - 1 for the loop product (X, Y) of d."""
    x, y = loop_product(d)
    return x.shift(-1, 0) - 1, y.shift(0, -1) - 1


def _primitive(a: int, b: int) -> tuple[int, int]:
    g = gcd(a, b)
    return (a // g, b // g)


# ---------------------------------------------------------------------------
# coefficient extraction and the main cross-identity
# ---------------------------------------------------------------------------

def extract_cd(d: ScatteringDiagram, dim: DimVector) -> Fraction:
    """c_d = coeff(s^{P1} t^{P2} x^{ka} y^{kb}, log f_{(a,b)}) / k."""
    p1, p2, pexp = _cd_target(dim, d.cutoff)
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


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    lhs: Fraction          # scattering-side coefficient c_d
    rhs: Fraction          # (-1)^D / d! times the abelianized JK limit
    moduli_dim: int


def verify_main_theorem(l1: int, l2: int, dim: DimVector, zeta: Stability,
                        cutoff: int) -> VerificationResult:
    """Check c_d = (-1)^D * jk_ab_infinity / prod d_v! for K(l1, l2).

    The input checks run first and the JK side second, so a rejected input
    (bad cutoff, |d| over the cutoff, non-regular stability) never pays for
    the scattering diagram.
    """
    q = bipartite_quiver(l1, l2)
    _check_compatible(q, dim, zeta, l1)
    _check_sizes(l1, l2, cutoff)
    _cd_target(dim, cutoff)
    D = moduli_dimension(q, dim)
    dfact = 1
    for _v, dv in dim.values:
        dfact *= factorial(dv)
    rhs = Q(-1) ** D * jk_ab_infinity(q, dim, zeta) / dfact
    lhs = extract_cd(scatter(init_bipartite(l1, l2, cutoff)), dim)
    return VerificationResult(lhs == rhs, lhs, rhs, D)


def _check_compatible(q, dim: DimVector, zeta: Stability, l1: int) -> None:
    src = {zeta[v] for v in q.vertices[:l1]}
    snk = {zeta[v] for v in q.vertices[l1:]}
    if len(src) != 1 or len(snk) != 1:
        raise ValidationError("stability", "zeta must be constant on sources and on sinks")
    if src == {ZERO} or snk == {ZERO}:
        raise ValidationError("stability", "zeta must be nontrivial")
    zeta.check_normalized(dim)
