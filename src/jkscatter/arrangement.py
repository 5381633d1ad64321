"""Hyperplane arrangements from quiver data and the Jeffrey-Kirwan residue.

The ambient space has one coordinate ``u_{v}_{k}`` per vertex v and index
k = 1..d_v, with one reference coordinate removed (set to 0).  Weights are the
projections of u_{head,j} - u_{tail,i} displaced by rational R-charges, one
per original arrow; roots are the differences u_{v,j} - u_{v,i} displaced by 1.

Exactly n planes meet at every singular point (singular_points rejects
more), so the local JK residue there is the basis case (Jeffrey-Kirwan 1995,
Brion-Vergne 1999): it depends only on the signs of zeta's coordinates in
the basis of active planes.  meet eliminates each basis once, and its
SingularPoint keeps the inverse of the planes' linear parts: zeta_from_theta
and jk_basis read zeta's coordinates there, and jk_basis reads the residue
off the form's factors in closed form.  The flag residues of jk_zeta cover
active sets that are not a basis.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (DegenerateRCharges, NonRegularStability, NotProjective,
                     NotSumRegular)
from .exact import (LinForm, ONE, Q, RationalExpr, ZERO, in_span,
                    iterated_residue, mat_det, mat_inverse, mat_rank, qify,
                    rref, solve_linear, subst_linear_basis)
from .quiver import DimVector, Quiver, Stability, validate_quiver

Vector = tuple[Fraction, ...]


def coord_name(vertex: str, k: int) -> str:
    return f"u_{vertex}_{k}"


# ---------------------------------------------------------------------------
# arrangement construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    form: LinForm            # linear part (reference coordinate projected out)
    rcharge: Fraction        # hyperplane: form + rcharge = 0
    arrow: tuple[str, str]   # original arrow
    arrow_index: int


@dataclass(frozen=True)
class Arrangement:
    quiver: Quiver
    dim: DimVector
    variables: tuple[str, ...]       # ordered coordinates (reference removed)
    reference: tuple[str, int]
    weights: tuple[Weight, ...]
    roots: tuple[LinForm, ...]
    rcharges: tuple[Fraction, ...]   # one per arrow

    @property
    def n(self) -> int:
        return len(self.variables)

    def hyperplanes(self) -> list[tuple[LinForm, Fraction]]:
        """(linear part, offset) pairs; the hyperplane is {linear + offset = 0}."""
        out = [(w.form, w.rcharge) for w in self.weights]
        out.extend((r, Q(-1)) for r in self.roots)
        return out

    @functools.cached_property
    def points(self) -> tuple[SingularPoint, ...]:
        """The singular points, enumerated once per arrangement."""
        return tuple(singular_points(self))


RC_DENOMINATOR = 2 ** 31
MAX_RESAMPLES = 32


def sample_rcharges(count: int, seed: int) -> list[Fraction]:
    """Deterministic generic rationals: numerator from a seeded PRNG / 2^31."""
    rng = random.Random(seed)
    return [Q(rng.randrange(1, RC_DENOMINATOR), RC_DENOMINATOR) for _ in range(count)]


def build_arrangement(q: Quiver, d: DimVector,
                      rcharges: Sequence[Fraction] | None = None,
                      seed: int | None = None) -> Arrangement:
    """Build the weight/root arrangement of (Q, d) with explicit or seeded R.

    Every arrow carries its own R-charge, so parallel arrows give parallel
    weight hyperplanes and no hyperplane is repeated.  When a seed is given
    the R-charges are resampled (deterministically) up to 32 times until all
    hyperplane intersections are simple.  The reference coordinate is the
    last index of the last vertex in the support of d.
    """
    validate_quiver(q)
    rv = d.support()[-1]
    rk = d[rv]
    reference = (rv, rk)

    variables = tuple(coord_name(v, k)
                      for v in q.vertices for k in range(1, d[v] + 1)
                      if (v, k) != (rv, rk))

    def proj(vertex: str, k: int) -> LinForm:
        if (vertex, k) == (rv, rk):
            return LinForm()
        return LinForm.var(coord_name(vertex, k))

    def assemble(rc: list[Fraction]) -> Arrangement:
        weights = tuple(Weight(proj(h, j) - proj(t, i), r, (t, h), idx)
                        for idx, ((t, h), r) in enumerate(zip(q.arrows, rc))
                        for i in range(1, d[t] + 1) for j in range(1, d[h] + 1))
        roots = tuple(proj(v, j) - proj(v, i) for v in q.vertices
                      for i in range(1, d[v] + 1) for j in range(1, d[v] + 1)
                      if i != j)
        return Arrangement(q, d, variables, reference, weights, roots, tuple(rc))

    if rcharges is not None:
        rc = [qify(r) for r in rcharges]
        if len(rc) != len(q.arrows):
            raise ValueError(f"expected {len(q.arrows)} R-charges, got {len(rc)}")
        arr = assemble(rc)
        arr.points  # raises DegenerateRCharges on coincidences
        return arr
    if seed is None:
        raise ValueError("provide explicit rcharges or a seed")
    for attempt in range(MAX_RESAMPLES):
        arr = assemble(sample_rcharges(len(q.arrows), seed + attempt))
        try:
            arr.points
            return arr
        except DegenerateRCharges:
            continue
    raise DegenerateRCharges(f"no generic R-charges after {MAX_RESAMPLES} samples")


def scale_rcharges(a: Arrangement, lam: Fraction) -> Arrangement:
    """``a`` with every R-charge times lambda, validated anew (lambda * R can
    be degenerate where R is not); ``a`` itself at lambda = 1."""
    lam = qify(lam)
    if lam == 1:
        return a
    return build_arrangement(a.quiver, a.dim, rcharges=[r * lam for r in a.rcharges])


# ---------------------------------------------------------------------------
# singular points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPoint:
    location: Vector                     # w.r.t. the arrangement's variables
    active: tuple[int, ...]              # indices into hyperplanes(), or ()
    functionals: tuple[LinForm, ...]     # the active planes as affine forms,
                                         # each 0 at the location
    inverse: tuple[Vector, ...]          # inverse of the functionals' linear parts

    def coordinates(self, zeta: Sequence[Fraction]) -> list[Fraction]:
        """c with zeta = sum c_i (linear part of functional i): zeta M^-1."""
        return [sum((qify(z) * row[i] for z, row in zip(zeta, self.inverse)), ZERO)
                for i in range(len(self.inverse))]


def meet(planes: Sequence[LinForm], var_order: Sequence[str],
         active: tuple[int, ...] = ()) -> SingularPoint | None:
    """The point where the affine planes p_i = 0 meet, or None unless they
    form a basis (n = len(var_order) planes with independent linear parts).

    One inverse M^-1 of the linear parts gives the location -M^-1 const and
    stays on the point: zeta's coordinates in the basis are zeta M^-1.
    """
    n = len(var_order)
    minv = mat_inverse([p.vector(var_order) for p in planes]) if len(planes) == n else None
    if minv is None:
        return None
    location = tuple(-sum((row[i] * planes[i].const for i in range(n)), ZERO)
                     for row in minv)
    return SingularPoint(location, active, tuple(planes), tuple(map(tuple, minv)))


def singular_points(a: Arrangement) -> list[SingularPoint]:
    """All points where n hyperplanes meet, sorted by location.

    Each combination of n planes is met once.  Where exactly n planes pass
    through a point, only their own combination finds it; a second
    combination landing on a stored location means more than n planes
    meet there (basis exchange), which raises DegenerateRCharges at once.
    """
    planes = [lf + off for lf, off in a.hyperplanes()]
    pts: dict[Vector, SingularPoint] = {}
    for combo in itertools.combinations(range(len(planes)), a.n):
        pt = meet([planes[i] for i in combo], a.variables, combo)
        if pt is None:
            continue
        if pt.location in pts:
            raise DegenerateRCharges(
                f"more than {a.n} hyperplanes meet at {pt.location}")
        pts[pt.location] = pt
    return [pts[loc] for loc in sorted(pts)]


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


def _dmu_sign(dmu_order: Sequence[str], base: Sequence[str]) -> int:
    """Sign of the permutation carrying `base` to `dmu_order`."""
    perm = [list(base).index(v) for v in dmu_order]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def enumerate_flags(activeset: Sequence[LinForm], zeta: Sequence[Fraction],
                    dmu_order: Sequence[str],
                    var_order: Sequence[str] | None = None) -> list[Flag]:
    """All flags adapted to the active set, with nu, kappa and cone data.

    ``dmu_order`` is the ordered list of coordinate names whose wedge is the
    reference measure; zeta components follow ``var_order`` (defaulting to
    the sorted coordinate names).
    """
    base = tuple(var_order) if var_order is not None else tuple(sorted(dmu_order))
    n = len(base)
    zeta = tuple(qify(x) for x in zeta)
    vecs = [f.vector(base) for f in activeset]
    dsign = _dmu_sign(dmu_order, base)

    # subspaces of each dimension spanned by active elements
    spaces: list[dict[tuple, tuple[int, ...]]] = [dict() for _ in range(n + 1)]
    spaces[0][()] = ()
    for j in range(1, n + 1):
        for sub in itertools.combinations(range(len(vecs)), j):
            rows = [list(vecs[i]) for i in sub]
            if mat_rank(rows) == j:
                spaces[j].setdefault(rref(rows), sub)

    def contains(big: tuple, small_sub: tuple[int, ...]) -> bool:
        gens = [list(r) for r in big]
        return all(in_span(vecs[i], gens) for i in small_sub)

    def members(space_key: tuple) -> tuple[int, ...]:
        gens = [list(r) for r in space_key]
        return tuple(i for i in range(len(vecs)) if in_span(vecs[i], gens))

    member_cache = {key: members(key) for j in range(1, n + 1) for key in spaces[j]}

    flags: list[Flag] = []

    def rec(j: int, chain: list[tuple]):
        if j == n:
            _finish(chain)
            return
        prev = chain[-1] if chain else ()
        prev_members = member_cache[prev] if prev else ()
        for key in spaces[j + 1]:
            if prev and not contains(key, member_cache[prev]):
                continue
            # F_{j+1} must be spanned by its active elements beyond F_j
            new = [i for i in member_cache[key] if i not in prev_members]
            if not new:
                continue
            rec(j + 1, chain + [key])

    def _finish(chain: list[tuple]):
        partition = []
        prev_members: tuple[int, ...] = ()
        for key in chain:
            cur = member_cache[key]
            partition.append(tuple(i for i in cur if i not in prev_members))
            prev_members = cur
        kappas = []
        running = [ZERO] * n
        for part in partition:
            for i in part:
                running = [a + b for a, b in zip(running, vecs[i])]
            kappas.append(tuple(running))
        det = mat_det(kappas)
        nu = 0 if det == 0 else (1 if det > 0 else -1) * dsign
        coeffs = None
        in_cone = False
        if nu != 0:
            # zeta on the boundary of a kappa-cone is a sum-regularity failure
            # (each kappa is a sum of distinct active elements)
            cols = [[kappas[j][i] for j in range(n)] for i in range(n)]
            coeffs = tuple(solve_linear(cols, list(zeta)))
            if any(c == 0 for c in coeffs):
                raise NotSumRegular("zeta lies on a kappa-cone wall",
                                    witness=partition)
            in_cone = all(c > 0 for c in coeffs)
        gamma = [activeset[part[0]] for part in partition]
        gdet = mat_det([g.vector(base) for g in gamma])
        if gdet != 0:
            gamma[-1] = gamma[-1] * (Q(dsign) / gdet)
        flags.append(Flag(tuple(partition), tuple(kappas), nu, tuple(gamma),
                          coeffs, in_cone))

    rec(0, [])
    flags.sort(key=lambda fl: fl.partition)
    return flags


def flag_residue(f: RationalExpr, flag: Flag,
                 var_order: Sequence[str]) -> Fraction:
    """Residue along the flag: IR_0 of f in the adapted coordinates.

    The adapted basis stored on the flag has determinant sign(dmu), which
    fixes the orientation; no Jacobian factor is applied (it is +-1 and
    already encoded in the basis normalization).
    """
    names = [f"x{i + 1}" for i in range(len(flag.gamma))]
    g = subst_linear_basis(f, flag.gamma, var_order=var_order, new_names=names)
    return iterated_residue(g, names)


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

    The point (from meet) carries its basis forms basis_i, its location p
    and the inverse M^-1 of their linear parts, so zeta's coordinates,
    zeta = sum c_i basis_i, are c = zeta M^-1 with no elimination here: a
    zero c_i raises NotSumRegular, and the value is 0 unless every c_i is
    positive.  Inside the cone, every denominator factor lf that vanishes
    at p must be proportional to a basis form, basis_i = kappa_i * lf, else
    ValueError.  In x_i = basis_i(u) the form is then g(x) / prod x_i^m_i
    with g holomorphic at x = 0, and the residue is the Taylor coefficient
    of g at x^(m-1), whatever the order of the x_i: 0 when some basis form
    carries no pole, and for simple poles

        scalar * num(p) * prod lf(p)^e * prod kappa_i,

    the first product over the factors that do not vanish at p (so 0 when a
    numerator factor vanishes there).  A pole of order >= 2 takes the
    iterated residue in the basis order.
    """
    basis = point.functionals
    n = len(basis)
    coeffs = point.coordinates(zeta)
    if any(c == 0 for c in coeffs):
        idx = [i for i, c in enumerate(coeffs) if c == 0]
        raise NotSumRegular(f"zeta has vanishing components {idx} w.r.t. the basis",
                            witness=[basis[i] for i in range(n) if i not in idx])
    if any(c < 0 for c in coeffs):
        return ZERO
    p = dict(zip(var_order, point.location))
    kappa = {canon: (i, unit)
             for i, (unit, canon) in enumerate(b.canonical() for b in basis)}
    poles = [0] * n
    value = f.scalar * f.num.evaluate(p)
    for lf, e in f.factors:
        at_p = lf.evaluate(p)
        if at_p != 0:
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
    names = [f"x{i + 1}" for i in range(n)]
    g = subst_linear_basis(f, basis, var_order=var_order, new_names=names)
    return iterated_residue(g, names)


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
    """zeta = -theta_lift, checked for regularity at every singular point.

    The active functionals of every singular point form a basis B
    (singular_points rejects more than n planes through a point), and zeta
    is tested in its coordinates c, zeta = sum c_i B_i, read off the
    inverse the point carries with no solve.  zeta lies on a
    wall, the span of n-1 active functionals, exactly when some c_i is 0:
    that raises NonRegularStability with the smallest such wall as the
    witness.  Otherwise zeta is returned as it is: the local JK residue at
    a basis depends only on the signs of the c_i, so ties and other
    coincidences among them change no value.
    """
    zeta = tuple(-x for x in theta_lift(a, theta))
    walls = []
    for pt in a.points:
        vecs = [f.vector(a.variables) for f in pt.functionals]
        c = pt.coordinates(zeta)
        walls.extend(tuple(sorted(vecs[:i] + vecs[i + 1:]))
                     for i, x in enumerate(c) if x == 0)
    if walls:
        raise NonRegularStability(
            "lifted stability lies on an arrangement wall",
            witness=[list(w) for w in min(walls)])
    return zeta


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
