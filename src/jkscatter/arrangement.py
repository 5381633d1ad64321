"""Hyperplane arrangements from quiver data and the Jeffrey-Kirwan residue.

The ambient space has one coordinate ``u_{v}_{k}`` per vertex v and index
k = 1..d_v, with one reference coordinate removed (set to 0).  Weights are the
projections of u_{head,j} - u_{tail,i} displaced by rational R-charges; roots
are the differences u_{v,j} - u_{v,i} displaced by 1.

The local JK residue at a singular point is a signed sum of flag residues
(sum over flags whose kappa-cone contains zeta), or the ordered iterated
residue shortcut when the active set is a basis.
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
                    iterated_residue, mat_det, mat_rank, qify, rref,
                    solve_linear, subst_linear_basis)
from .quiver import DimVector, Quiver, Stability, reduced_quiver, validate_quiver

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
    multiplicity: int        # exponent of the Z_Q factor
    arrow: tuple[str, str]   # original (or reduced) arrow
    arrow_index: int
    pair: tuple[int, int]    # (i, j) indices into the tail/head coordinates


@dataclass(frozen=True)
class Arrangement:
    quiver: Quiver
    dim: DimVector
    variables: tuple[str, ...]       # ordered coordinates (reference removed)
    reference: tuple[str, int]
    weights: tuple[Weight, ...]
    roots: tuple[LinForm, ...]
    rcharges: tuple[Fraction, ...]   # one per arrow (split) / reduced arrow
    split_multiplicities: bool

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


def build_arrangement(q: Quiver, d: DimVector, reference: tuple[str, int] | None = None,
                      rcharges: Sequence[Fraction] | None = None,
                      seed: int | None = None,
                      split_multiplicities: bool = True) -> Arrangement:
    """Build the weight/root arrangement of (Q, d) with explicit or seeded R.

    With ``split_multiplicities`` (the default) every original arrow carries
    its own R-charge and multiplicity-1 weights; otherwise one R-charge and
    an exponent-m weight is attached per reduced arrow.  When a seed is given
    the R-charges are resampled (deterministically) up to 32 times until all
    hyperplane intersections are simple.
    """
    validate_quiver(q)
    if reference is None:
        last = d.support()[-1]
        reference = (last, d[last])
    rv, rk = reference
    if d[rv] < rk or rk < 1:
        raise ValueError(f"reference coordinate ({rv},{rk}) does not exist")

    variables = tuple(coord_name(v, k)
                      for v in q.vertices for k in range(1, d[v] + 1)
                      if (v, k) != (rv, rk))

    def proj(vertex: str, k: int) -> LinForm:
        if (vertex, k) == (rv, rk):
            return LinForm()
        return LinForm.var(coord_name(vertex, k))

    if split_multiplicities:
        carriers = list(enumerate(q.arrows))
        mults = [1] * len(carriers)
    else:
        qbar, mult = reduced_quiver(q)
        carriers = list(enumerate(qbar.arrows))
        mults = [mult[i] for i, _ in carriers]

    if rcharges is not None:
        rc = [qify(r) for r in rcharges]
        if len(rc) != len(carriers):
            raise ValueError(f"expected {len(carriers)} R-charges, got {len(rc)}")
        arr = _assemble(q, d, variables, reference, carriers, mults, rc,
                        split_multiplicities, proj)
        arr.points  # raises DegenerateRCharges on coincidences
        return arr
    if seed is None:
        raise ValueError("provide explicit rcharges or a seed")
    for attempt in range(MAX_RESAMPLES):
        rc = sample_rcharges(len(carriers), seed + attempt)
        arr = _assemble(q, d, variables, reference, carriers, mults, rc,
                        split_multiplicities, proj)
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
    return build_arrangement(a.quiver, a.dim, reference=a.reference,
                             rcharges=[r * lam for r in a.rcharges],
                             split_multiplicities=a.split_multiplicities)


def _assemble(q, d, variables, reference, carriers, mults, rc,
              split, proj) -> Arrangement:
    weights = []
    for (idx, (t, h)), m, r in zip(carriers, mults, rc):
        for i in range(1, d[t] + 1):
            for j in range(1, d[h] + 1):
                form = proj(h, j) - proj(t, i)
                weights.append(Weight(form, r, m, (t, h), idx, (i, j)))
    roots = []
    for v in q.vertices:
        for i in range(1, d[v] + 1):
            for j in range(1, d[v] + 1):
                if i != j:
                    roots.append(proj(v, j) - proj(v, i))
    return Arrangement(q, d, variables, reference, tuple(weights), tuple(roots),
                       tuple(rc), split)


# ---------------------------------------------------------------------------
# singular points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPoint:
    location: Vector                     # w.r.t. the arrangement's variables
    active: tuple[int, ...]              # indices into hyperplanes()
    functionals: tuple[LinForm, ...]     # linear parts of the active planes


def singular_points(a: Arrangement) -> list[SingularPoint]:
    """All isolated intersections of n hyperplanes, with their active sets."""
    planes = a.hyperplanes()
    n = a.n
    order = a.variables
    pts: dict[Vector, None] = {}
    for combo in itertools.combinations(range(len(planes)), n):
        rows = [planes[i][0].vector(order) for i in combo]
        b = [-planes[i][1] for i in combo]
        sol = solve_linear(rows, b)
        if sol is not None:
            pts[tuple(sol)] = None
    out = []
    for loc in sorted(pts):
        point = dict(zip(order, loc))
        active = tuple(i for i, (lf, off) in enumerate(planes)
                       if lf.evaluate(point) + off == 0)
        if len(active) > n:
            raise DegenerateRCharges(
                f"{len(active)} hyperplanes meet at {loc} (max {n})")
        out.append(SingularPoint(loc, active, tuple(planes[i][0] for i in active)))
    return out


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


def jk_basis(f: RationalExpr, basis: Sequence[LinForm],
             zeta: Sequence[Fraction],
             var_order: Sequence[str] | None = None) -> Fraction:
    """Basis shortcut: 0 outside the positive span, else the ordered IR_0.

    The coordinates are ordered by strictly descending components of zeta,
    innermost variable first carrying the largest component.
    """
    if var_order is None:
        var_order = sorted({v for b in basis for v in b.variables()})
    var_order = list(var_order)
    zeta = tuple(qify(x) for x in zeta)
    cols = [[b.vector(var_order)[i] for b in basis] for i in range(len(var_order))]
    coeffs = solve_linear(cols, list(zeta))
    if coeffs is None:
        raise NotSumRegular("basis is degenerate")
    if any(c == 0 for c in coeffs):
        idx = [i for i, c in enumerate(coeffs) if c == 0]
        raise NotSumRegular(f"zeta has vanishing components {idx} w.r.t. the basis",
                            witness=[basis[i] for i in range(len(basis)) if i not in idx])
    if len(set(coeffs)) != len(coeffs):
        raise NotSumRegular("zeta has tied components w.r.t. the basis",
                            witness=list(coeffs))
    if any(c < 0 for c in coeffs):
        return ZERO
    ordered_forms = [basis[i] for _, i in
                     sorted(((c, i) for i, c in enumerate(coeffs)),
                            key=lambda p: (-p[0], p[1]))]
    names = [f"x{i + 1}" for i in range(len(ordered_forms))]
    g = subst_linear_basis(f, ordered_forms, var_order=var_order, new_names=names)
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


PERTURBATION_SHIFT = 2 ** 40


def zeta_from_theta(a: Arrangement, theta: Stability) -> Vector:
    """zeta = -theta_lift, perturbed (deterministically) to sum-regularity.

    The active functionals of every singular point form a basis B
    (singular_points rejects more than n planes through a point), and zeta
    is tested in its coordinates c, zeta = sum c_i B_i.  zeta lies on a
    plain wall, the span of n-1 active functionals, exactly when some c_i is
    0: that raises NonRegularStability with the smallest such wall as the
    witness.  zeta lies on a sum wall, the span of n-1 sums of distinct
    active functionals, exactly when c lies on a hyperplane spanned by n-1
    nonzero 0/1 vectors.  Such a failure of mere sum-regularity is repaired
    by a small perturbation that keeps the sign of every c_i, so zeta stays
    in the chamber of -theta_lift.
    """
    n = a.n
    zeta0 = tuple(-x for x in theta_lift(a, theta))
    if n == 0:
        # the one singular point is the origin of a zero-dimensional space,
        # and zeta = () lies on its empty wall
        raise NonRegularStability("lifted stability lies on an arrangement wall",
                                  witness=[])
    bases = []
    walls = []
    for pt in a.points:
        vecs = [f.vector(a.variables) for f in pt.functionals]
        cols = [list(col) for col in zip(*vecs)]
        c0 = solve_linear(cols, zeta0)
        walls.extend(tuple(sorted(vecs[:i] + vecs[i + 1:]))
                     for i, x in enumerate(c0) if x == 0)
        bases.append((cols, c0))
    if walls:
        raise NonRegularStability(
            "lifted stability lies on an arrangement wall",
            witness=[list(w) for w in min(walls)])

    def ok(z: Vector) -> bool:
        for cols, c0 in bases:
            c = solve_linear(cols, z)
            if (any(x * x0 <= 0 for x, x0 in zip(c, c0))
                    or any(_dot(h, c) == 0 for h in _sum_wall_normals(n))):
                return False
        return True

    if ok(zeta0):
        return zeta0

    # exact deterministic perturbation, shrinking until all checks pass
    scale = max((abs(x) for x in zeta0), default=ONE) or ONE
    for t in (3, 5, 7, 11, 13):
        delta = tuple(Q(1, t ** i) for i in range(1, n + 1))
        eps = scale / PERTURBATION_SHIFT
        for _ in range(80):
            cand = tuple(z + eps * dl for z, dl in zip(zeta0, delta))
            if ok(cand):
                return cand
            eps /= 2
    raise NotSumRegular("could not perturb zeta to a sum-regular point")


@functools.cache
def _sum_wall_normals(n: int) -> tuple[Vector, ...]:
    """Normals of the hyperplanes of Q^n spanned by n-1 nonzero 0/1 vectors.

    A sum of distinct elements of a basis has 0/1 coordinates in it, so
    these are the sum walls of every basis, in its coordinates.  The normal
    of n-1 vectors is their vector of signed maximal minors (zero when they
    span less), scaled so that its first nonzero entry is 1.  Once a
    hyperplane is found, the (n-1)-subsets of its 0/1 vectors are skipped.
    """
    cube = [v for v in itertools.product((0, 1), repeat=n) if any(v)]
    normals = []
    seen = set()
    for sub in itertools.combinations(range(len(cube)), n - 1):
        if sub in seen:
            continue
        rows = [cube[i] for i in sub]
        minors = [(-1) ** i * mat_det([v[:i] + v[i + 1:] for v in rows])
                  for i in range(n)]
        lead = next((x for x in minors if x != 0), None)
        if lead is not None:
            h = tuple(x / lead for x in minors)
            normals.append(h)
            seen.update(itertools.combinations(
                [j for j, v in enumerate(cube) if _dot(h, v) == 0], n - 1))
    return tuple(sorted(normals))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def jk_global(f: RationalExpr, a: Arrangement, zeta: Sequence[Fraction]) -> Fraction:
    """Sum over singular points of the local JK of the translated germ."""
    zeta = tuple(qify(x) for x in zeta)
    n = a.n
    total = ZERO
    for pt in a.points:
        shift = dict(zip(a.variables, pt.location))
        germ = f.translate(shift)
        funcs = list(pt.functionals)
        vecs = [ff.vector(a.variables) for ff in funcs]
        try:
            if len(funcs) == n and mat_rank(vecs) == n:
                total += jk_basis(germ, funcs, zeta, var_order=a.variables)
            else:
                total += jk_zeta(germ, funcs, zeta, dmu_order=a.variables,
                                 var_order=a.variables)
        except NotSumRegular as exc:
            raise NonRegularStability(
                f"zeta is not regular at singular point {pt.location}: {exc}",
                witness=exc.witness) from exc
    return total
