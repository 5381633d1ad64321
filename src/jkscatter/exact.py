"""Exact rational multivariate algebra and the iterated-residue calculus.

Everything here is built on ``fractions.Fraction``; no floating point is used
anywhere.  The central objects are:

* :class:`LinForm` -- an affine-linear form ``sum(c_v * v) + const``.
* :class:`Poly` -- a multivariate polynomial (dict of monomials).
* :class:`RationalExpr` -- ``scalar * num * prod(L_i ** e_i)`` with the
  ``L_i`` canonicalized linear forms.  Denominators stay factored; the
  polynomial numerator absorbs whatever does not factor into linear forms.

The residue machinery works in the iterated-Laurent-series field in which the
residue variable is "smaller" than every remaining variable: a denominator
factor ``a*v + r`` with ``r != 0`` (a nonzero form in the remaining variables
or a nonzero constant) is a unit and is inverted as a power series in ``v``;
only pure ``v`` factors create a principal part.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .errors import SingularBasis, ZeroDenominator

Q = Fraction

ZERO = Q(0)
ONE = Q(1)


def qify(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point values are not allowed in exact arithmetic")
    return Fraction(x)


# ---------------------------------------------------------------------------
# linear algebra (dense, Fraction entries): one Gauss-Jordan kernel
# ---------------------------------------------------------------------------

def _gauss_jordan(m: Sequence[Sequence[Fraction]], ncols: int):
    """Reduce a copy of m to reduced row echelon form in its first ncols columns.

    Later columns (an augmented right-hand side or identity) ride along.
    Returns (rows, pivot columns, pivot values, swaps): the pivot values are
    the entries divided out, as they stood when their column was reached, so
    a square m has det = (-1)**swaps * prod(pivot values) at full rank.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    pivots: list[int] = []
    values: list[Fraction] = []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        value = rows[r][c]
        inv = ONE / value
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        values.append(value)
        r += 1
    return rows, pivots, values, swaps


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """The nonzero rows of the reduced row echelon form of m."""
    rows, pivots, _values, _swaps = _gauss_jordan(m, len(m[0]) if m else 0)
    return tuple(tuple(row) for row in rows[:len(pivots)])


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    _rows, pivots, values, swaps = _gauss_jordan(m, len(m))
    if len(pivots) < len(m):
        return ZERO
    return prod(values, start=-ONE if swaps % 2 else ONE)


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """Exact inverse, or None if singular."""
    n = len(m)
    rows, pivots, _values, _swaps = _gauss_jordan(
        [list(row) + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(m)], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in rows]


def solve_linear(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """Solve a (possibly rectangular) exact linear system a @ x = b.

    Returns the solution vector when the system is consistent and has a
    unique solution, and None otherwise.
    """
    ncols = len(a[0]) if a else 0
    rows, pivots, _values, _swaps = _gauss_jordan(
        [list(r) + [bb] for r, bb in zip(a, b)], ncols)
    if len(pivots) < ncols or any(row[ncols] != 0 for row in rows[ncols:]):
        return None
    return [row[ncols] for row in rows[:ncols]]


def mat_rank(m: Sequence[Sequence[Fraction]]) -> int:
    return len(_gauss_jordan(m, len(m[0]) if m else 0)[1])


def in_span(vec: Sequence[Fraction], gens: Sequence[Sequence[Fraction]]) -> bool:
    """Is vec in the linear span of gens?"""
    if all(x == 0 for x in vec):
        return True
    if not gens:
        return False
    base = mat_rank(gens)
    return mat_rank(list(gens) + [list(vec)]) == base


def binom_general(e: int, k: int) -> Fraction:
    """Generalized binomial coefficient C(e, k) for integer e (may be < 0)."""
    num = ONE
    for i in range(k):
        num *= e - i
    return num / factorial(k)


# ---------------------------------------------------------------------------
# LinForm
# ---------------------------------------------------------------------------

class LinForm:
    """Affine-linear form: mapping var -> coefficient, plus a constant."""

    __slots__ = ("coeffs", "const", "_hash", "_canon")

    def __init__(self, coeffs: Mapping[str, Fraction] | None = None, const=0):
        cc = {}
        if coeffs:
            for v, c in coeffs.items():
                c = qify(c)
                if c != 0:
                    cc[v] = c
        object.__setattr__(self, "coeffs", cc)
        object.__setattr__(self, "const", qify(const))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_canon", None)

    # -- construction helpers
    @staticmethod
    def var(name: str) -> "LinForm":
        return LinForm({name: ONE})

    @staticmethod
    def constant(c) -> "LinForm":
        return LinForm({}, c)

    # -- queries
    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> set[str]:
        return set(self.coeffs)

    def coeff(self, v: str) -> Fraction:
        return self.coeffs.get(v, ZERO)

    def vector(self, order: Sequence[str]) -> tuple[Fraction, ...]:
        return tuple(self.coeffs.get(v, ZERO) for v in order)

    # -- arithmetic
    def __add__(self, other):
        if isinstance(other, LinForm):
            cc = dict(self.coeffs)
            for v, c in other.coeffs.items():
                cc[v] = cc.get(v, ZERO) + c
            return LinForm(cc, self.const + other.const)
        return LinForm(self.coeffs, self.const + qify(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (other * -1 if isinstance(other, LinForm) else -qify(other))

    def __mul__(self, scalar):
        s = qify(scalar)
        return LinForm({v: c * s for v, c in self.coeffs.items()}, self.const * s)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        return self.const + sum((c * qify(point[v]) for v, c in self.coeffs.items()), ZERO)

    def subs(self, mapping: Mapping[str, "LinForm"]) -> "LinForm":
        """Substitute variables by linear forms (vars not in mapping are kept)."""
        out = LinForm.constant(self.const)
        for v, c in self.coeffs.items():
            repl = mapping.get(v)
            if repl is None:
                out = out + LinForm({v: c})
            else:
                out = out + repl * c
        return out

    def canonical(self) -> tuple[Fraction, "LinForm"]:
        """Return (unit, canon) with self = unit * canon.

        canon has leading coefficient 1 (leading = smallest variable name; a
        pure constant canonicalizes to 1).  Proportional forms share canon.
        The pair is computed once per form, like its hash.
        """
        c = object.__getattribute__(self, "_canon")
        if c is None:
            if self.is_zero():
                c = ZERO, self
            elif not self.coeffs:
                c = self.const, LinForm.constant(1)
            else:
                lead = self.coeffs[min(self.coeffs)]
                c = lead, self * (ONE / lead)
            object.__setattr__(self, "_canon", c)
        return c

    # -- identity
    def _key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other):
        return isinstance(other, LinForm) and self._key() == other._key()

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        parts = []
        for v in sorted(self.coeffs):
            c = self.coeffs[v]
            parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{v}" if abs(c) != 1
                         else f"{'+' if c > 0 else '-'} {v}")
        if self.const != 0 or not parts:
            parts.append(f"{'+' if self.const >= 0 else '-'} {abs(self.const)}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:] if s.startswith("- ") else s


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[str, int], ...]  # sorted by variable name, exponents > 0


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


class Poly:
    """Multivariate polynomial over Q, dict of monomial -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                c = qify(c)
                if c != 0:
                    t[m] = c
        self.terms = t

    @staticmethod
    def const(c) -> "Poly":
        c = qify(c)
        return Poly({(): c} if c != 0 else {})

    @staticmethod
    def from_linform(lf: LinForm) -> "Poly":
        t = {((v, 1),): c for v, c in lf.coeffs.items()}
        if lf.const != 0:
            t[()] = lf.const
        return Poly(t)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def const_value(self) -> Fraction:
        return self.terms.get((), ZERO)

    def variables(self) -> set[str]:
        return {v for m in self.terms for v, _ in m}

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, ZERO) + c
        return Poly(t)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, s) -> "Poly":
        s = qify(s)
        return Poly({m: c * s for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        t: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                t[m] = t.get(m, ZERO) + c1 * c2
        return Poly(t)

    def power(self, e: int) -> "Poly":
        assert e >= 0
        out = Poly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        tot = ZERO
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= qify(point[v]) ** e
            tot += val
        return tot

    def subs(self, mapping: Mapping[str, LinForm]) -> "Poly":
        out = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m:
                repl = mapping.get(v)
                base = Poly.from_linform(repl) if repl is not None else Poly({((v, 1),): ONE})
                term = term * base.power(e)
            out = out + term
        return out

    def split_var(self, v: str) -> dict[int, "Poly"]:
        """Write self = sum_j v**j * P_j(rest); return {j: P_j}."""
        out: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            j = 0
            rest = []
            for var, e in m:
                if var == v:
                    j = e
                else:
                    rest.append((var, e))
            out.setdefault(j, {})[tuple(rest)] = out.setdefault(j, {}).get(tuple(rest), ZERO) + c
        return {j: Poly(t) for j, t in out.items() if not all(c == 0 for c in t.values())}

    def div_linform(self, lf: LinForm) -> "Poly | None":
        """Exact division by an affine-linear form, or None if not divisible."""
        if lf.is_zero():
            return None
        if lf.is_constant():
            return self.scale(ONE / lf.const)
        v = min(lf.coeffs)
        a = lf.coeffs[v]
        rest = Poly.from_linform(lf - LinForm({v: a}))
        by_v = self.split_var(v)
        if not by_v:
            return Poly()
        top = max(by_v)
        if top == 0:
            return None
        quot_parts: dict[int, Poly] = {}
        cur = dict(by_v)
        for j in range(top, 0, -1):
            pj = cur.get(j, Poly())
            qj = pj.scale(ONE / a)  # coefficient of v**(j-1) in the quotient
            if not qj.is_zero():
                quot_parts[j - 1] = qj
                # subtract qj * v**(j-1) * (a v + rest)
                cur[j] = Poly()
                low = qj * rest
                cur[j - 1] = cur.get(j - 1, Poly()) - low
        if not cur.get(0, Poly()).is_zero():
            return None
        vpoly = Poly({((v, 1),): ONE})
        out = Poly()
        for j, qj in quot_parts.items():
            out = out + qj * vpoly.power(j)
        return out

    def _key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in m)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# RationalExpr
# ---------------------------------------------------------------------------

class RationalExpr:
    """scalar * num * prod(canon_i ** e_i), canon_i canonical linear forms.

    The factor list holds both numerator (e > 0) and denominator (e < 0)
    linear factors; proportional forms are merged with their units folded
    into the scalar.  ``num`` is an extra polynomial numerator (usually 1)
    created when sums are recombined over the factored common denominator.
    """

    __slots__ = ("scalar", "num", "factors")

    def __init__(self, scalar=1, factors: Iterable[tuple[LinForm, int]] = (),
                 num: Poly | None = None):
        scalar = qify(scalar)
        num = Poly.const(1) if num is None else num
        merged: dict[LinForm, int] = {}
        for lf, e in factors:
            if e == 0:
                continue
            unit, canon = lf.canonical()
            if unit == 0:
                if e < 0:
                    raise ZeroDenominator(f"zero linear form with exponent {e}")
                scalar = ZERO
                continue
            scalar *= unit ** e
            if canon.is_constant():  # canonical constant is 1
                continue
            merged[canon] = merged.get(canon, 0) + e
        # fold constant numerator polynomials into the scalar
        if num.is_constant():
            scalar *= num.const_value()
            num = Poly.const(1)
        if scalar == 0 or num.is_zero():
            self.scalar = ZERO
            self.num = Poly.const(1)
            self.factors = ()
            return
        self.scalar = scalar
        self.num = num
        self.factors = tuple(sorted(((lf, e) for lf, e in merged.items() if e != 0),
                                    key=lambda p: (sorted(p[0].coeffs.items()), p[0].const)))

    # -- constructors
    @staticmethod
    def const(c) -> "RationalExpr":
        return RationalExpr(c)

    @staticmethod
    def from_poly(p: Poly) -> "RationalExpr":
        return RationalExpr(1, (), p)

    def is_zero(self) -> bool:
        return self.scalar == 0

    def variables(self) -> set[str]:
        vs = set(self.num.variables())
        for lf, _ in self.factors:
            vs |= lf.variables()
        return vs

    # -- arithmetic
    def __mul__(self, other):
        if isinstance(other, RationalExpr):
            return RationalExpr(self.scalar * other.scalar,
                                tuple(self.factors) + tuple(other.factors),
                                self.num * other.num)
        return RationalExpr(self.scalar * qify(other), self.factors, self.num)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        if not isinstance(other, RationalExpr):
            other = RationalExpr(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # common denominator: most negative exponent per canonical form
        denom: dict[LinForm, int] = {}
        for term in (self, other):
            for lf, e in term.factors:
                if e < 0:
                    denom[lf] = min(denom.get(lf, 0), e)

        def lifted_numerator(term: "RationalExpr") -> Poly:
            p = term.num.scale(term.scalar)
            have = dict(term.factors)
            for lf, e in term.factors:
                if e > 0:
                    p = p * Poly.from_linform(lf).power(e)
            for lf, e in denom.items():
                deficit = have.get(lf, 0) - e  # >= 0
                if deficit > 0:
                    p = p * Poly.from_linform(lf).power(deficit)
            return p

        total = lifted_numerator(self) + lifted_numerator(other)
        return RationalExpr(1, tuple(denom.items()), total).reduce()

    def __sub__(self, other):
        return self + (other * -1 if isinstance(other, RationalExpr) else RationalExpr(-qify(other)))

    def reduce(self) -> "RationalExpr":
        """Cancel denominator linear factors that divide the numerator."""
        if self.is_zero() or self.num.is_constant():
            return self
        num = self.num
        newf = []
        for lf, e in self.factors:
            while e < 0:
                q = num.div_linform(lf)
                if q is None:
                    break
                num = q
                e += 1
            if e != 0:
                newf.append((lf, e))
        return RationalExpr(self.scalar, newf, num)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        val = self.scalar * self.num.evaluate(point)
        for lf, e in self.factors:
            b = lf.evaluate(point)
            if b == 0 and e < 0:
                raise ZeroDenominator(f"denominator {lf!r} vanishes at the point")
            val *= b ** e
        return val

    def subs_linear(self, mapping: Mapping[str, LinForm]) -> "RationalExpr":
        return RationalExpr(self.scalar,
                            tuple((lf.subs(mapping), e) for lf, e in self.factors),
                            self.num.subs(mapping))

    def as_fraction(self) -> Fraction:
        """Value of a variable-free expression."""
        red = self.reduce()
        if red.variables():
            raise ValueError(f"expression is not constant: {red!r}")
        return red.scalar * red.num.const_value() * \
            prod(lf.const ** e for lf, e in red.factors)

    def __eq__(self, other):
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("RationalExpr is not hashable")

    def __repr__(self):
        bits = [str(self.scalar)]
        if not self.num.is_constant():
            bits.append(f"({self.num!r})")
        for lf, e in self.factors:
            bits.append(f"({lf!r})^{e}" if e != 1 else f"({lf!r})")
        return " * ".join(bits)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def residue_step(f: RationalExpr, v: str) -> RationalExpr:
    """Coefficient of v**(-1) of f in the iterated-Laurent field, v innermost.

    Denominator factors a*v + r with r a nonzero form in the remaining
    variables (or a nonzero constant) are units: they are inverted as power
    series in v up to the pole order contributed by pure-v factors.
    """
    if f.is_zero():
        return RationalExpr(0)
    numer = f.num
    pure_v_exp = 0
    series_factors = []  # (a, r: LinForm without v, e < 0)
    passthrough = []
    for lf, e in f.factors:
        a = lf.coeff(v)
        if a == 0:
            passthrough.append((lf, e))
            continue
        rest = lf - LinForm({v: a})
        if rest.is_zero():
            pure_v_exp += e
        elif e > 0:
            numer = numer * Poly.from_linform(lf).power(e)
        else:
            series_factors.append((a, rest, e))

    order = -pure_v_exp - 1  # highest series order needed
    if order < 0:
        return RationalExpr(0)

    n_parts = numer.split_var(v)

    # multiply the truncated series of all unit denominator factors
    series: list[RationalExpr] = [RationalExpr(1)] + [RationalExpr(0)] * order
    for a, rest, e in series_factors:
        fac = [RationalExpr(binom_general(e, k) * a ** k, ((rest, e - k),))
               for k in range(order + 1)]
        new = [RationalExpr(0)] * (order + 1)
        for i in range(order + 1):
            if series[i].is_zero():
                continue
            for k in range(order + 1 - i):
                new[i + k] = new[i + k] + series[i] * fac[k]
        series = new

    total = RationalExpr(0)
    for j, nj in n_parts.items():
        k = order - j
        if 0 <= k <= order and not series[k].is_zero():
            total = total + RationalExpr.from_poly(nj) * series[k]
    return (total * RationalExpr(f.scalar, tuple(passthrough))).reduce()


def iterated_residue(f: RationalExpr, order: Sequence[str]) -> Fraction:
    """IR_0(f): fold residue_step over `order` (first entry innermost)."""
    missing = f.variables() - set(order)
    if missing:
        raise ValueError(f"order omits variables {sorted(missing)}")
    # extra variables are fine: residues in them act on a constant
    g = f
    for v in order:
        g = residue_step(g, v)
        if g.is_zero():
            return ZERO
    return g.as_fraction()


def subst_linear_basis(f: RationalExpr, basis: Sequence[LinForm],
                       var_order: Sequence[str] | None = None,
                       new_names: Sequence[str] | None = None) -> RationalExpr:
    """Express f in coordinates x_i = basis_i(u) (substitution only).

    The basis forms may be affine: the point where they all vanish goes to
    x = 0.  Returns f(u(x)) in variables named x1..xn (or `new_names`),
    without the Jacobian factor.  Raises SingularBasis when the basis is
    degenerate.
    """
    if var_order is None:
        var_order = sorted(f.variables() | {v for b in basis for v in b.variables()})
    n = len(basis)
    if len(var_order) != n:
        raise SingularBasis(f"basis of size {n} for {len(var_order)} variables")
    if new_names is None:
        new_names = [f"x{i + 1}" for i in range(n)]
    m = [[b.coeff(u) for u in var_order] for b in basis]  # x = M u + c
    minv = mat_inverse(m)
    if minv is None:
        raise SingularBasis("basis matrix is singular")
    mapping = {u: LinForm({new_names[i]: minv[j][i] for i in range(n)},
                          -sum((minv[j][i] * basis[i].const for i in range(n)), ZERO))
               for j, u in enumerate(var_order)}
    return f.subs_linear(mapping)


def change_vars_linear(f: RationalExpr, basis: Sequence[LinForm],
                       var_order: Sequence[str] | None = None,
                       new_names: Sequence[str] | None = None) -> RationalExpr:
    """f in coordinates x_i = basis_i(u), times the Jacobian det(du/dx).

    iterated_residue of the output is invariant under rescaling of basis
    elements, and equals the flag residue for a positively-oriented basis.
    """
    if var_order is None:
        var_order = sorted(f.variables() | {v for b in basis for v in b.variables()})
    m = [[b.coeff(u) for u in var_order] for b in basis]
    det = mat_det(m) if len(m) == len(var_order) else ZERO
    if det == 0:
        raise SingularBasis("basis matrix is singular")
    return subst_linear_basis(f, basis, var_order, new_names) * (ONE / det)
