"""Truncated multi-parameter Laurent series for the tropical vertex.

Elements live in Q[x^{±1}, y^{±1}][s_1..s_{l1}, t_1..t_{l2}] / (parameter
total degree > cutoff).  The monomial variables x, y are invertible; the
parameters are nilpotent of the cutoff order, so all series inversions,
exponentials and logarithms terminate.  Parameter exponents are >= 0: a
term with a negative one is refused.

A ring may also carry a box, one exponent bound b_i per parameter, and
then is the quotient by the monomial ideal (p_i^(b_i + 1)) as well: a term
with some exponent over its bound is 0.  The quotient map is a ring
homomorphism that commutes with products, inverses, powers, exp and log,
so a coefficient inside the box is the same as in the ring without it.

A coefficient is stored as an exact ``int`` when it is integral and as a
``Fraction`` otherwise.  Wall functions of the tropical vertex have integer
coefficients (Gross-Pandharipande, "Quivers, curves, and the tropical
vertex"), so products in ``scatter`` stay in ``int`` arithmetic; Python's
numeric tower moves a sum or product to ``Fraction`` when an operand is one.
Every division is ``Fraction``-exact, and ``coefficient`` returns a
``Fraction``.

Each monomial is stored as one packed ``int`` key (Monagan-Pearce, "POLY: a
new polynomial data structure for Maple 17", 2012).  From the lowest bit
up, the key holds a field for the parameter degree, one field per
parameter, an x field and, above them all, y as a signed integer of any
size.  A field with bound b is b.bit_length() + 1 bits wide and stores
e + 2^(w-1) - 1 - b, so its top bit, the guard bit, is set exactly when
e > b.  The bound of the degree field is the cutoff; that of parameter i is
its box bound, or the cutoff when there is no box.  The x field is
``X_BITS`` wide and stores x + 2^(X_BITS - 2): an exponent outside
[-2^(X_BITS - 2), 2^(X_BITS - 2)) raises ``ValueError``, and its guard bit
also catches a product whose x leaves that range.  The key of a product of
two monomials is then ``k1 + k2 - bias`` (``bias`` is the key of 1), and
one test against the mask of all guard bits drops it when it leaves the
box or the cutoff.  ``terms`` unpacks the keys into a fresh dict
``{(x, y, param_exps): c}``.  The wall functions that ``scatter`` returns
keep their keys and coefficients interleaved in the bytes of one array of
machine integers instead of a dict (``_kept``), since a caller may hold
many diagrams.

There is one product loop, ``_mul_acc``: t += a * b over two lists of
packed terms, accumulated into one dict.  ``_mul_graded`` feeds it each
parameter degree d of a (``_by_degree``) against the terms of b of degree
<= cutoff - d, a prefix of b's terms sorted by degree (``_graded``);
``__mul__`` is one such product.  ``scattering`` keeps the powers h^k of
each wall function minus 1 graded, and adds every h^k * P_k of a wall
crossing into one dict, degree by degree, so that no power f^n and no
series per P_k is built.  The rounds of ``scatter`` feed ``_mul_acc``
pieces of one parameter degree each.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from typing import Iterable, Mapping, Sequence

from .errors import BadConstantTerm
from .exact import ONE, qify

# term key as read through ``terms``: (x_exp, y_exp, param_exponent_tuple)
Key = tuple[int, int, tuple[int, ...]]
Coeff = int | Fraction

X_BITS = 24                    # width of the x field, its guard bit included
_X_OFF = 1 << (X_BITS - 2)     # x is stored as x + _X_OFF
_X_MASK = (1 << X_BITS) - 1
_X_RANGE = f"the packed x field [-2^{X_BITS - 2}, 2^{X_BITS - 2})"


class _Ring:
    """The ring of a series and the layout of its packed keys."""

    __slots__ = ("params", "cutoff", "box", "pfields", "dmask", "doff",
                 "xshift", "yshift", "bias", "guard", "xguard")

    def __init__(self, params: tuple[str, ...], cutoff: int, box: tuple[int, ...] | None):
        self.params, self.cutoff, self.box = params, cutoff, box
        bounds = [cutoff] + ([cutoff] * len(params) if box is None
                             else [min(b, cutoff) for b in box])
        fields, shift, bias, guard = [], 0, 0, 0
        for b in bounds:
            w = b.bit_length() + 1
            off = (1 << (w - 1)) - 1 - b
            fields.append((shift, (1 << w) - 1, off, b))
            bias += off << shift
            guard |= 1 << (shift + w - 1)
            shift += w
        (_s, self.dmask, self.doff, _b), self.pfields = fields[0], tuple(fields[1:])
        self.xshift, self.yshift = shift, shift + X_BITS
        self.xguard = 1 << (shift + X_BITS - 1)
        self.bias = bias + (_X_OFF << shift)
        self.guard = guard | self.xguard

    def pack(self, x: int, y: int, p: Sequence[int]) -> int | None:
        """The key of x^x y^y prod params^p, or None when the monomial is 0
        in the ring (past the cutoff or the box).  p must be >= 0."""
        deg = sum(p)
        if deg > self.cutoff or any(e > b for e, (_s, _m, _o, b) in zip(p, self.pfields)):
            return None
        if not -_X_OFF <= x < _X_OFF:
            raise ValueError(f"x exponent {x} leaves {_X_RANGE}")
        k = (y << self.yshift) + ((x + _X_OFF) << self.xshift) + deg + self.doff
        for e, (s, _m, off, _b) in zip(p, self.pfields):
            k += (e + off) << s
        return k

    def unpack(self, k: int) -> Key:
        return (*self.xy(k), tuple(((k >> s) & m) - off for s, m, off, _b in self.pfields))

    def xy(self, k: int) -> tuple[int, int]:
        return ((k >> self.xshift) & _X_MASK) - _X_OFF, k >> self.yshift


@lru_cache(maxsize=256)
def _ring(params: tuple[str, ...], cutoff: int, box: tuple[int, ...] | None) -> _Ring:
    return _Ring(params, cutoff, box)


class TruncatedSeries:
    """A truncated series; ``terms`` maps ``(x_exp, y_exp, param_exps)`` to a
    nonzero coefficient, an ``int`` when integral and else a ``Fraction``.
    ``box`` is None or one exponent bound per parameter."""

    __slots__ = ("_ring", "_t")

    def __init__(self, params: Sequence[str], cutoff: int,
                 terms: Mapping[Key, Coeff] | None = None,
                 box: Sequence[int] | None = None):
        params = tuple(params)
        if box is not None:
            box = tuple(int(b) for b in box)
            if len(box) != len(params) or min(box, default=0) < 0:
                raise ValueError(f"box {box} is not one bound >= 0 per parameter "
                                 f"of {params}")
        if int(cutoff) < 0:
            raise ValueError(f"cutoff {cutoff} is negative")
        self._ring = ring = _ring(params, int(cutoff), box)
        t: dict[int, Coeff] = {}
        for k, c in (terms or {}).items():
            xe, ye, p = k
            if min(p, default=0) < 0:
                raise ValueError(f"term {k} has a negative parameter exponent")
            if len(p) != len(params):
                raise ValueError(f"term {k} has not one exponent per parameter of {params}")
            key = ring.pack(xe, ye, p)
            if key is not None:
                t[key] = c
        self._t = _canonical(t)

    # -- the ring
    params = property(lambda self: self._ring.params)
    cutoff = property(lambda self: self._ring.cutoff)
    box = property(lambda self: self._ring.box)

    @property
    def terms(self) -> dict[Key, Coeff]:
        """A fresh dict ``{(x_exp, y_exp, param_exps): c}`` of the terms."""
        unpack = self._ring.unpack
        return {unpack(k): c for k, c in self._dict().items()}

    def _wrap(self, t) -> "TruncatedSeries":
        """A series of the same ring whose packed terms are t, taken as they
        are: every key inside the ring, every coefficient nonzero and
        canonical.  t is a dict, or the flat keys and coefficients of
        _kept."""
        out = TruncatedSeries.__new__(TruncatedSeries)
        out._ring, out._t = self._ring, t
        return out

    def _dict(self) -> dict[int, Coeff]:
        """The packed terms as a dict (built afresh from a _kept series)."""
        t = self._t
        if type(t) is dict:
            return t
        if type(t) is bytes:
            t = memoryview(t).cast("q")
        return dict(zip(t[0::2], t[1::2]))

    def _kept(self) -> "TruncatedSeries":
        """The same series stored compactly, for a result that callers keep:
        its keys and coefficients interleaved in the bytes of one array of
        machine integers, 16 bytes a term in one block where a dict and its
        int keys take 60 to 80, or in one flat tuple when a key or a
        coefficient is not an int of 64 bits.  An operation that reads it
        builds the dict again."""
        flat = [v for kc in self._dict().items() for v in kc]
        try:
            return self._wrap(array("q", flat).tobytes())
        except (OverflowError, TypeError):
            return self._wrap(tuple(flat))

    def _like(self, t: dict[int, Coeff]) -> "TruncatedSeries":
        """A series of the same ring with the packed terms t, whose
        coefficients are ints and Fractions, some maybe 0 or integral."""
        return self._wrap({k: c if type(c) is int else _int_or_fraction(c)
                           for k, c in t.items() if c})

    def _const(self, c) -> "TruncatedSeries":
        return self._wrap(_canonical({self._ring.bias: c}))

    # -- constructors
    @classmethod
    def const(cls, params, cutoff, c, box=None) -> "TruncatedSeries":
        return cls(params, cutoff, {(0, 0, (0,) * len(params)): c}, box)

    @classmethod
    def monomial(cls, params, cutoff, xe=0, ye=0, pexp: Mapping[str, int] | None = None,
                 coeff=1, box=None) -> "TruncatedSeries":
        return cls(params, cutoff, {(xe, ye, _exponents(params, pexp or {})): coeff}, box)

    # -- queries
    def is_zero(self) -> bool:
        return not self._dict()

    def param_degree_zero_part(self) -> dict[tuple[int, int], Coeff]:
        r = self._ring
        return {r.xy(k): c for k, c in self._dict().items() if (k & r.dmask) == r.doff}

    def coefficient(self, xe: int, ye: int, pexp: Mapping[str, int]) -> Fraction:
        p = _exponents(self.params, pexp)
        if min(p, default=0) < 0 or not -_X_OFF <= xe < _X_OFF:
            return Fraction(0)
        return Fraction(self._dict().get(self._ring.pack(xe, ye, p), 0))

    def _compatible(self, other: "TruncatedSeries") -> None:
        r, o = self._ring, other._ring
        if r is not o and (r.params, r.cutoff, r.box) != (o.params, o.cutoff, o.box):
            raise ValueError("series from different rings")

    # -- ring operations
    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self._const(other)
        self._compatible(other)
        return self._like(_summed(self._dict(), other._dict()))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self._const(other)
        return self + (-other)

    def scale(self, s) -> "TruncatedSeries":
        if type(s) is not int:
            s = qify(s)
        return self._like({k: c * s for k, c in self._dict().items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._compatible(other)
        r, t = self._ring, {}
        _mul_graded(t, _by_degree(self._dict(), r), _graded(_by_degree(other._dict(), r)), r)
        return self._like(t)

    __rmul__ = __mul__

    def shift(self, dx: int, dy: int) -> "TruncatedSeries":
        """Multiply by the monomial x**dx * y**dy."""
        return self * self._wrap({self._ring.pack(dx, dy, (0,) * len(self.params)): 1})

    def inverse(self) -> "TruncatedSeries":
        """Invert a unit of the form c * x^a y^b * (1 + nilpotent)."""
        units = list(self.param_degree_zero_part().items())
        if len(units) != 1:
            raise BadConstantTerm("not a unit: parameter-degree-0 part is not a monomial")
        (xa, ya), c = units[0]
        lead_inv = self._like({self._ring.pack(-xa, -ya, (0,) * len(self.params)): ONE / c})
        g = (self * lead_inv) - 1  # nilpotent
        return g._power_sum(1, lambda n: (-1) ** n) * lead_inv

    def power(self, e: int) -> "TruncatedSeries":
        if e < 0:
            return self.inverse().power(-e)
        out = None
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return self._const(1) if out is None else out

    def exp(self) -> "TruncatedSeries":
        if self.param_degree_zero_part():
            raise BadConstantTerm("exp requires an element == 0 mod parameters")
        return self._power_sum(1, lambda n: Fraction(1, factorial(n)))

    def log(self) -> "TruncatedSeries":
        if self.param_degree_zero_part() != {(0, 0): ONE}:
            raise BadConstantTerm("log requires an element == 1 mod parameters")
        return (self - 1)._power_sum(0, lambda n: Fraction((-1) ** (n + 1), n))

    def _power_sum(self, a0, a) -> "TruncatedSeries":
        """a0 + sum_{n >= 1} a(n) * self^n, stopping once self^n is 0.

        self must be nilpotent (0 mod parameters), so the sum is finite.
        """
        out = self._const(a0)
        gp = self._const(1)
        for n in range(1, self.cutoff + 1):
            gp = gp * self
            if gp.is_zero():
                break
            out = out + gp.scale(a(n))
        return out

    # -- identity / display
    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return False
        r, o = self._ring, other._ring
        return (r is o or (r.params, r.cutoff, r.box) == (o.params, o.cutoff, o.box)) \
            and self._dict() == other._dict()

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for (xe, ye, p), c in self.sorted_terms():
            mono = []
            for name, e in zip(self.params, p):
                if e:
                    mono.append(f"{name}^{e}" if e > 1 else name)
            for name, e in (("x", xe), ("y", ye)):
                if e:
                    mono.append(f"{name}^{e}" if e not in (1,) else name)
            m = "*".join(mono)
            bits.append(f"{c}" + (f"*{m}" if m else ""))
        return " + ".join(bits)


def _by_degree(t: dict[int, Coeff], r: _Ring) -> list[list[tuple[int, Coeff]]]:
    """t's packed terms in one list per parameter degree 0..cutoff."""
    dmask, doff = r.dmask, r.doff
    out: list[list] = [[] for _ in range(r.cutoff + 1)]
    for kc in t.items():
        out[(kc[0] & dmask) - doff].append(kc)
    return out


def _graded(by_degree: list[list]) -> tuple[list[tuple[int, Coeff]], list[int]]:
    """The terms of _by_degree in one list sorted by degree, and ends[d],
    the number of them of degree <= d."""
    return [kc for kcs in by_degree for kc in kcs], list(accumulate(map(len, by_degree)))


def _mul_graded(t: dict[int, Coeff], left: list[list], right: tuple, r: _Ring) -> None:
    """t += left * right, left split by degree (``_by_degree``) and right
    ``_graded``: the terms of left of degree d meet only the first
    ends[cutoff - d] terms of right, those of degree <= cutoff - d."""
    terms, ends = right
    for d, kcs in enumerate(left):
        if kcs:
            _mul_acc(t, kcs, terms[:ends[r.cutoff - d]], r)


def _mul_acc(t: dict[int, Coeff], left: Iterable[tuple[int, Coeff]],
             right: Iterable[tuple[int, Coeff]], r: _Ring) -> None:
    """t += left * right, for packed (key, coefficient) pairs of the ring r:
    the one product loop.  The key of a product of two monomials is
    k1 + k2 - bias; one past a box bound or the cutoff has a guard bit set
    and is dropped, and one whose x leaves its field raises ``ValueError``.
    right is read once per term of left.  Sums may leave zeros in t."""
    bias, guard, xguard = r.bias, r.guard, r.xguard
    get = t.get
    for k1, c1 in left:
        k1 -= bias
        for k2, c2 in right:
            k = k1 + k2
            if k & guard:
                if k & xguard:
                    raise ValueError(f"a product's x exponent leaves {_X_RANGE}")
                continue
            t[k] = get(k, 0) + c1 * c2


def _summed(t: dict[int, Coeff], u: dict[int, Coeff], c: Coeff = 1) -> dict[int, Coeff]:
    """t + c * u, as a new dict that may hold zeros."""
    t = dict(t)
    get = t.get
    for k, v in u.items():
        t[k] = get(k, 0) + c * v
    return t


def _canonical(t: Mapping[int, object]) -> dict[int, Coeff]:
    """The nonzero terms of t, each coefficient (any exact rational) made an
    ``int`` when integral and else a ``Fraction``."""
    out: dict[int, Coeff] = {}
    for k, c in t.items():
        if type(c) is not int:
            c = _int_or_fraction(c)
        if c:
            out[k] = c
    return out


def _int_or_fraction(c) -> Coeff:
    c = qify(c)
    return c.numerator if c.denominator == 1 else c


def _exponents(params: Sequence[str], pexp: Mapping[str, int]) -> tuple[int, ...]:
    """The exponent tuple of the parameter monomial pexp, in params order."""
    for p in pexp:
        if p not in params:
            raise ValueError(f"unknown parameter {p!r}; "
                             f"the series has {', '.join(params) or 'none'}")
    return tuple(pexp.get(p, 0) for p in params)
