"""Truncated multi-parameter Laurent series for the tropical vertex.

Elements live in Q[x^{±1}, y^{±1}][s_1..s_{l1}, t_1..t_{l2}] / (parameter
total degree > cutoff).  The monomial variables x, y are invertible; the
parameters are nilpotent of the cutoff order, so all series inversions,
exponentials and logarithms terminate.

A coefficient is stored as an exact ``int`` when it is integral and as a
``Fraction`` otherwise.  Wall functions of the tropical vertex have integer
coefficients (Gross-Pandharipande, "Quivers, curves, and the tropical
vertex"), so products in ``scatter`` stay in ``int`` arithmetic; Python's
numeric tower moves a sum or product to ``Fraction`` when an operand is one.
Every division is ``Fraction``-exact, and ``coefficient`` returns a
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from .errors import BadConstantTerm
from .exact import ONE, qify

# term key: (x_exp, y_exp, param_exponent_tuple)
Key = tuple[int, int, tuple[int, ...]]
Coeff = int | Fraction


class TruncatedSeries:
    """A truncated series; ``terms`` maps ``(x_exp, y_exp, param_exps)`` to a
    nonzero coefficient, an ``int`` when integral and else a ``Fraction``."""

    __slots__ = ("params", "cutoff", "terms")

    def __init__(self, params: Sequence[str], cutoff: int,
                 terms: Mapping[Key, Coeff] | None = None):
        self.params = tuple(params)
        self.cutoff = int(cutoff)
        t: dict[Key, Coeff] = {}
        if terms:
            for k, c in terms.items():
                if type(c) is not int:
                    c = qify(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c and sum(k[2]) <= self.cutoff:
                    t[k] = c
        self.terms = t

    # -- constructors
    @classmethod
    def const(cls, params, cutoff, c) -> "TruncatedSeries":
        return cls(params, cutoff, {(0, 0, (0,) * len(params)): c})

    @classmethod
    def monomial(cls, params, cutoff, xe=0, ye=0, pexp: Mapping[str, int] | None = None,
                 coeff=1) -> "TruncatedSeries":
        return cls(params, cutoff, {(xe, ye, _exponents(params, pexp or {})): coeff})

    # -- queries
    def is_zero(self) -> bool:
        return not self.terms

    def param_degree_zero_part(self) -> dict[tuple[int, int], Coeff]:
        z = (0,) * len(self.params)
        return {(xe, ye): c for (xe, ye, p), c in self.terms.items() if p == z}

    def coefficient(self, xe: int, ye: int, pexp: Mapping[str, int]) -> Fraction:
        return Fraction(self.terms.get((xe, ye, _exponents(self.params, pexp)), 0))

    def _compatible(self, other: "TruncatedSeries"):
        if self.params != other.params or self.cutoff != other.cutoff:
            raise ValueError("series from different rings")

    # -- ring operations
    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(self.params, self.cutoff, other)
        self._compatible(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, 0) + c
        return TruncatedSeries(self.params, self.cutoff, t)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(self.params, self.cutoff, other)
        return self + (-other)

    def scale(self, s) -> "TruncatedSeries":
        if type(s) is not int:
            s = qify(s)
        return TruncatedSeries(self.params, self.cutoff,
                               {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._compatible(other)
        # other's terms by parameter degree: a left term of degree d1 meets
        # only the buckets of degree <= cutoff - d1
        buckets: dict[int, list] = {}
        for (x2, y2, p2), c2 in other.terms.items():
            buckets.setdefault(sum(p2), []).append((x2, y2, p2, c2))
        t: dict[Key, Coeff] = {}
        for (x1, y1, p1), c1 in self.terms.items():
            room = self.cutoff - sum(p1)
            for d2, bucket in buckets.items():
                if d2 > room:
                    continue
                for x2, y2, p2, c2 in bucket:
                    k = (x1 + x2, y1 + y2, tuple(a + b for a, b in zip(p1, p2)))
                    t[k] = t.get(k, 0) + c1 * c2
        return TruncatedSeries(self.params, self.cutoff, t)

    __rmul__ = __mul__

    def shift(self, dx: int, dy: int) -> "TruncatedSeries":
        """Multiply by the monomial x**dx * y**dy."""
        return TruncatedSeries(self.params, self.cutoff,
                               {(x + dx, y + dy, p): c for (x, y, p), c in self.terms.items()})

    def inverse(self) -> "TruncatedSeries":
        """Invert a unit of the form c * x^a y^b * (1 + nilpotent)."""
        z = (0,) * len(self.params)
        units = [(k, c) for k, c in self.terms.items() if k[2] == z]
        if len(units) != 1:
            raise BadConstantTerm("not a unit: parameter-degree-0 part is not a monomial")
        (xa, ya, _), c = units[0]
        lead_inv = TruncatedSeries(self.params, self.cutoff, {(-xa, -ya, z): ONE / c})
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
        return TruncatedSeries.const(self.params, self.cutoff, 1) if out is None else out

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
        out = TruncatedSeries.const(self.params, self.cutoff, a0)
        gp = TruncatedSeries.const(self.params, self.cutoff, 1)
        for n in range(1, self.cutoff + 1):
            gp = gp * self
            if gp.is_zero():
                break
            out = out + gp.scale(a(n))
        return out

    # -- identity / display
    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.params == other.params
                and self.cutoff == other.cutoff and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
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


def _exponents(params: Sequence[str], pexp: Mapping[str, int]) -> tuple[int, ...]:
    """The exponent tuple of the parameter monomial pexp, in params order."""
    for p in pexp:
        if p not in params:
            raise ValueError(f"unknown parameter {p!r}; "
                             f"the series has {', '.join(params) or 'none'}")
    return tuple(pexp.get(p, 0) for p in params)
