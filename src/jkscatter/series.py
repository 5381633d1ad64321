"""Truncated multi-parameter Laurent series for the tropical vertex.

Elements live in Q[x^{±1}, y^{±1}][s_1..s_{l1}, t_1..t_{l2}] / (parameter
total degree > cutoff).  The monomial variables x, y are invertible; the
parameters are nilpotent of the cutoff order, so all series inversions,
exponentials and logarithms terminate.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from .errors import BadConstantTerm
from .exact import ONE, ZERO, qify

# term key: (x_exp, y_exp, param_exponent_tuple)
Key = tuple[int, int, tuple[int, ...]]


class TruncatedSeries:
    __slots__ = ("params", "cutoff", "terms")

    def __init__(self, params: Sequence[str], cutoff: int,
                 terms: Mapping[Key, Fraction] | None = None):
        self.params = tuple(params)
        self.cutoff = int(cutoff)
        t: dict[Key, Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = qify(c)
                if c != 0 and sum(k[2]) <= self.cutoff:
                    t[k] = c
        self.terms = t

    # -- constructors
    @classmethod
    def const(cls, params, cutoff, c) -> "TruncatedSeries":
        return cls(params, cutoff, {(0, 0, (0,) * len(params)): qify(c)})

    @classmethod
    def monomial(cls, params, cutoff, xe=0, ye=0, pexp: Mapping[str, int] | None = None,
                 coeff=1) -> "TruncatedSeries":
        pv = [0] * len(params)
        if pexp:
            idx = {p: i for i, p in enumerate(params)}
            for p, e in pexp.items():
                pv[idx[p]] = e
        return cls(params, cutoff, {(xe, ye, tuple(pv)): qify(coeff)})

    # -- queries
    def is_zero(self) -> bool:
        return not self.terms

    def param_degree_zero_part(self) -> dict[tuple[int, int], Fraction]:
        z = (0,) * len(self.params)
        return {(xe, ye): c for (xe, ye, p), c in self.terms.items() if p == z}

    def coefficient(self, xe: int, ye: int, pexp: Mapping[str, int]) -> Fraction:
        pv = [0] * len(self.params)
        idx = {p: i for i, p in enumerate(self.params)}
        for p, e in pexp.items():
            pv[idx[p]] = e
        return self.terms.get((xe, ye, tuple(pv)), ZERO)

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
            t[k] = t.get(k, ZERO) + c
        return TruncatedSeries(self.params, self.cutoff, t)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(self.params, self.cutoff, other)
        return self + (-other)

    def scale(self, s) -> "TruncatedSeries":
        s = qify(s)
        return TruncatedSeries(self.params, self.cutoff,
                               {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._compatible(other)
        t: dict[Key, Fraction] = {}
        cut = self.cutoff
        for (x1, y1, p1), c1 in self.terms.items():
            d1 = sum(p1)
            for (x2, y2, p2), c2 in other.terms.items():
                if d1 + sum(p2) > cut:
                    continue
                k = (x1 + x2, y1 + y2, tuple(a + b for a, b in zip(p1, p2)))
                t[k] = t.get(k, ZERO) + c1 * c2
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


def series_exp_log(g: TruncatedSeries, direction: str) -> TruncatedSeries:
    """Truncated exponential ('exp') or logarithm ('log')."""
    if direction == "exp":
        return g.exp()
    if direction == "log":
        return g.log()
    raise ValueError(f"unknown direction {direction!r}")
