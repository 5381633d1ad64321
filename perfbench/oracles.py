"""Independent references the benchmark checks jkscatter's answers against.

Nothing here calls the code being measured to compute an expected value:
the scattering references are closed forms from Gross-Pandharipande-
Siebert, "The tropical vertex" (Duke Math. J. 2010), and the tree count is
Kirchhoff's matrix-tree theorem, evaluated with the benchmark's own exact
determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def k11_log_coefficient(k: int) -> Fraction:
    """c_(k,k) of K(1,1): log(1 + s t x y) = sum (-1)^(k-1) (s t x y)^k / k, over k."""
    return Fraction((-1) ** (k - 1), k * k)


def k22_central_specialized(cutoff: int) -> dict[tuple[int, int, int], Fraction]:
    """f_(1,1) of K(2,2) with every parameter set to u: (1 - u^2 x y)^-4.

    Keys are (x exponent, y exponent, u degree), truncated at u degree
    ``cutoff``; the coefficient of (u^2 x y)^k is C(k+3, 3).
    """
    return {(k, k, 2 * k): Fraction(comb(k + 3, 3)) for k in range(cutoff // 2 + 1)}


def specialize(terms: dict) -> dict[tuple[int, int, int], Fraction]:
    """Set every parameter of a truncated series to one variable u."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for (xe, ye, p), c in terms.items():
        key = (xe, ye, sum(p))
        out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c != 0}


def pentagon_rays() -> dict[tuple[int, int], dict]:
    """K(1,1), any cutoff >= 2: the only ray is (1,1), with 1 + s1 t1 x y."""
    return {(1, 1): {(0, 0, (0, 0)): Fraction(1), (1, 1, (1, 1)): Fraction(1)}}


def k21_rays() -> dict[tuple[int, int], dict]:
    """K(2,1), any cutoff >= 4, parameters (s1, s2, t1): the diagram is finite,
    f_(1,1) = (1 + s1 t1 x y)(1 + s2 t1 x y) and f_(2,1) = 1 + s1 s2 t1 x^2 y."""
    one = (0, 0, (0, 0, 0))
    return {(1, 1): {one: Fraction(1), (1, 1, (1, 0, 1)): Fraction(1),
                     (1, 1, (0, 1, 1)): Fraction(1), (2, 2, (1, 1, 2)): Fraction(1)},
            (2, 1): {one: Fraction(1), (2, 1, (1, 1, 1)): Fraction(1)}}


def det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    sign, out = 1, Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sign * out


def kirchhoff_tree_count(vertices, arrows) -> int:
    """Spanning trees of the underlying undirected multigraph: any cofactor
    of its Laplacian (matrix-tree theorem)."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[0] * n for _ in range(n)]
    for t, h in arrows:
        a, b = index[t], index[h]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    if n <= 1:
        return 1
    return int(det([row[1:] for row in lap[1:]]))


def complete_bipartite_tree_count(l1: int, l2: int) -> int:
    """Spanning trees of K_{l1,l2}: l1^(l2-1) * l2^(l1-1)."""
    return l1 ** (l2 - 1) * l2 ** (l1 - 1)
