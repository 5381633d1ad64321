"""End-to-end acceptance checks.

Each test is one verifiable claim about the engine, exercised through the
public API (and the CLI where exit codes are part of the contract).  All
comparisons are exact rational equalities; the few wall-clock bounds are
generous and only guard against algorithmic regressions.
"""

import dataclasses
import io
import json
import random
import time
from fractions import Fraction as Q

import pytest

from jkscatter import cli
from jkscatter.arrangement import (build_arrangement, enumerate_flags,
                                   flag_residue, jk_global, jk_zeta,
                                   zeta_from_theta)
from jkscatter.exact import LinForm, RationalExpr, iterated_residue, mat_det
from jkscatter.quiver import (DimVector, Quiver, Stability, bipartite_quiver,
                              weist_count)
from jkscatter.quiverjk import (build_ZQ, jk_ab, jk_ab_infinity,
                                jk_global_ZQ, jk_tree_expansion)
from jkscatter.scattering import (extract_cd, init_bipartite, scatter,
                                  verify_main_theorem)
from jkscatter.series import TruncatedSeries
from reference import change_vars_linear

KRON2 = Quiver.make(["1", "2"], [("1", "2"), ("1", "2")])
A2 = Quiver.make(["1", "2"], [("1", "2")])


def dv(q, **kw):
    return DimVector.make(q, kw)


def stab(q, *vals):
    return Stability.make(q, {v: Q(x) for v, x in zip(q.vertices, vals)})


def lf(**coeffs):
    out = LinForm()
    for name, c in coeffs.items():
        out = out + LinForm.var(name) * Q(c)
    return out


def test_01_pentagon_identity():
    t0 = time.monotonic()
    d = scatter(init_bipartite(1, 1, 4))
    rays = [w for w in d.walls if w.support == "ray"]
    assert [w.direction for w in rays] == [(1, 1)]
    expected = 1 + TruncatedSeries.monomial(d.params, 4, xe=1, ye=1,
                                            pexp={"s1": 1, "t1": 1})
    assert rays[0].function == expected
    assert time.monotonic() - t0 < 1.0


def test_02_main_theorem_k21():
    t0 = time.monotonic()
    k21 = bipartite_quiver(2, 1)
    r = verify_main_theorem(2, 1, dv(k21, i1=1, i2=1, j1=1),
                            stab(k21, 1, 1, -2), 4)
    assert r.passed and r.lhs == 1 and r.rhs == 1 and r.moduli_dim == 0
    assert time.monotonic() - t0 < 5.0


def test_03_main_theorem_k11():
    k11 = bipartite_quiver(1, 1)
    d = dv(k11, i1=1, j1=1)
    r = verify_main_theorem(1, 1, d, stab(k11, 1, -1), 2)
    assert r.passed and r.lhs == 1
    assert jk_ab_infinity(k11, d, stab(k11, 1, -1)) == 1


def test_04_regularity_guard():
    out = io.StringIO()
    code = cli.main(["verify-main", "--l1", "2", "--l2", "2", "--d", "1,1;1,1",
                     "--zeta", "1,1,-1,-1", "--order", "4"], out=out)
    assert code == 3
    report = json.loads(out.getvalue())
    assert report["error"] == "NonRegularStability" and report["witness"]
    # the asymmetric stability on the same dimension vector is regular
    k22 = bipartite_quiver(2, 2)
    z = stab(k22, 3, 1, -2, -2)
    assert weist_count(k22, z) == 2
    assert jk_ab_infinity(k22, dv(k22, i1=1, i2=1, j1=1, j2=1), z) == 2


def test_05_rcharge_independence():
    d2 = dv(KRON2, **{"1": 1, "2": 1})
    th = stab(KRON2, 1, -1)
    for seed in (0, 1, 2, 3, 4, 17):
        a = build_arrangement(KRON2, d2, seed=seed)
        assert jk_global_ZQ(KRON2, th, a) == 2
    da = dv(A2, **{"1": 1, "2": 1})
    tha = stab(A2, 1, -1)
    for seed in (0, 1, 2, 3, 4):
        a = build_arrangement(A2, da, seed=seed)
        assert jk_global_ZQ(A2, tha, a) == 1


def test_06_abelianization_cancellation():
    k11 = bipartite_quiver(1, 1)
    d = dv(k11, i1=2, j1=1)
    z = stab(k11, 1, -2)
    dfact = 2  # 2! * 1!
    for lam in (Q(1), Q(7), Q(1000)):
        assert jk_ab(k11, d, z, rseed=11, lam=lam) / dfact == 0
    assert jk_ab_infinity(k11, d, z) == 0


def test_07_two_path_equivalence():
    k21 = bipartite_quiver(2, 1)
    k22 = bipartite_quiver(2, 2)
    a3 = Quiver.make(["1", "2", "3"], [("1", "2"), ("2", "3")])
    fixtures = [
        (k21, dv(k21, i1=1, i2=1, j1=1), stab(k21, 1, 1, -2), 5),
        (k22, dv(k22, i1=1, i2=1, j1=1, j2=1), stab(k22, 3, 1, -2, -2), 1),
        (KRON2, dv(KRON2, **{"1": 1, "2": 1}), stab(KRON2, 1, -1), 0),
        (a3, dv(a3, **{"1": 1, "2": 1, "3": 1}), stab(a3, 2, -1, -1), 0),
    ]
    for q, d, th, seed in fixtures:
        a = build_arrangement(q, d, seed=seed)
        tree_value, _ = jk_tree_expansion(q, th, a)
        assert tree_value == jk_global_ZQ(q, th, a), q.vertices


def test_08_residue_property_suite():
    t0 = time.monotonic()
    rng = random.Random(20240817)

    # change-of-variables invariance under 100 random diagonal maps
    f = RationalExpr(1, ((lf(u=1), -1), (lf(w=1), -1), (lf(u=1, w=1), -1),
                         (lf(u=2, w=1), -1)))
    reference = iterated_residue(
        change_vars_linear(f, [lf(u=1), lf(w=1)], var_order=["u", "w"]),
        ["x1", "x2"])
    for _ in range(100):
        a = Q(rng.randrange(1, 50), rng.randrange(1, 50))
        b = Q(rng.randrange(1, 50), rng.randrange(1, 50))
        g = change_vars_linear(f, [lf(u=a), lf(w=b)], var_order=["u", "w"])
        assert iterated_residue(g, ["x1", "x2"]) == reference

    # orientation invariance: negating the reference measure
    active = (lf(u=1), lf(w=1), lf(u=1, w=1))
    germ = RationalExpr(1, tuple((x, -1) for x in active))
    zeta = (Q(2), Q(1))
    assert jk_zeta(germ, active, zeta, ("u", "w"), var_order=("u", "w")) == \
        jk_zeta(germ, active, zeta, ("w", "u"), var_order=("u", "w"))

    # flag-basis freedom: rescaling the adapted basis (preserving the
    # determinant normalization) leaves every flag residue unchanged
    for flag in enumerate_flags(active, zeta, ("u", "w"), var_order=("u", "w")):
        if flag.nu == 0:
            continue
        base = flag_residue(germ, flag, ("u", "w"))
        for c in (Q(2), Q(1, 3), Q(7, 5)):
            gamma = (flag.gamma[0] * c, flag.gamma[1] * (1 / c))
            rescaled = dataclasses.replace(flag, gamma=gamma)
            assert flag_residue(germ, rescaled, ("u", "w")) == base

    # chamber constancy on 20 random two-dimensional arrangements
    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]

    built = 0
    while built < 20:
        forms = []
        for _ in range(rng.randrange(2, 5)):
            forms.append(lf(u=rng.randrange(1, 4), w=rng.randrange(-3, 4)))
        vecs = [(f0.coeff("u"), f0.coeff("w")) for f0 in forms]
        if any(v == (0, 0) for v in vecs):
            continue
        sums = set()
        for mask in range(1, 1 << len(vecs)):
            s = [sum(v[i] for j, v in enumerate(vecs) if mask >> j & 1)
                 for i in range(2)]
            if tuple(s) != (0, 0):
                sums.add(tuple(s))

        def pattern(z):
            return tuple(1 if cross(s, z) > 0 else -1 if cross(s, z) < 0 else 0
                         for s in sorted(sums))

        z1 = (Q(rng.randrange(-9, 10)), Q(rng.randrange(-9, 10)))
        if 0 in pattern(z1):
            continue
        z2 = None
        for _ in range(200):
            cand = (z1[0] + Q(rng.randrange(-20, 21), 100),
                    z1[1] + Q(rng.randrange(-20, 21), 100))
            if cand != z1 and pattern(cand) == pattern(z1):
                z2 = cand
                break
        if z2 is None:
            continue
        g0 = RationalExpr(1, tuple((f0, -1) for f0 in forms))
        v1 = jk_zeta(g0, forms, z1, ("u", "w"), var_order=("u", "w"))
        v2 = jk_zeta(g0, forms, z2, ("u", "w"), var_order=("u", "w"))
        assert v1 == v2, (forms, z1, z2)
        built += 1

    assert time.monotonic() - t0 < 30.0


def test_09_large_r_convergence():
    k21 = bipartite_quiver(2, 1)
    d = dv(k21, i1=1, i2=1, j1=1)
    z = stab(k21, 1, 1, -2)
    limit = jk_ab_infinity(k21, d, z)
    diffs = [abs(jk_ab(k21, d, z, rseed=6, lam=Q(10) ** e) - limit)
             for e in (2, 4, 6)]
    for prev, cur in zip(diffs, diffs[1:]):
        assert cur == 0 or cur < prev
    assert diffs[-1] < Q(1, 1000)


def test_10_scattering_regression_22():
    d = scatter(init_bipartite(2, 2, 4))
    central = next(w for w in d.walls
                   if w.support == "ray" and w.direction == (1, 1))
    # frozen from the consistency oracle (loop product == identity at k=4),
    # specialized s_i = t_j = u
    specialized = {}
    for (xe, ye, p), c in central.function.sorted_terms():
        key = (xe, ye, sum(p))
        specialized[key] = specialized.get(key, Q(0)) + c
    assert specialized == {(0, 0, 0): Q(1), (1, 1, 2): Q(4), (2, 2, 4): Q(10)}
    # rerun from scratch is byte-identical
    d2 = scatter(init_bipartite(2, 2, 4))
    central2 = next(w for w in d2.walls
                    if w.support == "ray" and w.direction == (1, 1))
    assert repr(central.function) == repr(central2.function)
    out1, out2 = io.StringIO(), io.StringIO()
    argv = ["scatter", "--l1", "2", "--l2", "2", "--order", "4", "--ray", "1,1"]
    assert cli.main(argv, out=out1) == cli.main(argv, out=out2) == 0
    assert out1.getvalue() == out2.getvalue()
