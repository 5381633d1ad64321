"""The benchmark's four workloads.

Each workload is a fixed list of jobs.  The bench seed picks the R-charge
seeds and the order of the jobs; nothing else about a job depends on it.
Every job's result is checked against an oracle that does not come from
the code being measured (see oracles.py), or against an exact value that
must not depend on the seed.

Jobs call jkscatter through module attributes (``jk.scatter``,
``cli.main``) at call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable

import jkscatter as jk
from jkscatter import cli

import oracles

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]            # gets earlier results of the pass by name
    check: Callable[[object], str | None]    # None when the result is right
    audit: Callable[[object], str | None] | None = None  # costly: first pass only
    fingerprint: Callable[[object], str] | None = None   # must never change


def _dim(q, values):
    return jk.DimVector.make(q, dict(zip(q.vertices, values)))


def _stab(q, values):
    return jk.Stability.make(q, {v: Q(x) for v, x in zip(q.vertices, values)})


def _expect(want):
    def check(got):
        return None if got == want else f"got {got}, expected {want}"
    return check


def _shuffled(groups: list[list[Job]], rng: random.Random) -> list[Job]:
    rng.shuffle(groups)
    return [job for group in groups for job in group]


# ---------------------------------------------------------------------------
# tropical: the series and scattering layers
# ---------------------------------------------------------------------------

def _check_diagram(rays=None, central_k22=False):
    """Loop-product triviality, plus the closed-form rays where GPS gives them."""
    def check(d):
        x, y = jk.loop_product(d)
        if (x != jk.TruncatedSeries.monomial(d.params, d.cutoff, xe=1)
                or y != jk.TruncatedSeries.monomial(d.params, d.cutoff, ye=1)):
            return "loop product is not the identity"
        got = {w.direction: w.function.terms for w in d.walls if w.support == "ray"}
        if rays is not None and got != rays:
            return f"rays {sorted(got)} differ from the closed form"
        if central_k22:
            want = oracles.k22_central_specialized(d.cutoff)
            if oracles.specialize(got.get((1, 1), {})) != want:
                return "central ray differs from (1 - u^2 x y)^-4"
        return None
    return check


def _scatter_job(l1, l2, cutoff, check):
    return Job(f"scatter K({l1},{l2}) N={cutoff}",
               lambda ctx: jk.scatter(jk.init_bipartite(l1, l2, cutoff)), check)


def tropical(seed: int) -> list[Job]:
    rng = random.Random(seed)
    k11, k21, k31 = (jk.bipartite_quiver(a, b) for a, b in ((1, 1), (2, 1), (3, 1)))
    k11_dims = [_dim(k11, (k, k)) for k in range(1, 5)]
    groups = [
        [_scatter_job(1, 1, 8, _check_diagram(rays=oracles.pentagon_rays())),
         Job("extract_cd K(1,1) d=(k;k) k=1..4",
             lambda ctx: [jk.extract_cd(ctx["scatter K(1,1) N=8"], d) for d in k11_dims],
             _expect([oracles.k11_log_coefficient(k) for k in range(1, 5)]))],
        [_scatter_job(2, 1, 5, _check_diagram(rays=oracles.k21_rays())),
         # f_(2,1) = 1 + s1 s2 t1 x^2 y, so c_(1,1;1) = 1
         Job("extract_cd K(2,1) d=(1,1;1)",
             lambda ctx: jk.extract_cd(ctx["scatter K(2,1) N=5"], _dim(k21, (1, 1, 1))),
             _expect(Q(1)))],
        [_scatter_job(2, 2, 5, _check_diagram(central_k22=True))],
        [_scatter_job(3, 2, 4, _check_diagram())],
    ]
    # verify_main_theorem: passed is the oracle; K(2,1) has no (3,2) ray, so c_d = 0
    for q, l1, d, z, lhs in ((k31, 3, (1, 1, 1, 2), (2, 2, 2, -3), Q(1)),
                             (k21, 2, (2, 1, 2), (2, 2, -3), Q(0))):
        dim, zeta = _dim(q, d), _stab(q, z)
        groups.append([Job(
            f"verify_main_theorem K({l1},1) d={d}",
            lambda ctx, l1=l1, dim=dim, zeta=zeta: jk.verify_main_theorem(l1, 1, dim, zeta, 5),
            lambda r, lhs=lhs: None if r.passed and r.lhs == lhs else f"{r}")])
    return _shuffled(groups, rng)


# ---------------------------------------------------------------------------
# jk-finite: arrangements, regularity and residues at finite R-charges
# ---------------------------------------------------------------------------

def jk_finite(seed: int) -> list[Job]:
    rng = random.Random(seed)
    k11, k21, k22, k31 = (jk.bipartite_quiver(a, b)
                          for a, b in ((1, 1), (2, 1), (2, 2), (3, 1)))
    kron2 = jk.Quiver.make(["1", "2"], [("1", "2"), ("1", "2")])
    a2 = jk.Quiver.make(["1", "2"], [("1", "2")])
    a3 = jk.Quiver.make(["1", "2", "3"], [("1", "2"), ("2", "3")])
    groups = []
    # abelianized JK; the value may not depend on the R-charge seed.  K(2,1)
    # d=(2,1;2) and K(1,1) d=(2;3) have no ray in their (finite) diagrams.
    for q, name, d, z, want in ((k31, "K(3,1)", (1, 1, 1, 2), (2, 2, 2, -3), Q(2)),
                                (k21, "K(2,1)", (2, 1, 2), (2, 2, -3), Q(0)),
                                (k11, "K(1,1)", (2, 3), (3, -2), Q(0))):
        dim, zeta = _dim(q, d), _stab(q, z)
        for lam in (Q(1), Q(1000)):
            rseed = rng.randrange(2 ** 31)
            groups.append([Job(
                f"jk_ab {name} d={d} lambda={lam}",
                lambda ctx, q=q, dim=dim, zeta=zeta, rseed=rseed, lam=lam:
                    jk.jk_ab(q, dim, zeta, rseed, lam),
                _expect(want))])
    # the two JK routes must agree with each other and with the stable-tree
    # count, on three R-charge seeds each
    for q, name, d, z, want in ((k21, "K(2,1)", (1, 1, 1), (1, 1, -2), Q(1)),
                                (k22, "K(2,2)", (1, 1, 1, 1), (3, 1, -2, -2), Q(2)),
                                (kron2, "KRON2", (1, 1), (1, -1), Q(2)),
                                (a3, "A3", (1, 1, 1), (2, -1, -1), Q(1))):
        dim, theta = _dim(q, d), _stab(q, z)
        rseeds = [rng.randrange(2 ** 31) for _ in range(3)]

        def both_routes(ctx, q=q, dim=dim, theta=theta, rseeds=rseeds):
            out = []
            for s in rseeds:
                a = jk.build_arrangement(q, dim, seed=s)
                out.append((jk.jk_tree_expansion(q, theta, a)[0], jk.jk_global_ZQ(q, theta, a)))
            return out
        groups.append([Job(f"two JK routes {name}", both_routes,
                           _expect([(want, want)] * 3))])
    # R-charge independence: three seeds, one value
    for q, name, want in ((kron2, "KRON2", Q(2)), (a2, "A2", Q(1))):
        dim, theta = _dim(q, (1, 1)), _stab(q, (1, -1))
        rseeds = [rng.randrange(2 ** 31) for _ in range(3)]
        groups.append([Job(
            f"R-charge independence {name}",
            lambda ctx, q=q, dim=dim, theta=theta, rseeds=rseeds:
                [jk.jk_global_ZQ(q, theta, jk.build_arrangement(q, dim, seed=s))
                 for s in rseeds],
            _expect([want] * 3))])
    return _shuffled(groups, rng)


# ---------------------------------------------------------------------------
# trees: stable spanning trees in the large-R limit
# ---------------------------------------------------------------------------

def _kirchhoff_audit(q, dim, zeta):
    """Every blown-up quiver's tree list has the matrix-tree theorem's length."""
    def audit(_result):
        for term in jk.abelianize(q, dim, zeta):
            qbar, _mult = jk.reduced_quiver(term.quiver)
            want = oracles.kirchhoff_tree_count(qbar.vertices, qbar.arrows)
            got = len(jk.spanning_trees(qbar))
            if got != want:
                return f"{got} spanning trees of {term.multiplicities}, Kirchhoff says {want}"
        return None
    return audit


def trees(seed: int) -> list[Job]:
    rng = random.Random(seed)
    k11, k22, k31 = (jk.bipartite_quiver(a, b) for a, b in ((1, 1), (2, 2), (3, 1)))
    # K(1,1) has only the (1,1) ray (pentagon), so off-diagonal d give 0
    cases = ((k11, "K(1,1)", (5, 3), (3, -5), Q(0)),
             (k11, "K(1,1)", (4, 3), (3, -4), Q(0)),
             (k11, "K(1,1)", (3, 4), (4, -3), Q(0)),
             (k22, "K(2,2)", (2, 2, 1, 2), (3, 3, -4, -4), Q(8)),
             (k22, "K(2,2)", (1, 1, 1, 1), (3, 1, -2, -2), Q(2)),
             (k31, "K(3,1)", (1, 1, 1, 2), (2, 2, 2, -3), Q(2)))
    groups = []
    for q, name, d, z, want in cases:
        dim, zeta = _dim(q, d), _stab(q, z)
        groups.append([Job(
            f"jk_ab_infinity {name} d={d}",
            lambda ctx, q=q, dim=dim, zeta=zeta: jk.jk_ab_infinity(q, dim, zeta),
            _expect(want), audit=_kirchhoff_audit(q, dim, zeta))])
    return _shuffled(groups, rng)


# ---------------------------------------------------------------------------
# cli-mix: in-process CLI requests, mostly small, error paths included
# ---------------------------------------------------------------------------

def _report_check(want_exit: int, check=None):
    def run_check(result):
        code, text = result
        if code != want_exit:
            return f"exit {code}, expected {want_exit}"
        if check is None:
            return None
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            report = text  # --csv
        return check(report)
    return run_check


def _rat(x) -> str:
    x = Q(x)
    return f"{x.numerator}/{x.denominator}"


def _value(want, both_routes=False):
    def check(report):
        res = report["results"]
        if res["value"] != _rat(want):
            return f"value {res['value']}, expected {want}"
        if both_routes and res["tree_expansion"]["value"] != res["value"]:
            return "tree route and global route disagree"
        return None
    return check


def _tree_list(n_trees, weist):
    def check(report):
        res = report["results"]
        if len(res["trees"]) != n_trees or res["weist_count"] != _rat(weist):
            return f"{len(res['trees'])} trees, weist {res['weist_count']}"
        return None
    return check


def _ray_dirs(*dirs):
    def check(report):
        got = sorted(tuple(w["direction"]) for w in report["results"]["walls"]
                     if w["support"] == "ray")
        return None if got == sorted(dirs) else f"rays {got}"
    return check


def _central_k22_order3(report):
    (wall,) = report["results"]["walls"]
    # specialized (1 - u^2 x y)^-4: four terms s_i t_j x y of coefficient 1
    return None if wall["function"].count("*x*y") == 4 else wall["function"]


def _csv_header(header):
    return lambda text: None if text.startswith(header + "\n") else text[:80]


def _c_d(want):
    return lambda r: None if r["results"]["c_d"] == _rat(want) else r["results"]["c_d"]


def _passed(r):
    res = r["results"]
    return None if res["passed"] and res["lhs"] == res["rhs"] else f"{res}"


def _nonregular(r):
    return None if r.get("error") == "NonRegularStability" and r.get("witness") else f"{r}"


def _input_error(r):
    return None if "error" in r else f"{r}"


def _bip(cmd, l1, l2, d, zeta=None, *extra):
    argv = [cmd, "--l1", str(l1), "--l2", str(l2), "--d", d]
    if zeta is not None:
        argv += ["--zeta", zeta]
    return argv + list(extra)


def _rc(seed):
    return ["--rcharges", f"seed:{seed}"]


def _requests():
    """(copies per pass, argv from an R-charge seed, expected exit code, check)."""
    f = str(FIXTURES)
    k_tree = oracles.complete_bipartite_tree_count
    return [
        # trees: every spanning tree of K_{l1,l2} is listed; A3 is a path
        (3, lambda s: _bip("trees", 2, 1, "1,1;1", "1,1,-2"), 0, _tree_list(k_tree(2, 1), 1)),
        (3, lambda s: _bip("trees", 2, 2, "1,1;1,1", "3,1,-2,-2"), 0,
         _tree_list(k_tree(2, 2), 2)),
        (3, lambda s: _bip("trees", 3, 1, "1,1,1;1", "1,1,1,-3"), 0,
         _tree_list(k_tree(3, 1), 1)),
        (4, lambda s: ["trees", "--quiver", f"{f}/a3.json"], 0, _tree_list(1, 1)),
        (2, lambda s: _bip("trees", 2, 2, "1,1;1,1", "3,1,-2,-2", "--csv"), 0,
         _csv_header("tree,arrows,components,stable,multiplicity")),
        # jk: abelian values are R-independent and both routes must agree
        (7, lambda s: _bip("jk", 1, 1, "1;1", "1,-1", *_rc(s)), 0,
         _value(1, both_routes=True)),
        (5, lambda s: _bip("jk", 2, 1, "1,1;1", "1,1,-2", *_rc(s)), 0,
         _value(1, both_routes=True)),
        (4, lambda s: _bip("jk", 2, 1, "1,1;1", "1,1,-2", *_rc(s),
                           "--lambda", "100"), 0, _value(1, both_routes=True)),
        (6, lambda s: ["jk", "--quiver", f"{f}/kron2.json", *_rc(s)], 0,
         _value(2, both_routes=True)),
        (5, lambda s: ["jk", "--quiver", f"{f}/a2.json", *_rc(s)], 0,
         _value(1, both_routes=True)),
        (2, lambda s: _bip("jk", 2, 2, "1,1;1,1", "3,1,-2,-2", *_rc(s)), 0,
         _value(2, both_routes=True)),
        # jk-ab: K(1,1) d=(2;1) cancels to 0 (no (2,1) ray in the pentagon)
        (5, lambda s: _bip("jk-ab", 1, 1, "2;1", "1,-2", "--infinity"), 0, _value(0)),
        (4, lambda s: _bip("jk-ab", 1, 1, "2;1", "1,-2", *_rc(s)), 0, _value(0)),
        (4, lambda s: _bip("jk-ab", 2, 1, "1,1;1", "1,1,-2", *_rc(s),
                           "--lambda", "100"), 0, _value(1)),
        # scatter: pentagon and the finite K(2,1) diagram; K(2,2) central ray
        (4, lambda s: ["scatter", "--l1", "1", "--l2", "1", "--order", "4"], 0,
         _ray_dirs((1, 1))),
        (3, lambda s: ["scatter", "--l1", "2", "--l2", "1", "--order", "3"], 0,
         _ray_dirs((1, 1), (2, 1))),
        (2, lambda s: ["scatter", "--l1", "1", "--l2", "1", "--order", "3", "--csv"], 0,
         _csv_header("direction,support,function")),
        (1, lambda s: ["scatter", "--l1", "2", "--l2", "2", "--order", "3", "--ray", "1,1"],
         0, _central_k22_order3),
        # extract-cd: c_(k,k) = (-1)^(k-1)/k^2 for K(1,1); c_(1,1;1) = 1 for K(2,1)
        (4, lambda s: ["extract-cd", "--l1", "1", "--l2", "1", "--d", "1;1", "--order", "2"],
         0, _c_d(oracles.k11_log_coefficient(1))),
        (3, lambda s: ["extract-cd", "--l1", "1", "--l2", "1", "--d", "2;2", "--order", "4"],
         0, _c_d(oracles.k11_log_coefficient(2))),
        (2, lambda s: ["extract-cd", "--l1", "1", "--l2", "1", "--d", "3;3", "--order", "6"],
         0, _c_d(oracles.k11_log_coefficient(3))),
        (2, lambda s: ["extract-cd", "--l1", "2", "--l2", "1", "--d", "1,1;1", "--order", "3"],
         0, _c_d(1)),
        # verify-main: passes, plus the regularity guard (exit 3)
        (3, lambda s: _bip("verify-main", 1, 1, "1;1", "1,-1", "--order", "2"), 0, _passed),
        (2, lambda s: _bip("verify-main", 2, 1, "1,1;1", "1,1,-2", "--order", "3"), 0, _passed),
        (1, lambda s: _bip("verify-main", 2, 1, "1,1;1", "1,1,-2", "--order", "4"), 0, _passed),
        (1, lambda s: _bip("verify-main", 2, 2, "1,1;1,1", "1,1,-1,-1", "--order", "4"), 3,
         _nonregular),
        # input errors (exit 2): --d of the wrong shape, a non-integer, no normalization
        (3, lambda s: _bip("trees", 2, 1, "1,1", "1,1,-2"), 2, _input_error),
        (3, lambda s: _bip("jk-ab", 1, 1, "1;1;1", "1,-1", "--infinity"), 2, _input_error),
        (3, lambda s: ["extract-cd", "--l1", "2", "--l2", "1", "--d", "1;1", "--order", "3"],
         2, _input_error),
        (3, lambda s: _bip("verify-main", 2, 1, "x,1;1", "1,1,-2", "--order", "4"), 2,
         _input_error),
        (3, lambda s: _bip("jk", 1, 1, "1;1", "1,1", *_rc(s)), 2, _input_error),
    ]


def _cli_job(argv, want_exit, check):
    def run(ctx):
        out = io.StringIO()
        code = cli.main(argv, out=out)
        return code, out.getvalue()
    return Job("cli " + " ".join(argv), run, _report_check(want_exit, check),
               fingerprint=lambda result: result[1])


def cli_mix(seed: int) -> list[Job]:
    rng = random.Random(seed)
    groups = []
    for copies, argv_for, want_exit, check in _requests():
        for _ in range(copies):
            argv = argv_for(rng.randrange(2 ** 31))
            groups.append([_cli_job(argv, want_exit, check)])
    return _shuffled(groups, rng)


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "tropical": tropical,
    "jk-finite": jk_finite,
    "trees": trees,
    "cli-mix": cli_mix,
}
