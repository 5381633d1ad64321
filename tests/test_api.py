"""The public API, frozen: ``jkscatter.__all__`` and the options of every CLI
subcommand.

A change to either must edit the tables here and be listed in CHANGES.md.
Recorded removals: the ``reference=`` parameter of ``build_arrangement``,
the ``Weight.pair`` field, ``LinForm.translate``, ``RationalExpr.translate``,
``jkscatter jk-ab --csv``, the ``sign_mode=`` parameter of ``build_ZQ``,
``series_exp_log``, the ``q`` and ``d`` parameters of ``build_ZQ``
(it reads ``a.dim``), the ``SingularPoint.inverse`` field (the point
keeps its tree's ``walk`` and edge ``scales``), ``RationalExpr.power``
(no caller), ``SingularPoint.coordinates`` (``jk_basis`` and
``zeta_from_theta`` read the signs of the cut sums; the division is a
helper of ``tests/test_arrangement.py``), the ``powers`` parameter of
``cross_wall`` (no caller shared it; each call raises its wall's powers),
and the helpers that only tests called, which live on in
``tests/reference.py``: ``meet``, ``rref``, ``change_vars_linear``,
``wt_residue`` with ``errors.NotATree`` and ``skew_euler_form`` under their
own names, and ``Arrangement.hyperplanes``, ``TruncatedSeries.exp`` and
``Quiver.arrow_count`` as ``hyperplanes(a)``, ``series_exp(g)`` and
``arrow_count(q, t, h)``.
Recorded additions: the ``box`` of per-parameter exponent bounds on
``TruncatedSeries`` (and its ``const`` and ``monomial``),
``init_bipartite`` and ``ScatteringDiagram``; the
``powers`` table of ``cross_wall``; ``errors.TooManyTrees``, raised by
the CLI's tree listings past ``quiver.MAX_SPANNING_TREES``, with its base
``errors.OverBound`` shared by the other refusals; the
``SingularPoint.numerators`` and ``SingularPoint.denominator`` fields (the
location is ``numerators / denominator``) and the ``Arrangement.table``
and ``Arrangement.denominator`` fields (the planes as integer edges, each
``(tail, head, c L, is a weight)``, over ``L``).  Derived on first read
and cached: ``Weight.form`` (the field ``_ends`` names its tail and head
coordinates), ``Arrangement.roots`` (from ``table``), and
``SingularPoint.location`` and ``SingularPoint.functionals`` (from the
walk, scales, numerators and denominator, and the field ``_variables``);
each constructor lost those parameters.  Changed in place:
``TruncatedSeries.terms`` is read from packed integer keys, a fresh
``{(x, y, param_exps): c}`` dict on every read, so writing to it no
longer changes the series; a series refuses a negative cutoff and an x
exponent outside the packed x field (``ValueError``); and ``powers`` of
``cross_wall`` is a list h, h^2, ... of h = f - 1 (it was a dict n -> f^n),
from which ``cross_wall`` sums g + sum_k h^k P_k with binomial
coefficients; ``errors.TooMuchWork`` takes an optional ``need`` text that
names the priced computation (CLI ``scatter`` refuses past
``scattering.MAX_SCATTER_WORK`` with it).  Not exported:
``quiver.spanning_tree_count`` takes the enumerator's ``(nodes, edges)``,
and ``quiver.check_tree_walks`` prices several graphs' trees in all (its
one-graph wrapper ``quiver.check_tree_walk`` is removed).
"""

import argparse
import dataclasses
import functools
import inspect
from operator import attrgetter

import jkscatter
from jkscatter import cli

PUBLIC_NAMES = [
    "AbelianizationTerm", "Arrangement", "BadConstantTerm", "BadCutoff",
    "CutoffTooSmall", "DegenerateRCharges", "DimVector", "Flag", "HasLoop",
    "HasOrientedCycle", "JKScatterError", "LinForm", "NonRegularStability",
    "NotNormalized", "NotProjective", "NotSumRegular",
    "ParseError", "Poly", "Quiver", "RationalExpr", "ScatteringDiagram",
    "SingularBasis", "SingularPoint", "SpanningTree", "Stability",
    "TreeExpansion", "TreeExpansionTerm", "TruncatedSeries",
    "ValidationError", "VerificationResult", "Wall", "Weight",
    "ZeroDenominator", "abelianize", "arrangement", "bipartite_quiver",
    "build_ZQ", "build_arrangement", "cross_wall",
    "enumerate_flags", "errors", "exact", "extract_cd", "flag_residue",
    "init_bipartite", "iterated_residue", "jk_ab", "jk_ab_infinity",
    "jk_basis", "jk_global", "jk_global_ZQ", "jk_tree_expansion", "jk_zeta",
    "lambda_sweep", "loop_product", "moduli_dimension", "quiver",
    "quiverjk",
    "reduced_quiver", "residue_step", "sample_rcharges", "scatter",
    "scattering", "series", "singular_points",
    "spanning_trees", "stable_trees",
    "subst_linear_basis", "theta_lift", "tree_components", "validate_quiver",
    "verify_main_theorem", "weist_count", "zeta_from_theta",
]

QUIVER_INPUTS = ["--d", "--l1", "--l2", "--quiver", "--zeta"]

CLI_OPTIONS = {
    "trees": sorted(QUIVER_INPUTS + ["--csv"]),
    "jk": sorted(QUIVER_INPUTS + ["--csv", "--lambda", "--rcharges"]),
    "jk-ab": sorted(QUIVER_INPUTS + ["--infinity", "--lambda", "--rcharges"]),
    "scatter": ["--csv", "--l1", "--l2", "--order", "--ray"],
    "extract-cd": ["--d", "--l1", "--l2", "--order"],
    "verify-main": ["--d", "--l1", "--l2", "--order", "--zeta"],
}


# (name, default) of each parameter; "-" marks a parameter without a default
SIGNATURES = {
    "TruncatedSeries": [("params", "-"), ("cutoff", "-"), ("terms", None), ("box", None)],
    "TruncatedSeries.const": [("params", "-"), ("cutoff", "-"), ("c", "-"), ("box", None)],
    "TruncatedSeries.monomial": [("params", "-"), ("cutoff", "-"), ("xe", 0), ("ye", 0),
                                 ("pexp", None), ("coeff", 1), ("box", None)],
    "init_bipartite": [("l1", "-"), ("l2", "-"), ("cutoff", "-"), ("box", None)],
    "cross_wall": [("w", "-"), ("g", "-"), ("orientation", 1)],
    "errors.TooManyTrees": [("estimate", "-"), ("bound", "-")],
    "errors.TooMuchWork": [("estimate", "-"), ("bound", "-"), ("need", None)],
    "quiver.spanning_tree_count": [("nodes", "-"), ("edges", "-")],
}


def _signature(obj):
    return [(p.name, "-" if p.default is p.empty else p.default)
            for p in inspect.signature(obj).parameters.values()]


def test_public_names():
    assert sorted(jkscatter.__all__) == PUBLIC_NAMES


def test_cli_options():
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: sorted(opt for act in p._actions if act.dest != "help"
                        for opt in act.option_strings)
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS


def test_box_signatures():
    got = {name: _signature(attrgetter(name)(jkscatter)) for name in SIGNATURES}
    assert got == SIGNATURES
    assert [(f.name, f.default if f.default is not dataclasses.MISSING else "-")
            for f in dataclasses.fields(jkscatter.ScatteringDiagram)] == \
        [("walls", "-"), ("cutoff", "-"), ("params", "-"), ("box", None)]


def test_bound_errors():
    # every up-front refusal keeps its estimate and bound the same way
    errors = jkscatter.errors
    for cls in (errors.TooManyTerms, errors.TooMuchWork, errors.TooManyTrees):
        exc = cls(7, 5)
        assert isinstance(exc, errors.OverBound)
        assert (exc.estimate, exc.bound) == (7, 5)
        assert str(exc).endswith(", over the bound 5")
    assert not hasattr(jkscatter.RationalExpr, "power")
    assert not hasattr(jkscatter.SingularPoint, "coordinates")
    # helpers that only tests called (see tests/reference.py)
    for owner, name in [(jkscatter.arrangement, "meet"), (jkscatter.exact, "rref"),
                        (jkscatter.exact, "change_vars_linear"),
                        (jkscatter.Arrangement, "hyperplanes"),
                        (jkscatter.TruncatedSeries, "exp"), (jkscatter.Quiver, "arrow_count"),
                        (jkscatter.quiver, "skew_euler_form"),
                        (jkscatter.quiverjk, "wt_residue"), (jkscatter.errors, "NotATree")]:
        assert not hasattr(owner, name), name


def test_point_and_arrangement_fields():
    classes = (jkscatter.Weight, jkscatter.SingularPoint, jkscatter.Arrangement)
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in classes}
    assert fields == {
        "Weight": ["rcharge", "arrow", "arrow_index", "_ends"],
        "SingularPoint": ["active", "walk", "scales", "numerators", "denominator",
                          "_variables"],
        "Arrangement": ["quiver", "dim", "variables", "reference", "weights",
                        "rcharges", "table", "denominator"],
    }
    # the views built on first read and cached on the instance
    derived = {cls.__name__: sorted(name for name, attr in vars(cls).items()
                                    if isinstance(attr, functools.cached_property))
               for cls in classes}
    assert derived == {"Weight": ["form"], "SingularPoint": ["functionals", "location"],
                       "Arrangement": ["points", "roots"]}
