"""The public API, frozen: ``jkscatter.__all__`` and the options of every CLI
subcommand.

A change to either must edit the tables here and be listed in CHANGES.md.
Recorded removals: the ``reference=`` parameter of ``build_arrangement``,
the ``Weight.pair`` field, ``LinForm.translate``, ``RationalExpr.translate``,
``jkscatter jk-ab --csv``, the ``sign_mode=`` parameter of ``build_ZQ`` and
``series_exp_log``.  Recorded additions: ``meet``.
"""

import argparse

import jkscatter
from jkscatter import cli

PUBLIC_NAMES = [
    "AbelianizationTerm", "Arrangement", "BadConstantTerm", "BadCutoff",
    "CutoffTooSmall", "DegenerateRCharges", "DimVector", "Flag", "HasLoop",
    "HasOrientedCycle", "JKScatterError", "LinForm", "NonRegularStability",
    "NotATree", "NotNormalized", "NotProjective", "NotSumRegular",
    "ParseError", "Poly", "Quiver", "RationalExpr", "ScatteringDiagram",
    "SingularBasis", "SingularPoint", "SpanningTree", "Stability",
    "TreeExpansion", "TreeExpansionTerm", "TruncatedSeries",
    "ValidationError", "VerificationResult", "Wall", "Weight",
    "ZeroDenominator", "abelianize", "arrangement", "bipartite_quiver",
    "build_ZQ", "build_arrangement", "change_vars_linear", "cross_wall",
    "enumerate_flags", "errors", "exact", "extract_cd", "flag_residue",
    "init_bipartite", "iterated_residue", "jk_ab", "jk_ab_infinity",
    "jk_basis", "jk_global", "jk_global_ZQ", "jk_tree_expansion", "jk_zeta",
    "lambda_sweep", "loop_product", "meet", "moduli_dimension", "quiver",
    "quiverjk",
    "reduced_quiver", "residue_step", "sample_rcharges", "scatter",
    "scattering", "series", "singular_points",
    "skew_euler_form", "spanning_trees", "stable_trees",
    "subst_linear_basis", "theta_lift", "tree_components", "validate_quiver",
    "verify_main_theorem", "weist_count", "wt_residue", "zeta_from_theta",
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


def test_public_names():
    assert sorted(jkscatter.__all__) == PUBLIC_NAMES


def test_cli_options():
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: sorted(opt for act in p._actions if act.dest != "help"
                        for opt in act.option_strings)
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS
