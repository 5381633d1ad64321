"""Exact Jeffrey-Kirwan residues for quiver arrangements and the rank-2
tropical vertex, over arbitrary-precision rationals.
"""

from .arrangement import (Arrangement, Flag, SingularPoint, Weight,
                          build_arrangement, enumerate_flags, flag_residue,
                          jk_basis, jk_global, jk_zeta, sample_rcharges,
                          singular_points, theta_lift, zeta_from_theta)
from .errors import (BadConstantTerm, BadCutoff, CutoffTooSmall,
                     DegenerateRCharges, HasLoop, HasOrientedCycle,
                     JKScatterError, NonRegularStability, NotATree,
                     NotNormalized, NotProjective, NotSumRegular, ParseError,
                     SingularBasis, ValidationError, ZeroDenominator)
from .exact import (LinForm, Poly, RationalExpr, change_vars_linear,
                    iterated_residue, residue_step, subst_linear_basis)
from .quiver import (AbelianizationTerm, DimVector, Quiver, SpanningTree,
                     Stability, abelianize, bipartite_quiver,
                     moduli_dimension, reduced_quiver, skew_euler_form,
                     spanning_trees, stable_trees, tree_components,
                     validate_quiver, weist_count)
from .quiverjk import (TreeExpansion, TreeExpansionTerm, build_ZQ, jk_ab,
                       jk_ab_infinity, jk_global_ZQ, jk_tree_expansion,
                       lambda_sweep, wt_residue)
from .scattering import (ScatteringDiagram, VerificationResult, Wall,
                         cross_wall, extract_cd, init_bipartite, loop_product,
                         scatter, verify_main_theorem)
from .series import TruncatedSeries, series_exp_log

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
