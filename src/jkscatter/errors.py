"""Exception hierarchy shared across the library.

Every error that carries mathematical content (a witness wall, an offending
tree, ...) stores it on the exception instance so callers -- in particular the
command line layer -- can surface it in reports.
"""


class JKScatterError(Exception):
    """Base class for all library errors."""


# --- exact algebra ---------------------------------------------------------

class ZeroDenominator(JKScatterError):
    """A denominator factor is identically zero."""


class SingularBasis(JKScatterError):
    """A change-of-variables matrix is not invertible."""


class BadConstantTerm(JKScatterError):
    """Series inverse/log applied to an element with the wrong constant term."""


# --- quiver combinatorics --------------------------------------------------

class HasLoop(JKScatterError):
    """The quiver has an arrow with equal tail and head."""


class HasOrientedCycle(JKScatterError):
    """The quiver has an oriented cycle (witness: list of vertices)."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"oriented cycle through {self.cycle}")


class DuplicateVertex(JKScatterError):
    """A vertex id is listed more than once."""


class UnknownVertex(JKScatterError):
    """A vertex id is not part of the quiver."""


class NotNormalized(JKScatterError):
    """A stability vector does not satisfy sum(d_v * theta_v) = 0."""


class OverBound(JKScatterError):
    """Work refused before it starts, its estimate over a fixed bound; both
    numbers are kept on the exception."""

    def __init__(self, estimate, bound, need):
        self.estimate = estimate
        self.bound = bound
        super().__init__(f"{need}, over the bound {bound}")


class TooManyTerms(OverBound):
    """An abelianization would have more terms than the fixed bound."""

    def __init__(self, estimate, bound):
        super().__init__(estimate, bound, f"abelianization needs at least {estimate} "
                                          "terms (the product of the partition counts p(d_v))")


class TooMuchWork(OverBound):
    """Counting stable trees, or another priced computation named by
    ``need``, would take more steps than the fixed bound."""

    def __init__(self, estimate, bound, need=None):
        super().__init__(estimate, bound,
                         need or f"counting stable trees needs about {estimate} steps")


class TooManyTrees(OverBound):
    """A walk would visit more spanning trees than the fixed bound."""

    def __init__(self, estimate, bound):
        super().__init__(estimate, bound,
                         f"the walk would visit {estimate} spanning trees (Kirchhoff's count)")


class NonRegularStability(JKScatterError):
    """The stability vector lies on a wall.

    ``witness`` describes the wall: either the spanning tree and arrow whose
    coefficient vanishes, or the list of arrangement elements spanning the
    wall that contains the lifted stability.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


# --- arrangements ----------------------------------------------------------

class DegenerateRCharges(JKScatterError):
    """R-charges produce a non-simple hyperplane intersection."""


class TooManyPlanes(OverBound):
    """An arrangement would have more hyperplanes than the fixed bound; the
    coordinate count is kept too."""

    def __init__(self, estimate, bound, coordinates):
        self.coordinates = coordinates
        super().__init__(estimate, bound, f"the arrangement needs {estimate} hyperplanes in "
                                          f"{coordinates} coordinates (d_t*d_h weights per "
                                          "arrow, d_v*(d_v-1) roots per vertex)")


class NotSumRegular(JKScatterError):
    """zeta fails the sum-regularity needed by the requested operation."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotProjective(JKScatterError):
    """An active set is not contained in a strict half-space."""


# --- scattering ------------------------------------------------------------

class BadCutoff(JKScatterError):
    """Invalid cutoff or bipartite sizes for a scattering diagram."""


class CutoffTooSmall(JKScatterError):
    """The requested dimension vector exceeds the diagram's cutoff."""


# --- cli -------------------------------------------------------------------

class ParseError(JKScatterError):
    """Malformed input file (message includes position information)."""


class ValidationError(JKScatterError):
    """Structurally valid input violating a named rule."""

    def __init__(self, rule, message):
        self.rule = rule
        super().__init__(f"{rule}: {message}")
