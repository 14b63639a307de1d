"""Shared exception types.

Everything raised on purpose by this package derives from CuspLabError, so
callers can catch one thing at the top level.  Validation errors carry enough
context in their message to locate the offending datum; numerical errors carry
the state at failure where that is cheap to include.
"""


class CuspLabError(Exception):
    pass


# ---- combinatorial input validation ----

class NonInvolution(CuspLabError):
    """Face gluing data is not a fixed-point-free involution on edge slots."""


class Disconnected(CuspLabError):
    """The glued surface (or cover) is not connected; ``pieces`` counts
    its connected components."""

    def __init__(self, pieces):
        super().__init__("gluing data describes %d components" % pieces)
        self.pieces = pieces


class BadSurfaceFile(CuspLabError):
    """Text description of a triangulated surface failed to parse."""


# ---- arcs and flips ----

class NotFlippable(CuspLabError):
    """The requested edge bounds the same triangle on both sides."""


class NotAnArc(CuspLabError):
    """Edge weights do not describe a single essential embedded arc."""


class PunctureMoved(CuspLabError):
    """A mapping class was applied that does not fix the preferred puncture."""


class BudgetExceeded(CuspLabError):
    """A search or reduction exceeded its coordinate or iteration budget."""


class Unreachable(CuspLabError):
    """No path was found within the exploration budget (distance may exist)."""


# ---- covers ----

class BaseMismatch(CuspLabError):
    """Covering data does not match the base triangulation."""


class Intransitive(CuspLabError):
    """Permutation data generates a non-transitive (disconnected) cover."""


# ---- monodromies ----

class EmptyWord(CuspLabError):
    """A monodromy word with no letters was supplied."""


class NotPseudoAnosov(CuspLabError):
    """The monodromy is periodic or reducible (|trace| <= 2).

    A word over {L, R} is pseudo-Anosov exactly when it has both letters.
    """


# ---- hyperbolic geometry inputs ----

class NegativeDistance(CuspLabError):
    """A distance argument was negative."""


class NonNegativeChi(CuspLabError):
    """An Euler characteristic argument was not negative."""


class NonPositiveArea(CuspLabError):
    """An area argument was not positive."""


class OverlappingHoroballs(CuspLabError):
    """Two horoballs overlap where disjoint interiors are required."""


class CoincidentCenters(CuspLabError):
    """Two horoballs share their ideal center."""


# ---- numerics ----

class NumericalError(CuspLabError):
    """Base class for solver and development failures."""


class Diverged(NumericalError):
    """Newton iteration left the admissible region."""


class MaxIterations(NumericalError):
    """Newton iteration failed to converge within the iteration cap."""


class DegenerateShape(NumericalError):
    """A tetrahedron shape collapsed onto the real line."""


class DepthUnstable(NumericalError):
    """Horoball development did not stabilise under depth doubling.

    maximal_cusp no longer raises it: the maximal cusp is read off the
    edges of the canonical triangulation, with no search depth.  The class
    and its exit code (3, as a NumericalError) stay for callers that
    catch it.
    """


class NotSolved(CuspLabError):
    """Shape data was passed that does not solve the gluing equations."""
