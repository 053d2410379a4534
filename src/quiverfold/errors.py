"""Shared exception and warning types.

Every validation failure raises a named subclass of :class:`QuiverFoldError`
so callers (and the command line driver) can distinguish bad input from a
genuine theorem-check failure.
"""


class QuiverFoldError(Exception):
    """Base class for all errors raised by this package."""


# quiver / automorphism validation

class DuplicateId(QuiverFoldError):
    """A vertex or arrow identifier occurs more than once."""


class VertexLoop(QuiverFoldError):
    """An arrow starts and ends at the same vertex."""


class DanglingEndpoint(QuiverFoldError):
    """An arrow endpoint is not a known vertex."""


class NotPermutation(QuiverFoldError):
    """A vertex or arrow map is not a bijection of the right sets."""


class Incompatible(QuiverFoldError):
    """The arrow map does not intertwine sources and targets with the
    vertex map (or no compatible arrow map exists at all)."""


class NotAdmissible(QuiverFoldError):
    """Some arrow joins two vertices lying in one vertex orbit."""


# lattices and folding

class LatticeMismatch(QuiverFoldError):
    """A vector's length does not match the lattice it is used in, or a
    matrix's columns do not match the rows it is multiplied with."""


class NotFixed(QuiverFoldError):
    """The vector is not invariant under the automorphism action."""


class UnknownVertex(QuiverFoldError):
    """A vertex that the lattice or quiver does not have, e.g. a reflection
    requested there."""


class ZeroVector(QuiverFoldError):
    """The zero vector cannot be classified."""


class NoNullRoot(QuiverFoldError):
    """Defect is undefined because the form has trivial radical."""


class NotUnfoldable(QuiverFoldError):
    """The valued quiver fails the divisibility conditions for unfolding."""


class BudgetExceeded(QuiverFoldError):
    """An enumeration would exceed its configured cap.

    The exception carries the predicted size so callers can report it.
    """

    def __init__(self, message: str, predicted: int | None = None):
        super().__init__(message)
        self.predicted = predicted


# catalogs

class SpaceMismatch(QuiverFoldError):
    """A representation or automorphism does not belong to the quiver,
    dimension vector or field of the catalog it is used with."""


class OrbitPartitionBroken(QuiverFoldError):
    """The orbit labelling does not partition the state space: the class
    sizes do not sum to the state count."""


class TwistPeriodBroken(QuiverFoldError):
    """A twist orbit did not close within, or its length does not divide,
    the order of the twist that generates it."""


# cross-checks

class CrossCheckFailed(QuiverFoldError):
    """Two routes to the same answer disagree, e.g. the end-ring test and the
    endomorphism search on a class's flag, or a search and its closed form."""


# finite fields

class NotPrime(QuiverFoldError):
    """The requested field size is not a prime power."""


class DegreeTooLarge(QuiverFoldError):
    """The requested extension degree exceeds the supported cap."""


class NotSubfield(QuiverFoldError):
    """The smaller field does not embed in the larger one."""


# representations

class FieldMismatch(QuiverFoldError):
    """Two representations live over different fields (or quivers)."""


class EndRingTooLarge(BudgetExceeded):
    """The endomorphism ring is too large to search exhaustively."""


class HomSpaceTooLarge(BudgetExceeded):
    """The homomorphism space is too large to search exhaustively."""


class NotSink(QuiverFoldError):
    """A forward reflection functor was requested at a non-sink."""


class NotSource(QuiverFoldError):
    """A backward reflection functor was requested at a non-source."""


class BadParameter(QuiverFoldError, ValueError):
    """A fixture parameter, reflection direction or height is outside its allowed set."""


class CharacteristicWarning(UserWarning):
    """The field characteristic divides the automorphism order, so the
    theorem being checked is outside its stated hypotheses."""
