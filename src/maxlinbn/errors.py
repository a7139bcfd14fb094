"""Exception hierarchy for the package.

Everything raised on bad input derives from :class:`MaxLinError`, so callers
(and the command-line tool) can catch domain errors with a single except
clause.
"""


class MaxLinError(Exception):
    """Base class for all domain errors raised by this package."""


class VertexOutOfRange(MaxLinError):
    """A vertex label lies outside ``1..d``."""


class DuplicateEdgeError(MaxLinError):
    """The same directed edge was given more than once."""


class CycleError(MaxLinError):
    """The directed edge set contains a cycle."""


class DimensionMismatch(MaxLinError):
    """Matrix or graph dimensions are incompatible."""


class NonDisjointQuery(MaxLinError):
    """A separation query's vertex sets overlap or a side is empty."""


class SizeLimitExceeded(MaxLinError):
    """An enumeration would exceed its configured cap."""


class InvalidWeightMatrix(MaxLinError):
    """An edge-weight matrix violates its invariants (unit diagonal,
    nonnegative entries, acyclic positive pattern)."""


class InvalidCoefficientMatrix(MaxLinError):
    """A coefficient matrix's sign pattern is not the reachability
    relation of any DAG."""


class NotAPath(MaxLinError):
    """A vertex sequence is not a directed path of the graph."""


class NonPositiveWeight(MaxLinError):
    """An edge weight is zero or negative."""


class MissingEdgeWeight(MaxLinError):
    """An edge of the graph has no weight assigned."""


class ExtraneousWeight(MaxLinError):
    """A weight was assigned to a pair that is not an edge."""


class IncompatibleDag(MaxLinError):
    """A DAG cannot carry the given coefficient matrix (reachability
    mismatch or missing required edge)."""


class EmptySample(MaxLinError):
    """The sample has too few observations for the requested estimator."""


class NonPositiveSample(MaxLinError):
    """Sample entries must be strictly positive."""


class NonPositiveInput(MaxLinError):
    """A scalar input that must be strictly positive and finite is not."""
