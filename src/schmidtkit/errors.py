"""Exception types raised across the toolkit.

Every error corresponds to a violated precondition or a structural
failure that callers may want to catch individually.  The CLI maps
these onto exit code 2 (usage / input errors); negative verdicts such
as NotDecomposable reports or infeasible partitions are results, not
exceptions, and map onto exit code 1.
"""


class SchmidtError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SchmidtError):
    """Amplitude or entry count does not match the declared dimensions."""


class NotNormalizable(SchmidtError):
    """State vector is zero or too far from unit norm to repair, or a density's trace is not 1."""


class InvalidPartition(SchmidtError):
    """Bipartition sides are empty, overlapping, or do not cover 1..n."""


class TooFewSubsystems(SchmidtError):
    """Operation requires more subsystems than were provided."""


class TooManySubsystems(SchmidtError):
    """Subsystem count exceeds the supported solver range."""


class RankTooLarge(SchmidtError):
    """Requested Schmidt rank exceeds the smallest subsystem dimension."""


class CoefficientsMismatch(SchmidtError):
    """Two states have different Schmidt coefficient multisets."""


class NotDecomposable(SchmidtError):
    """An input required to be decomposable is not."""


class ProductOverflow(SchmidtError):
    """Dimension product exceeds the exact-arithmetic safety cap."""


class GroupingMismatch(SchmidtError):
    """Grouping length or total does not match the subsystem counts."""


class InvalidArgs(SchmidtError):
    """Arguments outside the documented domain."""


class DegenerateCombination(SchmidtError):
    """Linear combination of states cancels to (near) zero."""


class ReferenceTooSmall(SchmidtError):
    """Reference dimension is smaller than the density matrix rank."""


class NotPSD(SchmidtError):
    """Matrix is not Hermitian, or has an eigenvalue below the negativity tolerance."""


class DifferentStates(SchmidtError):
    """Purifications trace back to different density matrices."""


class MalformedCut(SchmidtError):
    """Cut string does not parse as 'i,j|k,l'."""


class IndicesOutOfRange(SchmidtError):
    """Cut or keep indices are out of range, duplicated, or missing."""


# every class above is public, in the order defined
__all__ = [name for name, value in globals().items() if isinstance(value, type)]
