"""Exception types shared across the toolkit.

Every failure mode that callers are expected to handle gets its own class;
the CLI maps them onto exit codes (missing ingredients vs. verification
failures vs. plain usage errors).
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- finite algebra ---------------------------------------------------------

class NotPrimePower(ToolkitError):
    """The requested order is not a prime power."""


class NotPowerOfTwo(ToolkitError):
    """The construction needs a field of characteristic 2."""


# --- array algebra ----------------------------------------------------------

class ShapeMismatch(ToolkitError):
    """Operand dimensions are incompatible."""


class RowCountMismatch(ToolkitError):
    """Replacement array's row count does not match the column's level count."""


class SymbolOutOfRange(ToolkitError):
    """A symbol is not a valid level for its column."""


class NotDivisible(ToolkitError):
    """A row count is not divisible as the operation requires."""


class TooFewRows(ToolkitError):
    """The array has too few rows for the requested computation."""


class EmptyResult(ToolkitError):
    """The operation would leave no columns (or no rows)."""


class StrengthTooHigh(ToolkitError):
    """The requested strength is not attainable for these parameters."""


# --- ingredients and assets -------------------------------------------------

class IngredientUnavailable(ToolkitError):
    """No strategy could supply a required ingredient array."""


class AssetCorrupt(ToolkitError):
    """A bundled or user-supplied asset failed its declared checks."""


# --- claim certification ----------------------------------------------------

class ClaimFailed(ToolkitError, AssertionError):
    """A strength, distance or balance claim failed its re-check.

    Raised explicitly, so `python -O` cannot strip the check; it stays an
    AssertionError for callers that catch a failed self-check as one.
    """


# --- code synthesis ---------------------------------------------------------

class BadGeometry(ToolkitError):
    """Code length/distance combination is out of range (n < 2d)."""


class NegativeM(ToolkitError):
    """Claimed dimension exceeds the Singleton bound."""


class BadFactorization(ToolkitError):
    """A factor list does not multiply to the required value."""


class DivisibilityViolated(ToolkitError):
    """A divisibility precondition (s1 | s, etc.) does not hold."""


class SBoundViolated(ToolkitError):
    """Parameters violate the s >= s1**2 requirement."""


class ExcludedS(ToolkitError):
    """The construction explicitly excludes this alphabet size."""


class NotPartitionable(ToolkitError):
    """Rows cannot be split into equal blocks by the requested prefix."""


class NotFromOA(ToolkitError):
    """The code does not carry the array provenance this operation needs."""


class ProvenanceMissing(ToolkitError):
    """Cross-validation needs the parent array and partition."""
