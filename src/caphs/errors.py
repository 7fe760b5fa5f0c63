"""Exception types shared across the package."""


class CaphsError(Exception):
    """Base class for all library errors."""


class UsageError(CaphsError):
    """The command line does not parse: a missing or malformed option or subcommand."""


class MalformedInput(CaphsError):
    """Input text is not structurally valid (syntax, missing keys, wrong types)."""


class ValidationError(CaphsError):
    """Structurally valid input violates a model invariant."""


class UnknownElement(CaphsError):
    """An element id was referenced that the instance does not define."""


class PartialPlurality(CaphsError):
    """A plurality map is missing a class it is required to cover."""


class BudgetExceeded(CaphsError):
    """An enumeration budget ran out before the search space was exhausted."""


class QuotaInvalid(CaphsError):
    """An independent-set quota was outside {1, 2}."""


class InvariantViolated(CaphsError):
    """A result failed a check the algorithm guarantees: a bug, not bad input."""


class PreconditionViolated(CaphsError):
    """A documented operation precondition does not hold."""


class OracleInconsistent(CaphsError):
    """A guided run received an oracle solution inconsistent with its state."""


class NoColoringSeparates(CaphsError):
    """No sampled coloring separated the oracle solution within the trial cap."""


class NotThreeRegular(CaphsError):
    """The CSP constraint graph is not 3-regular."""


class TargetExceedsColumnSum(CaphsError):
    """A knapsack target coordinate exceeds the corresponding column sum."""


class ParameterViolation(CaphsError):
    """Covering-family parameters violate the feasibility formula."""


class EnumerationBudgetExceeded(CaphsError):
    """Local-assignment enumeration in the covering reduction is too large."""
