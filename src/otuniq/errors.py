"""Exception hierarchy shared across the package."""


class OTUniqError(Exception):
    """Base class for all package-specific errors."""


class AllInfinite(OTUniqError):
    """Every input value is the minus-infinity sentinel."""


class InfeasiblePair(OTUniqError):
    """A potential pair violates dual feasibility beyond tolerance."""


class DimensionMismatch(OTUniqError):
    """Objects refer to measures of incompatible sizes."""


class Unbalanced(OTUniqError):
    """Source and target masses differ beyond the mass tolerance."""


class SolverError(OTUniqError):
    """The simplex iteration failed to terminate or produced garbage."""


class InfeasibleOptimum(OTUniqError):
    """No dual-feasible pair attains the claimed optimal value."""


class BadEpsilon(OTUniqError):
    """Proximity-graph decomposition requires a positive epsilon."""


class TooManyComponents(OTUniqError):
    """Subset enumeration cap exceeded."""


class NotSymmetric(OTUniqError):
    """Witness construction needs a symmetric cost with zero diagonal."""


class NotSelfCoupled(OTUniqError):
    """Witness construction needs identical source and target measures."""


class WrongComponentCount(OTUniqError):
    """Witness construction needs exactly two source components."""


class ProfileNotMonotone(OTUniqError):
    """Regularity diagnostics need a nondecreasing cost profile."""


class NotAGrid(OTUniqError):
    """Finite differences need source points on a regular grid."""


class ProblemFormatError(OTUniqError):
    """A problem document failed schema validation.

    Carries a location string (JSON-pointer style) for positioned messages.
    """

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
