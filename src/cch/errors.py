"""Exception hierarchy shared across the package."""


class CCHError(Exception):
    """Base class for all errors raised by this package."""


class OrbitDataError(CCHError):
    """Rotation data violates its own invariants (bound, nondegeneracy, action)."""


class MultiplicityBoundError(CCHError):
    """A cover was requested beyond the declared validity bound."""


class DegenerateOrbitError(CCHError):
    """An elliptic-modeled rotation number hit an integer multiple."""


class SkeletonError(CCHError):
    """A curve or building skeleton violates a structural invariant."""


class PreconditionError(CCHError):
    """An operation was called outside its stated domain."""


class DynamicalConvexityError(CCHError):
    """Scenario data contradicts the dynamically-convex flag."""


class EnumerationLimitError(CCHError):
    """Enumeration exceeded a configured limit; carries partial results."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class BadOrbitError(CCHError):
    """A count table entry references a bad orbit (not a generator)."""


class CoverDivisibilityError(CCHError):
    """A cylinder record's cover degree does not divide an end multiplicity."""


class GradingMismatchError(CCHError):
    """A count table entry connects generators whose gradings do not drop by one."""


class SequencingError(CCHError):
    """An operation was called before a required verification step."""


class ScenarioError(CCHError):
    """A scenario file failed parsing or validation; carries a location."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class UsageError(CCHError):
    """Command line was not understood; carries usage text."""

    def __init__(self, message, usage=""):
        super().__init__(message)
        self.usage = usage
