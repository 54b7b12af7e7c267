"""Exception types shared across the library."""


class ComputationError(Exception):
    """Base class for all arithmetic and certification failures."""


class DivisionByZero(ComputationError, ZeroDivisionError):
    pass


class PrecisionExhausted(ComputationError):
    """A result has no certified digits / coefficients at the requested depth."""


class NotAUnit(ComputationError):
    pass


class ZeroInverse(ComputationError):
    pass


class IndeterminateTop(ComputationError):
    """A window is zero down to its cutoff but not certified zero."""


class CutoffTooSmall(ComputationError):
    pass


class CutoffTooLarge(ComputationError):
    """A cutoff reads degrees beyond those a presentation declares."""


class NotStabilized(ComputationError):
    """Heuristic H^1 dimension still changing at the working cutoff."""


class ResultTooLarge(ComputationError):
    """A result holds an integer too long for Python's int-to-str conversion limit."""


class NotInSpan(ComputationError):
    pass


class EmbeddingNotRingMap(ComputationError):
    pass


class ZeroBott(ComputationError):
    pass


class PoleAtPoint(ComputationError):
    pass


class NotMemberError(ComputationError):
    pass


class NotDivisible(ComputationError):
    pass


class RadiusNotCertified(ComputationError):
    pass


class NotSimpleRoot(ComputationError):
    pass
