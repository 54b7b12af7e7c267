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
    """H^1 has no certified finite answer here.

    Either an uncertified H^1 dimension still changes over the cutoffs
    D, D+1, D+2, or a certified window has no conductor within the degrees
    its checks cover (its H^1 is infinite, or reaches past them), or a
    result that must be certified is not.
    """


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
