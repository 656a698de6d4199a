"""Exception types shared across the package."""


class FockwitnessError(Exception):
    """Base class for all package-specific errors."""


class NonConvergent(FockwitnessError):
    """A series failed to converge within its iteration budget."""


class PoleInDenominatorParams(FockwitnessError):
    """A hypergeometric denominator parameter is a non-positive integer."""


class DegenerateState(FockwitnessError):
    """The engineering operation annihilated the state (zero vector)."""


class ZeroMeanPhoton(FockwitnessError):
    """A witness that divides by <a'a> was asked about a zero-mean state."""


class OddOrder(FockwitnessError):
    """An even-order-only witness was called with an odd order."""


class SingularDenominator(FockwitnessError):
    """A determinant-ratio witness has a vanishing denominator (indeterminate)."""


class CutoffExceeded(FockwitnessError):
    """A truncated-basis computation would exceed the configured hard limit."""


class EmptyWindow(FockwitnessError):
    """A Husimi scan window holds no part of the state: Q is 0 at every point."""


class OutOfRange(FockwitnessError):
    """A requested value lies beyond the float range."""
