"""Exception types shared across the package."""


class FermiphonError(Exception):
    """Base class for all package errors."""


class UnstableCouplings(FermiphonError):
    """Coupling constants outside the stability region."""


class BadGeometry(FermiphonError):
    """Violated positivity or ordering constraints on lengths/velocities."""


class TruncationTooLarge(FermiphonError):
    """Requested Fock truncation exceeds the memory guard."""


class ModeOutOfWindow(FermiphonError):
    """A requested momentum mode lies outside the truncated window."""


class UnknownIdentity(FermiphonError):
    """Identity name not in the supported verification set."""


class BadArgument(FermiphonError):
    """Argument outside the documented domain."""


class ZeroMode(FermiphonError):
    """p = 0 requested where only p != 0 is meaningful."""


class DegenerateBranches(FermiphonError):
    """Near-degenerate eigenfrequencies; branch labeling would be ambiguous."""


class GridTooSmall(FermiphonError):
    """Momentum grid does not cover all modes below the requested energy."""


class BadRegulator(FermiphonError):
    """Non-positive regulator where a positive one is required."""

