"""Exception hierarchy.

CLI exit-code contract: ConfigError -> 2, CapExceededError -> 3,
AnalysisError -> 4.  Everything else is a bug.
"""

from __future__ import annotations


class XYChainError(Exception):
    """Base class for all package errors."""


class ConfigError(XYChainError, ValueError):
    """Invalid parameters, state, or grid."""


class CapExceededError(XYChainError):
    """Requested system size exceeds a resource cap."""


class DegenerateVacuumError(XYChainError):
    """Pseudovacuum construction produced a (near-)null vector."""


class SpectrumMismatchError(XYChainError):
    """Fermionic level reconstruction disagrees with dense diagonalization."""

    def __init__(self, message: str, worst_config=None, mismatch: float = 0.0):
        super().__init__(message)
        self.worst_config = worst_config
        self.mismatch = mismatch


class AnalysisError(XYChainError):
    """A detector could not produce a well-defined answer."""


class NoCrossingError(AnalysisError):
    """Envelope never reaches the requested level inside the trajectory."""


class GridTooCoarseError(AnalysisError):
    """Time grid undersamples the fastest oscillation of the signal."""


class InsufficientTailError(AnalysisError):
    """Trajectory does not extend far enough for a long-time statistic."""
