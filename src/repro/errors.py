"""Exception hierarchy shared by every subpackage.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch a single exception type at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by schematic-repro."""


class IRError(ReproError):
    """Structural problem in the intermediate representation."""


class IRValidationError(IRError):
    """An IR module failed structural validation (see :mod:`repro.ir.validate`)."""


class FrontendError(ReproError):
    """Base class for MiniC frontend errors."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """Invalid token in MiniC source."""


class ParseError(FrontendError):
    """Syntactically invalid MiniC source."""


class SemanticError(FrontendError):
    """Type or scoping error in MiniC source."""


class AnalysisError(ReproError):
    """A program analysis received ill-formed input (e.g. irreducible CFG)."""


class RecursionUnsupportedError(AnalysisError):
    """The call graph contains recursion, which SCHEMATIC does not handle."""


class EnergyModelError(ReproError):
    """Inconsistent energy-model or platform configuration."""


class PlacementError(ReproError):
    """Checkpoint placement failed (e.g. the energy budget is too small for
    even a single instruction between checkpoints)."""


class InfeasibleBudgetError(PlacementError):
    """No checkpoint placement can guarantee forward progress with the given
    capacitor budget ``EB``."""


class VMCapacityError(ReproError):
    """A technique requires more volatile memory than the platform provides."""


class EmulationError(ReproError):
    """Runtime error while interpreting IR (trap, bad memory access, ...)."""

