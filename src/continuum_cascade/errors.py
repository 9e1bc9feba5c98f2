"""Exception hierarchy shared by all modules.

Each class carries the process exit code the CLI maps it to:
2 configuration / contract errors, 3 numeric / fit errors.  I/O failures
are plain OSError and map to 4.
"""


class CascadeError(Exception):
    exit_code = 3


class ConfigurationError(CascadeError):
    """Invalid parameters or an infeasible run configuration."""

    exit_code = 2


class ContractViolationError(CascadeError):
    """Mismatched inputs that violate an operation's preconditions."""

    exit_code = 2


class DomainError(CascadeError):
    """An evaluation point fell outside the represented domain."""


class FrontNotFoundError(CascadeError):
    """The requested level is not bracketed by the curve."""


class FitError(CascadeError):
    """Fit window too small, too narrow, or ill conditioned."""


class ScanError(CascadeError):
    """Optimizer could not bracket an interior minimum."""


class NumericError(CascadeError):
    """Numerical guard tripped (quadrature failure, a recursion step that left [0, 1])."""
