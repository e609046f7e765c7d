"""Exception hierarchy shared by the whole package."""


class LocalSmithError(Exception):
    """Base class for all package errors."""


class InputError(LocalSmithError):
    """Malformed or inconsistent user input (JSON families, flags)."""


class TruncationError(LocalSmithError):
    """A computation needs series coefficients beyond the known truncation."""


class StageBudgetError(LocalSmithError):
    """Stage budget exhausted before the stabilization certificate fired."""


class InternalConsistencyError(LocalSmithError):
    """An exact identity that must hold by construction failed; always a bug."""
