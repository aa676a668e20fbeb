"""Shared exception types."""


class InputError(ValueError):
    """Malformed or unsupported user input (CLI exit code 2)."""


class CapExceeded(RuntimeError):
    """An enumeration passed its cap (CLI exit code 3): |GL| over the cap given to
    `Instance.gl`, the submodule lattice, a base sublattice too large to enumerate
    its sublattices (`enumerate_sublattices`) or a full quantification over its bound.

    Carries the count that passed the cap, where one is known.
    """

    def __init__(self, message, partial_count=None):
        super().__init__(message)
        self.partial_count = partial_count
