"""Exception types shared across the package.

Each maps to a process exit code in the command line front end:
InvalidInputError -> 2, CapExceededError -> 3, InfeasibleError -> 4,
RetriesExhaustedError -> 5.
"""


class ChansimError(Exception):
    """Base class for package errors."""


class InvalidInputError(ChansimError):
    """Malformed or out-of-contract input (bad distribution, bad config)."""


class CapExceededError(ChansimError):
    """A requested computation exceeds its enumeration or size cap."""


class InfeasibleError(ChansimError):
    """No object with the requested properties exists for these parameters."""


class RetriesExhaustedError(ChansimError):
    """A randomized construction failed all covering.DEFAULT_MAX_RETRIES draws."""
