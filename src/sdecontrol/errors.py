"""Exception types shared across the package."""

__all__ = [
    "SdeControlError",
    "ConfigurationError",
    "DivergenceError",
    "UnsupportedSchemeError",
    "CapacityError",
    "BatchFailureError",
]


class SdeControlError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SdeControlError):
    """Invalid grid, dimension, scheme choice or configuration file."""


class DivergenceError(SdeControlError):
    """A simulated path produced a non-finite state."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class UnsupportedSchemeError(SdeControlError):
    """The requested integration scheme cannot handle the given system."""


class CapacityError(SdeControlError):
    """A computation would exceed the configured memory budget."""


class BatchFailureError(SdeControlError):
    """Too many paths in a gradient batch diverged."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
