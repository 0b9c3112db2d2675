"""Exception types shared across the package."""


class SinoError(Exception):
    """Base class for all package-specific errors."""


class IncompatibleDomain(SinoError):
    """Two grids that must share a physical domain do not."""


class NonFinite(SinoError):
    """A computation produced NaN or Inf (instability)."""

    def __init__(self, message, time=None, step=None):
        super().__init__(message)
        self.time = time
        self.step = step


class InsufficientLength(SinoError):
    """A trajectory is too short for the requested curriculum window."""


class ContainerError(SinoError):
    """A dataset or checkpoint container is malformed or corrupted."""
