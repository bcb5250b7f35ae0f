"""Exception types shared across the package, and the checks of sizes and parsed numbers."""

import numpy as np


class ShapeError(ValueError):
    """Input dimensions do not match what an operation requires."""


class CompositionError(ValueError):
    """Two networks cannot be chained at their shared interface."""


class ParseError(ValueError):
    """A serialized document is malformed.

    ``offset`` is the byte/character position in the stream where parsing
    failed, when known.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class CertificateError(ValueError):
    """A target's declared smoothness certificate is inconsistent."""


class DegenerateGridError(ValueError):
    """Construction parameters lead to a grid too coarse to carry samples."""


class ResolutionError(ValueError):
    """Requested configuration would push grid spacing below f64 resolution."""


class ResourceError(ValueError):
    """A measurement grid exceeds the configured point cap."""


class RegistryError(LookupError):
    """An identifier does not name a registered target family or suite."""


class ConstructionInfeasibleError(RuntimeError):
    """No representable don't-care width meets the requested error budget.

    ``achieved`` is the error measured at the smallest admissible width and
    ``delta`` is that width.
    """

    def __init__(self, message, achieved=None, delta=None):
        super().__init__(message)
        self.achieved = achieved
        self.delta = delta


def _integer(value, name: str, error=ValueError) -> int:
    """``value`` as a positive int: ints and numpy integers pass, bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _floats(value, name: str) -> np.ndarray:
    """A parsed JSON array of numbers as floats; anything else raises ``ParseError``."""
    entries = np.array(value, dtype=object)
    try:
        if all(type(v) in (int, float) for v in entries.flat):
            return entries.astype(float)
    except OverflowError:
        pass
    raise ParseError(f"{name} must be a rectangular array of numbers")
