"""Exception types shared across the package."""

from __future__ import annotations


class InvalidMatrixError(ValueError):
    """Transition or stochastic matrix fails a structural requirement."""


class NotErgodicError(ValueError):
    """Stochastic matrix is not supported on an irreducible pattern."""


class IncomparableWindowsError(ValueError):
    """Two symbol windows share no index range."""


class WindowTooShortError(ValueError):
    """A symbol window does not cover the index range an operation needs."""

    def __init__(self, needed: tuple[int, int], have: tuple[int, int], what: str = "operation"):
        self.needed = needed
        self.have = have
        super().__init__(
            f"{what} needs symbols on [{needed[0]}, {needed[1]}], "
            f"window covers [{have[0]}, {have[1]}]"
        )


class IncompatibleProductsError(ValueError):
    """Two skew products disagree on base or dependence window."""


class InvalidApproximationError(ValueError):
    """A truncated fiber map left the admissible map class."""


class FamilyRangeError(ValueError):
    """Parameter outside a family's range, or a member left the map class."""


class InvalidRegionError(ValueError):
    """Boxes that form no region: arrays of different lengths, ranks that are not integers or not
    in the word table, intervals outside [0, 1], boxes on one word that overlap or are out of
    (rank, lo) order, or regions over different bases."""


class ToleranceError(ValueError):
    """A statistical tolerance is too small relative to sampling noise."""


class ResourceBoundError(RuntimeError):
    """A window or depth request exceeds the enforced resource bound."""


class ConfigError(ValueError):
    """Configuration file problem, anchored to a field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _file_error(field: str, path, exc: OSError | UnicodeDecodeError) -> ConfigError:
    """A file that cannot be opened, read or written, as a ConfigError at the field that names it."""
    return ConfigError(field, f"{getattr(exc, 'filename', None) or path}: {getattr(exc, 'strerror', None) or exc}")
