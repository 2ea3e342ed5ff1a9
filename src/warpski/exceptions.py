"""Exception types raised by the library."""


class WarpskiError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(WarpskiError):
    """Operand shapes or kernel arities do not agree."""


class OutOfDomainError(WarpskiError):
    """A point lies outside a polynomial warp's domain or its image."""


class MonotonicityError(WarpskiError):
    """A warp component is not strictly increasing over its domain."""


class GridError(WarpskiError):
    """Invalid inducing grid construction (count, bounds or axis warps)."""


class InterpolationRegionError(WarpskiError):
    """A point lies outside the stencil-safe interior of the grid."""


class NonFiniteInputError(WarpskiError):
    """Input data, or values computed from them, hold a nan or inf."""


class NotPositiveDefiniteError(WarpskiError):
    """An operator or factor that must be positive (semi)definite is not."""


class ConfigError(WarpskiError):
    """Invalid experiment or model configuration."""


class CsvFormatError(WarpskiError):
    """Malformed CSV input."""
