"""Exception types shared across the package."""

__all__ = [
    "InvalidParams",
    "DomainError",
    "UnsupportedMap",
    "InconsistentInput",
    "UnsupportedExpr",
]


class InvalidParams(ValueError):
    """Family parameters violate the catalog constraints."""


class DomainError(ValueError):
    """Point lies outside the domain of the requested map."""


class UnsupportedMap(ValueError):
    """The requested equivalence map is not defined for these parameters."""


class InconsistentInput(ValueError):
    """Exact-sequence data contradicts the known K-groups."""


class UnsupportedExpr(ValueError):
    """K-group calculus cannot handle this expression (torsion factors)."""
