"""Exception types shared across the package."""


class FracdimError(Exception):
    """Base class for all package-specific errors."""


class NonConvergedQuadrature(FracdimError):
    """Adaptive quadrature failed to meet its error target."""


class MeshTooFine(FracdimError):
    """A net would peak above MEMORY_BUDGET as it is built, or pass float resolution."""


class NetTooLarge(FracdimError):
    """A rung or image experiment would hold more than MEMORY_BUDGET bytes."""


class TooLarge(FracdimError):
    """An exhaustive enumeration would exceed its budget."""


class DegenerateLadder(FracdimError):
    """A scale ladder carries no usable signal (constant counts)."""


class CertificateFailed(FracdimError):
    """A minimizer failed its optimality certificate (duality gap or sign)."""

