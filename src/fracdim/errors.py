"""Exception types shared across the package."""


class FracdimError(Exception):
    """Base class for all package-specific errors."""


class NonConvergedQuadrature(FracdimError):
    """Adaptive quadrature failed to meet its error target."""


class MeshTooFine(FracdimError):
    """A discretization request would exceed the configured point cap."""


class NetTooLarge(FracdimError):
    """A net exceeds the dense kernel-matrix cap."""


class TooLarge(FracdimError):
    """An exhaustive enumeration would exceed its budget."""


class DegenerateLadder(FracdimError):
    """A scale ladder carries no usable signal (constant counts)."""


class CertificateFailed(FracdimError):
    """A minimizer failed its optimality certificate (duality gap or sign)."""


class MaxIterExceeded(FracdimError):
    """Iteration budget exhausted before the convergence test was met.

    Carries the best iterate found so far in ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
