"""Exception hierarchy shared by all solver modules."""


class KratzerError(Exception):
    """Base class for every error raised by this package."""


class DomainError(KratzerError, ValueError):
    """A requested quantity is undefined for the given inputs."""


class StructuralConstraintError(DomainError):
    """Couplings violate the structural constraints of a closed-form case."""


class FallToCenterError(DomainError):
    """The origin singularity is supercritical: no self-adjoint ground state."""


class NoBoundStateError(KratzerError):
    """A requested bound-state level does not exist for these couplings."""


class ConvergenceError(KratzerError, RuntimeError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class QuadratureError(ConvergenceError):
    """Quadrature failed its refinement check or left the float range."""
