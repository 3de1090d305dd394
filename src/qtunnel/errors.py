"""Exception hierarchy shared by all qtunnel modules.

Every numerical or domain failure raises a subclass of :class:`QTunnelError`,
so callers (and the CLI) can distinguish physics/numerics problems from
configuration mistakes.
"""


class QTunnelError(Exception):
    """Base class for all qtunnel errors."""


class DomainError(QTunnelError, ValueError):
    """Input outside the mathematical domain of an operation."""


class AboveBarrierError(DomainError):
    """E >= V0: the tunneling formulas are invalid above the barrier."""


class ConvergenceError(QTunnelError):
    """A series or iteration failed to converge."""


class PrecisionError(ConvergenceError):
    """A result could not be produced at the requested accuracy."""


class TachyonicModeError(DomainError):
    """omega_n(t)^2 <= 0 somewhere on the trajectory (coupling too negative)."""


class NodeSingularityError(QTunnelError):
    """Wavefunction node inside the evaluation window of the quantum potential."""

    def __init__(self, message: str, location: float | None = None):
        super().__init__(message)
        self.location = location


class TurningPointTopologyError(QTunnelError):
    """Bracket does not contain exactly one barrier (zero or >2 roots of V=E)."""


class DegenerateTurningPointError(QTunnelError):
    """V'(x0) = 0 at a turning point; the linearized patch is undefined."""


class ThinBarrierError(QTunnelError):
    """Airy patch windows overlap: barrier too thin for the WKB construction."""


class OrientationError(DomainError):
    """Turning-point slope has the wrong sign for the requested formula."""


class StiffnessError(QTunnelError):
    """Magnus evolution fails its step-doubling check or needs too many steps."""


class InconsistentBranchError(QTunnelError):
    """Mode function maps to a non-normalizable Gaussian (Im d ln xi/dt <= 0)."""


class AlignmentError(QTunnelError):
    """Profile inputs sampled on different grids cannot be combined."""


class OutOfRegimeError(QTunnelError):
    """Perturbative formula applied outside its validity window."""

    def __init__(self, message: str, exact_value: float | None = None):
        super().__init__(message)
        self.exact_value = exact_value


class ResolutionError(QTunnelError):
    """Sample grid too coarse to resolve a derivative reliably."""
