"""Barrier tunneling in the quantum-potential picture with back reaction.

The stationary Schrodinger problem is mapped, through the polar form
R exp(iW/hbar) of the wavefunction, onto classical mechanics in the total
potential V + V_Q with V_Q = -hbar^2 R''/(2 M R).  The effective classical
particle rolls through the barrier in real time; environment oscillators
parametrically excited by that motion raise the effective potential and
suppress the transmission probability.

Modules: ``core`` (parameter records), ``errors`` (exception hierarchy),
``specfun`` (complex-parameter hypergeometric kernel), ``airy`` (Airy
functions), ``rect`` (exact rectangular barrier), ``wkb`` (patched
semiclassical profiles), ``modes`` (Gaussian environment modes),
``backreaction`` (effective potential and modified rate), ``config`` (run
configuration), ``csvfmt`` (CSV rows), ``cli`` (driver).
"""

from .core import EnvMode, PhysicalParams, RectBarrier, SmoothPotential, wave_numbers
from .errors import QTunnelError

__version__ = "0.1.0"

__all__ = [
    "EnvMode",
    "PhysicalParams",
    "QTunnelError",
    "RectBarrier",
    "SmoothPotential",
    "wave_numbers",
    "__version__",
]
