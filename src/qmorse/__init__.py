"""qmorse: exact normal-ordered Heisenberg algebra and Morse normal forms.

The engine computes in truncations of the algebra generated by adag, a, hbar
with [a, adag] = hbar over the number field Q(i, sqrt2), solves the Morse
normal-form problem for deformations of the harmonic oscillator, and checks
the Borel-analytic (Gevrey-1) growth of the resulting spectral series against
independent oracles.
"""

from ._kernel import BACKEND
from .errors import DomainError, ParseError, QMorseError, ResourceError
from .field import Coefficient
from .series import (
    QSeries,
    ScalarSeries,
    a_op,
    adag,
    const,
    harmonic,
    hbar_op,
    one,
    p_op,
    q_op,
    t_op,
    zero,
)

__all__ = [
    "BACKEND",
    "Coefficient",
    "DomainError",
    "ParseError",
    "QMorseError",
    "QSeries",
    "ResourceError",
    "ScalarSeries",
    "a_op",
    "adag",
    "const",
    "harmonic",
    "hbar_op",
    "one",
    "p_op",
    "q_op",
    "t_op",
    "zero",
]

__version__ = "0.1.0"
