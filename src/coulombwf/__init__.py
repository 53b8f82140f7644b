"""Exact closed-form regular and irregular Coulomb bound-state radial solutions.

The regular solution decays and is polynomial-times-exponential; its irregular
partner adds a Laurent-polynomial-times-growing-exponential part and a single
exponential-integral term.  Both are constructed in exact rational arithmetic,
verified symbolically against the radial equation and by independent
principal-value quadrature, and evaluated numerically with error estimates.
"""

from .closedform import (
    InvalidQuantumNumbers,
    QuantumNumbers,
    Radial,
    assemble_R1,
    assemble_R2,
    energy,
    laguerre_L1,
    p2_recurrence,
)
from .numeval import (
    DomainError,
    OverflowSignal,
    ei_with_error,
    eval_form_extended,
    eval_grid,
)
from .ratpoly import RatPoly, ZeroDenominator

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "InvalidQuantumNumbers",
    "OverflowSignal",
    "QuantumNumbers",
    "RatPoly",
    "Radial",
    "ZeroDenominator",
    "assemble_R1",
    "assemble_R2",
    "ei_with_error",
    "energy",
    "eval_form_extended",
    "eval_grid",
    "laguerre_L1",
    "p2_recurrence",
    "__version__",
]
