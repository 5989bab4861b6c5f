"""Deformed Marchenko-Pastur laws, VESD statistics, and Monte Carlo experiments."""

__version__ = "0.1.0"

from mpvesd.errors import InputError, MpvesdError, NumericalError
from mpvesd.law import (
    HalfPlanePoint,
    LawVector,
    PopulationSpectrum,
    SolvedLaw,
    SolverOptions,
    density_rho2c,
    find_support,
    solve_law,
    solve_m2c,
)

__all__ = [
    "HalfPlanePoint",
    "InputError",
    "LawVector",
    "MpvesdError",
    "NumericalError",
    "PopulationSpectrum",
    "SolvedLaw",
    "SolverOptions",
    "density_rho2c",
    "find_support",
    "solve_law",
    "solve_m2c",
    "__version__",
]
