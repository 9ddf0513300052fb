"""One-phase solidification with an isothermal mushy zone.

Explicit similarity solutions for a semi-infinite material solidifying
under a prescribed heat flux q0/sqrt(t) at the fixed face, with the latent
heat released partly at the solid front s(t) and partly at the liquid
front r(t) of an isothermal mushy zone.  Overspecifying the face with a
convective or a prescribed-temperature condition makes one thermal
coefficient recoverable from the data; this package computes the
temperature field, both free boundaries and any one of the six
coefficients (latent heat, zone gradient datum, latent-heat split,
conductivity, density, specific heat), checks every solvability
restriction, and verifies results against the governing equations.
"""

from .errors import (
    BracketOverflowError,
    ConvergenceError,
    DomainError,
    IllConditionedWarning,
    NoRootError,
    NumericalError,
    RestrictionError,
    SolverError,
    ValidationError,
)
from .model import (
    BoundaryData,
    CaseResult,
    Face,
    MushyCoefficients,
    ProblemInstance,
    RestrictionReport,
    SimilaritySolution,
    ThermalCoefficients,
    UnknownCase,
    validate,
)
from .specfun import erf, erf_inv, erfc
from .rootfind import MonotoneEquation, solve_increasing
from .direct import (
    ConsistencyResiduals,
    Region,
    build_solution,
    consistency_residuals,
    front_r,
    front_s,
    temperature,
)
from .manufacture import ManufacturedProblem, manufacture, random_problem
from . import inverse_convective, inverse_dirichlet, verify
from .inverse_dirichlet import LimitStudy, limit_study, solve_dirichlet_case
from .inverse_convective import solve_case as solve_convective_case

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SolverError",
    "DomainError",
    "ValidationError",
    "RestrictionError",
    "NumericalError",
    "NoRootError",
    "BracketOverflowError",
    "ConvergenceError",
    "IllConditionedWarning",
    # model
    "Face",
    "UnknownCase",
    "ThermalCoefficients",
    "MushyCoefficients",
    "BoundaryData",
    "SimilaritySolution",
    "RestrictionReport",
    "CaseResult",
    "ProblemInstance",
    "validate",
    # kernels and solvers
    "erf",
    "erfc",
    "erf_inv",
    "MonotoneEquation",
    "solve_increasing",
    "Region",
    "ConsistencyResiduals",
    "build_solution",
    "temperature",
    "front_s",
    "front_r",
    "consistency_residuals",
    "ManufacturedProblem",
    "manufacture",
    "random_problem",
    "solve_convective_case",
    "solve_dirichlet_case",
    "LimitStudy",
    "limit_study",
    "inverse_convective",
    "inverse_dirichlet",
    "verify",
]
