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

Importing the package imports none of its modules.  Each public name is
resolved on first use (PEP 562) from the module that defines it and then
cached here, so ``import mushy.cli`` loads only what the CLI imports.
"""

import importlib
import sys
import types

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

#: The public names, by the module that defines them; ``None`` stands for
#: the module itself.  The package's modules are reachable as attributes, as
#: when they were all imported eagerly (except ``cli``, and ``manufacture``,
#: which is the function).
_EXPORTS = {
    "errors": (
        None,
        "SolverError",
        "DomainError",
        "ValidationError",
        "RestrictionError",
        "NumericalError",
        "NoRootError",
        "BracketOverflowError",
        "ConvergenceError",
        "IllConditionedWarning",
    ),
    "model": (
        None,
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
    ),
    "specfun": (None, "erf", "erfc", "erf_inv"),
    "rootfind": (None, "MonotoneEquation", "solve_increasing"),
    "direct": (
        None,
        "Region",
        "ConsistencyResiduals",
        "build_solution",
        "temperature",
        "front_s",
        "front_r",
        "consistency_residuals",
    ),
    "manufacture": ("ManufacturedProblem", "manufacture", "random_problem"),
    "inverse_convective": (None,),
    "inverse_dirichlet": (None, "LimitStudy", "limit_study", "solve_dirichlet_case"),
    "verify": (None,),
}
_ORIGIN = {attr or module: (module, attr) for module, attrs in _EXPORTS.items() for attr in attrs}
_ORIGIN["solve_convective_case"] = ("inverse_convective", "solve_case")


def __getattr__(name: str):
    """Import ``name``'s module on its first use and cache ``name`` here."""
    try:
        module, attr = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a module binds it onto the package under its own name;
        # ``mushy.manufacture`` stays the function of that name.
        if name == "manufacture" and isinstance(value, types.ModuleType):
            value = value.manufacture
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
