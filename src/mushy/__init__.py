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
cached here, so ``import mushy.cli`` loads only what the CLI imports.  The
package re-exports the records, the errors and the two case solvers; every
other name is imported from its module (``from mushy import verify`` and
the like import the module itself).
"""

import importlib

__version__ = "0.1.0"

#: Public name -> (defining module, attribute there).
_ORIGIN = {
    "Face": ("model", "Face"),
    "UnknownCase": ("model", "UnknownCase"),
    "ThermalCoefficients": ("model", "ThermalCoefficients"),
    "MushyCoefficients": ("model", "MushyCoefficients"),
    "BoundaryData": ("model", "BoundaryData"),
    "CaseResult": ("model", "CaseResult"),
    "SolverError": ("errors", "SolverError"),
    "ValidationError": ("errors", "ValidationError"),
    "DomainError": ("errors", "DomainError"),
    "RestrictionError": ("errors", "RestrictionError"),
    "NumericalError": ("errors", "NumericalError"),
    "random_problem": ("manufacture", "random_problem"),
    "solve_convective_case": ("inverse_convective", "solve_case"),
    "solve_dirichlet_case": ("inverse_dirichlet", "solve_dirichlet_case"),
}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    """Import ``name``'s module on its first use and cache ``name`` here."""
    try:
        module, attr = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})
