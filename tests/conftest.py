import pytest

from mushy import Face
from mushy.manufacture import manufacture
from mushy.model import BoundaryData, MushyCoefficients, ThermalCoefficients, UnknownCase

# Shared reference data set: unit thermal coefficients, mid-range mushy
# parameters, front position chosen first and the latent heat / face datum
# derived from it, so every solver must reproduce xi = 0.5 exactly.
XI_REF = 0.5
REF_KWARGS = dict(xi=XI_REF, k=1.0, rho=1.0, c=1.0, epsilon=0.5, gamma=0.1, q0=1.0)

# Valid data whose arithmetic leaves the double range, as (face, case,
# thermal, mushy, boundary).  The first gave a recovered l of inf; in the
# second rho k underflows to 0.
OUT_OF_RANGE_ROWS = [
    (Face.CONVECTIVE, UnknownCase.L,
     ThermalCoefficients(k=5.16844369192843e-148, rho=8.664806601097034e-43, c=8.687785503951697e+149),
     MushyCoefficients(epsilon=0.24364923757207507, gamma=1.8281185597363137e-12),
     BoundaryData(q0=7.727280325401316e+54, d_inf=1.2396910692340926e-110, h0=7.241410065476199e+189)),
    (Face.CONVECTIVE, UnknownCase.L, ThermalCoefficients(k=1e-300, rho=1e-300, c=1.0),
     MushyCoefficients(epsilon=0.5, gamma=0.1), BoundaryData(q0=1.0, d_inf=1.0, h0=2.0)),
]


@pytest.fixture(scope="session")
def convective_example():
    return manufacture(h0=2.0, **REF_KWARGS)


@pytest.fixture(scope="session")
def dirichlet_example():
    return manufacture(face=Face.DIRICHLET, **REF_KWARGS)
