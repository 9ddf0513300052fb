import math

import pytest

from mushy import Face, inverse_convective, inverse_dirichlet, solve_convective_case, solve_dirichlet_case
from mushy.errors import ConvergenceError, SolverError
from mushy.manufacture import manufacture
from mushy.model import BoundaryData, MushyCoefficients, ProblemInstance, ThermalCoefficients, UnknownCase

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


def assert_value_or_solver_error(rows) -> None:
    """Each (face, case, thermal, mushy, boundary) row solves to a positive
    finite value or raises a SolverError other than ConvergenceError, and its
    restriction pass raises nothing but a SolverError."""
    for face, case, thermal, mushy, boundary in rows:
        inverse = inverse_convective if face is Face.CONVECTIVE else inverse_dirichlet
        solver = solve_convective_case if face is Face.CONVECTIVE else solve_dirichlet_case
        try:
            value = solver(case, thermal, mushy, boundary).value
        except ConvergenceError:
            pytest.fail(f"ConvergenceError: {face.value} {case.value} {thermal} {mushy} {boundary}")
        except SolverError:
            pass
        else:
            assert 0.0 < value < math.inf, (face, case, thermal, mushy, boundary)
        try:
            inverse.check_all(case, thermal, mushy, boundary)
        except SolverError:
            pass


@pytest.fixture(scope="session")
def convective_example():
    return manufacture(h0=2.0, **REF_KWARGS)


@pytest.fixture(scope="session")
def dirichlet_example():
    return manufacture(face=Face.DIRICHLET, **REF_KWARGS)


def verify_exits(draws, faces, tmp_path, monkeypatch) -> dict:
    """``mushy verify`` on every cell of ``draws`` on ``faces`` that the
    case solver answers: the count of each exit code and of the cells
    answered, and the calls into cli._record_units: verify checks every
    answered cell in the units of its solution record, one fit each."""
    from mushy import cli

    fits, fit = [], cli._record_units
    monkeypatch.setattr(cli, "_record_units", lambda *args: fits.append(args) or fit(*args))
    exits = {}
    path = tmp_path / "draw.ini"
    for data in draws:
        for face in faces:
            solve = inverse_convective.solve_case if face is Face.CONVECTIVE else inverse_dirichlet.solve_dirichlet_case
            for case in UnknownCase:
                given = {name: None if name == case.value else value for name, value in data.items()}
                thermal = ThermalCoefficients(**{name: given[name] for name in ("l", "k", "rho", "c")})
                mushy = MushyCoefficients(epsilon=given["epsilon"], gamma=given["gamma"])
                boundary = BoundaryData(q0=data["q0"], d_inf=data["d_inf"],
                                        h0=data["h0"] if face is Face.CONVECTIVE else None)
                try:
                    solve(case, thermal, mushy, boundary)
                except SolverError:
                    continue
                exits["answered"] = exits.get("answered", 0) + 1
                path.write_text(cli.scenario_to_ini(ProblemInstance(face, case, thermal, mushy, boundary)))
                code = cli.main(["verify", str(path)])  # any error but a SolverError propagates
                exits[code] = exits.get(code, 0) + 1
    assert len(fits) == exits.get("answered", 0), (len(fits), exits)
    return exits
