import math
from dataclasses import replace

import pytest

from mushy.cli import Scenario
from mushy.direct import ConsistencyResiduals
from mushy.errors import ValidationError
from mushy.inverse_dirichlet import LimitStudy
from mushy.manufacture import ManufacturedProblem
from mushy.model import (
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
    with_coefficient,
)
from mushy.verify import ConditionResiduals, PdeResidual

THERMAL_NO_L = ThermalCoefficients(l=None, k=1.0, rho=1.0, c=1.0)
MUSHY = MushyCoefficients(epsilon=0.5, gamma=0.1)
BOUNDARY = BoundaryData(q0=1.0, d_inf=1.4226, h0=2.0)


def test_validate_accepts_latent_heat_case():
    instance = validate(THERMAL_NO_L, MUSHY, BOUNDARY, case=UnknownCase.L)
    assert instance.face is Face.CONVECTIVE
    assert instance.case is UnknownCase.L
    assert instance.thermal.alpha == 1.0


def test_alpha_matches_direct_ratio():
    thermal = ThermalCoefficients(l=2.0, k=3.0, rho=5.0, c=7.0)
    assert thermal.alpha == 3.0 / (5.0 * 7.0)


def test_alpha_is_none_while_incomplete():
    assert THERMAL_NO_L.alpha == 1.0  # l does not enter alpha
    assert ThermalCoefficients(l=1.0, k=None, rho=1.0, c=1.0).alpha is None


def test_epsilon_outside_unit_interval_rejected():
    bad = MushyCoefficients(epsilon=1.2, gamma=0.1)
    with pytest.raises(ValidationError):
        validate(THERMAL_NO_L, bad, BOUNDARY, case=UnknownCase.L)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2])
def test_epsilon_boundaries_are_exclusive(eps):
    with pytest.raises(ValidationError):
        validate(THERMAL_NO_L, MushyCoefficients(epsilon=eps, gamma=0.1), BOUNDARY, case=UnknownCase.L)


def test_over_specified_unknown_rejected():
    full = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)
    with pytest.raises(ValidationError):
        validate(full, MUSHY, BOUNDARY, case=UnknownCase.K)


def test_missing_known_coefficient_rejected():
    gap = ThermalCoefficients(l=None, k=None, rho=1.0, c=1.0)
    with pytest.raises(ValidationError):
        validate(gap, MUSHY, BOUNDARY, case=UnknownCase.L)


@pytest.mark.parametrize("field,value", [("q0", 0.0), ("q0", -1.0), ("d_inf", 0.0), ("d_inf", math.nan)])
def test_boundary_data_must_be_positive_finite(field, value):
    data = {"q0": 1.0, "d_inf": 1.4226, "h0": 2.0}
    data[field] = value
    with pytest.raises(ValidationError):
        validate(THERMAL_NO_L, MUSHY, BoundaryData(**data), case=UnknownCase.L)


def test_convective_face_requires_h0():
    no_h0 = BoundaryData(q0=1.0, d_inf=1.4226, h0=None)
    with pytest.raises(ValidationError):
        validate(THERMAL_NO_L, MUSHY, no_h0, case=UnknownCase.L, face=Face.CONVECTIVE)


def test_infinite_h0_is_the_prescribed_temperature_limit():
    inf_h0 = BoundaryData(q0=1.0, d_inf=1.4226, h0=math.inf)
    instance = validate(THERMAL_NO_L, MUSHY, inf_h0, case=UnknownCase.L, face=Face.CONVECTIVE)
    assert instance.boundary.h0 == math.inf


def test_dirichlet_face_discards_h0():
    instance = validate(THERMAL_NO_L, MUSHY, BOUNDARY, case=UnknownCase.L, face=Face.DIRICHLET)
    assert instance.boundary == BoundaryData(q0=BOUNDARY.q0, d_inf=BOUNDARY.d_inf, h0=None)
    assert instance.thermal is THERMAL_NO_L and instance.mushy is MUSHY


def test_validate_idempotent():
    first = validate(THERMAL_NO_L, MUSHY, BOUNDARY, case=UnknownCase.L)
    second = validate(first.thermal, first.mushy, first.boundary, case=first.case, face=first.face)
    assert first == second


def test_with_coefficient_sets_one_slot_of_one_record():
    thermal, mushy = with_coefficient(THERMAL_NO_L, MUSHY, UnknownCase.L, 1.5)
    assert thermal == ThermalCoefficients(l=1.5, k=1.0, rho=1.0, c=1.0)
    assert mushy is MUSHY
    for case in UnknownCase:
        thermal, mushy = with_coefficient(FULL_THERMAL, MUSHY, case, None)
        blanked = [name for name, value in {**vars(thermal), **vars(mushy)}.items() if value is None]
        assert blanked == [case.value]
    _, mushy = with_coefficient(THERMAL_NO_L, MUSHY, UnknownCase.GAMMA, 0.25)
    assert mushy == MushyCoefficients(epsilon=0.5, gamma=0.25)


def test_direct_mode_requires_everything():
    with pytest.raises(ValidationError):
        validate(THERMAL_NO_L, MUSHY, BOUNDARY, case=None)
    full = ThermalCoefficients(l=1.0, k=1.0, rho=1.0, c=1.0)
    instance = validate(full, MUSHY, BOUNDARY, case=None)
    assert instance.case is None


FULL_THERMAL = ThermalCoefficients(l=1.0, k=2.0, rho=3.0, c=4.0)
COEFFICIENT_CASES = {case.value: case for case in UnknownCase}


def _with_field(name, value):
    """Full convective data with one field replaced by ``value``."""
    thermal, mushy, boundary = FULL_THERMAL, MUSHY, BOUNDARY
    if name in ("l", "k", "rho", "c"):
        thermal = replace(thermal, **{name: value})
    elif name in ("epsilon", "gamma"):
        mushy = replace(mushy, **{name: value})
    else:
        boundary = replace(boundary, **{name: value})
    return thermal, mushy, boundary


def _rejections():
    for name in ("l", "k", "rho", "c", "epsilon", "gamma", "q0", "d_inf", "h0"):
        for value in (0.0, -1.0, math.nan, -math.inf):
            yield name, value, f"{name} must be positive, got {value!r}"
        if name in COEFFICIENT_CASES:
            yield name, math.inf, f"coefficient {name!r} must be finite, got inf"
            yield name, None, f"coefficient {name!r} is required but missing"
        elif name != "h0":  # h0 = inf is the Dirichlet limit
            yield name, math.inf, f"{name} must be finite, got inf"
            yield name, None, f"{name} is required but missing"
    yield "h0", None, "the convective problem requires h0"


@pytest.mark.parametrize("name,value,message", list(_rejections()))
def test_validate_rejects_each_field_with_its_message(name, value, message):
    case = UnknownCase.K if name == "l" else UnknownCase.L
    thermal, mushy, boundary = _with_field(name, value)
    thermal = replace(thermal, **{case.value: None})
    with pytest.raises(ValidationError) as err:
        validate(thermal, mushy, boundary, case=case)
    assert str(err.value) == message


@pytest.mark.parametrize("case", list(UnknownCase))
def test_validate_rejects_a_value_in_the_unknown_slot(case):
    value = getattr(FULL_THERMAL, case.value, None) or getattr(MUSHY, case.value)
    with pytest.raises(ValidationError) as err:
        validate(FULL_THERMAL, MUSHY, BOUNDARY, case=case)
    assert str(err.value) == f"coefficient {case.value!r} is declared unknown but a value {value!r} was supplied"


@pytest.mark.parametrize("face", list(Face))
def test_validate_returns_normal_records_unchanged(face):
    boundary = BOUNDARY if face is Face.CONVECTIVE else replace(BOUNDARY, h0=None)
    instance = validate(THERMAL_NO_L, MUSHY, boundary, case=UnknownCase.L, face=face)
    assert instance.thermal is THERMAL_NO_L
    assert instance.mushy is MUSHY
    assert instance.boundary is boundary


class _Float(float):
    pass


def test_validate_copies_non_float_numbers_into_exact_floats():
    thermal = ThermalCoefficients(l=None, k=2, rho=_Float(3.0), c=4.0)
    mushy = MushyCoefficients(epsilon=_Float(0.5), gamma=1)
    boundary = BoundaryData(q0=1, d_inf=_Float(2.0), h0=_Float(math.inf))
    instance = validate(thermal, mushy, boundary, case=UnknownCase.L)
    assert instance.thermal == ThermalCoefficients(l=None, k=2.0, rho=3.0, c=4.0)
    assert instance.mushy == MushyCoefficients(epsilon=0.5, gamma=1.0)
    assert instance.boundary == BoundaryData(q0=1.0, d_inf=2.0, h0=math.inf)
    records = (instance.thermal, instance.mushy, instance.boundary)
    assert all(new is not old for new, old in zip(records, (thermal, mushy, boundary)))
    assert all(v is None or type(v) is float for r in records for v in vars(r).values())


def test_unknown_case_tokens():
    assert {c.value for c in UnknownCase} == {"l", "gamma", "epsilon", "k", "rho", "c"}


def test_restriction_report_margin_orientation():
    ok = RestrictionReport(restriction_id="R1", satisfied=True, lhs=1.0, rhs=2.0)
    assert ok.margin == 1.0
    tight = RestrictionReport(restriction_id="R1", satisfied=False, lhs=2.0, rhs=2.0)
    assert tight.margin == 0.0  # equality counts as violation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(a_coef=-1.0, b_coef=1.0, xi=0.0, mu=0.6, alpha=1.0),
        dict(a_coef=-1.0, b_coef=1.0, xi=0.5, mu=0.5, alpha=1.0),
        dict(a_coef=-1.0, b_coef=-1.0, xi=0.5, mu=0.6, alpha=1.0),
        dict(a_coef=-1.0, b_coef=1.0, xi=0.5, mu=0.6, alpha=0.0),
    ],
)
def test_similarity_solution_shape_checks(kwargs):
    with pytest.raises(ValidationError) as built:
        SimilaritySolution(**kwargs)
    with pytest.raises(ValidationError) as replaced:
        SOLUTION._replace(**kwargs)
    assert str(replaced.value) == str(built.value)


SOLUTION = SimilaritySolution(a_coef=-1.0, b_coef=1.0, xi=0.5, mu=0.6, alpha=1.0)
REPORT = RestrictionReport(restriction_id="R1", satisfied=True, lhs=1.0, rhs=2.0)
_SOLUTION_REPR = "SimilaritySolution(a_coef=-1.0, b_coef=1.0, xi=0.5, mu=0.6, alpha=1.0)"
_REPORT_REPR = "RestrictionReport(restriction_id='R1', satisfied=True, lhs=1.0, rhs=2.0, note='')"
_DATA_REPR = (
    "thermal=ThermalCoefficients(l=1.0, k=2.0, rho=3.0, c=4.0), mushy=MushyCoefficients(epsilon=0.5, gamma=0.1), "
    "boundary=BoundaryData(q0=1.0, d_inf=1.4226, h0=2.0)"
)

#: Every output record: an example, its field names and its repr, each as
#: the record had it as a frozen dataclass.
OUTPUT_RECORDS = [
    (SOLUTION, ("a_coef", "b_coef", "xi", "mu", "alpha"), _SOLUTION_REPR),
    (REPORT, ("restriction_id", "satisfied", "lhs", "rhs", "note"), _REPORT_REPR),
    (
        CaseResult(case=UnknownCase.L, value=1.5, xi=0.5, solution=SOLUTION, reports=(REPORT,)),
        ("case", "value", "xi", "solution", "reports"),
        f"CaseResult(case=<UnknownCase.L: 'l'>, value=1.5, xi=0.5, solution={_SOLUTION_REPR}, reports=({_REPORT_REPR},))",
    ),
    (
        ProblemInstance(face=Face.CONVECTIVE, case=None, thermal=FULL_THERMAL, mushy=MUSHY, boundary=BOUNDARY),
        ("face", "case", "thermal", "mushy", "boundary"),
        f"ProblemInstance(face=<Face.CONVECTIVE: 'convective'>, case=None, {_DATA_REPR})",
    ),
    (
        ConsistencyResiduals(res_stefan=1e-16, res_face=-2e-16),
        ("res_stefan", "res_face"),
        "ConsistencyResiduals(res_stefan=1e-16, res_face=-2e-16)",
    ),
    (
        PdeResidual(pde_residual_max=1e-09, fd_step=0.0001),
        ("pde_residual_max", "fd_step"),
        "PdeResidual(pde_residual_max=1e-09, fd_step=0.0001)",
    ),
    (
        ConditionResiduals(condition_residuals={"flux": 0.0}),
        ("condition_residuals",),
        "ConditionResiduals(condition_residuals={'flux': 0.0})",
    ),
    (
        LimitStudy(h0_grid=(10.0,), xi_conv=(0.4,), coeff_conv=(1.5,), xi_dirichlet=0.5, coeff_dirichlet=1.25,
                   fitted_slope=None, excluded=((1.0, (REPORT,)),)),
        ("h0_grid", "xi_conv", "coeff_conv", "xi_dirichlet", "coeff_dirichlet", "fitted_slope", "excluded"),
        "LimitStudy(h0_grid=(10.0,), xi_conv=(0.4,), coeff_conv=(1.5,), xi_dirichlet=0.5, coeff_dirichlet=1.25, "
        f"fitted_slope=None, excluded=((1.0, ({_REPORT_REPR},)),))",
    ),
    (
        ManufacturedProblem(face=Face.CONVECTIVE, thermal=FULL_THERMAL, mushy=MUSHY, boundary=BOUNDARY, xi=0.5),
        ("face", "thermal", "mushy", "boundary", "xi"),
        f"ManufacturedProblem(face=<Face.CONVECTIVE: 'convective'>, {_DATA_REPR}, xi=0.5)",
    ),
    (
        Scenario(problem=Face.CONVECTIVE, case=UnknownCase.L, thermal=FULL_THERMAL, mushy=MUSHY, boundary=BOUNDARY),
        ("problem", "case", "thermal", "mushy", "boundary"),
        f"Scenario(problem=<Face.CONVECTIVE: 'convective'>, case=<UnknownCase.L: 'l'>, {_DATA_REPR})",
    ),
]


@pytest.mark.parametrize(
    "record,names,text", OUTPUT_RECORDS, ids=[type(record).__name__ for record, _, _ in OUTPUT_RECORDS]
)
def test_output_records_keep_their_contract(record, names, text):
    assert record._fields == names
    assert tuple(record) == tuple(getattr(record, name) for name in names)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, names[0], getattr(record, names[0]))
    with pytest.raises(AttributeError):
        record.extra = 1.0
