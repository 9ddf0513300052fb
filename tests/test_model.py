import enum
import hashlib
import math
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from mushy import solve_convective_case, solve_dirichlet_case
from mushy.errors import ValidationError
from mushy.manufacture import random_problem
from mushy.model import (
    BoundaryData,
    Face,
    MushyCoefficients,
    RestrictionReport,
    SimilaritySolution,
    ThermalCoefficients,
    UnknownCase,
    validate,
    with_coefficient,
)
from output_record_contract import OUTPUT_RECORDS, SOLUTION, check as check_output_record

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


@pytest.mark.parametrize("value", [2.5, None])
@pytest.mark.parametrize("case", list(UnknownCase))
def test_with_coefficient_copy_is_the_record_replace_builds(case, value):
    # with_coefficient copies the record without running its __init__, so
    # the copy must match what dataclasses.replace builds through it, and
    # no input record may grow a __post_init__ that the copy would skip.
    before = (replace(FULL_THERMAL), replace(MUSHY))
    thermal, mushy = with_coefficient(FULL_THERMAL, MUSHY, case, value)
    assert (FULL_THERMAL, MUSHY) == before
    if case.value in ("l", "k", "rho", "c"):
        assert mushy is MUSHY
        new, old = thermal, FULL_THERMAL
    else:
        assert thermal is FULL_THERMAL
        new, old = mushy, MUSHY
    assert not hasattr(type(old), "__post_init__")
    expected = replace(old, **{case.value: value})
    assert type(new) is type(old)
    assert new == expected and hash(new) == hash(expected)
    assert new is not old
    with pytest.raises(FrozenInstanceError):
        setattr(new, case.value, 1.0)


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
def test_validate_refuses_a_case_that_is_no_member(face):
    # A member's value is not the member: validate's direct mode is None.
    # Complete data in the band take the inline pass, which refuses it too.
    boundary = BOUNDARY if face is Face.CONVECTIVE else replace(BOUNDARY, h0=None)
    for thermal, case in ((THERMAL_NO_L, "l"), (FULL_THERMAL, "l"), (FULL_THERMAL, "k"), (FULL_THERMAL, 1)):
        with pytest.raises(ValidationError) as err:
            validate(thermal, MUSHY, boundary, case=case, face=face)
        assert str(err.value) == f"case must be an UnknownCase member, got {case!r}"


@pytest.mark.parametrize("face", ["convective", None])
@pytest.mark.parametrize("h0", [2.0, None])
def test_validate_refuses_a_face_that_is_no_member(face, h0):
    # Neither spelling takes the Dirichlet branch, which would drop h0.
    with pytest.raises(ValidationError) as err:
        validate(THERMAL_NO_L, MUSHY, replace(BOUNDARY, h0=h0), case=UnknownCase.L, face=face)
    assert str(err.value) == f"face must be a Face member, got {face!r}"


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


GRID_VALUES = (None, 0.0, -0.0, 1, True, 0.5, _Float(0.5), 1.0, math.nan, math.inf, -math.inf,
               5e-324, 1e308, 10**400, "1")


def _validate_outcomes():
    """One line per input of the grid: both faces, ``case`` None or each
    unknown, and each of the nine fields set in turn to each of
    GRID_VALUES; the exception's type and message, or the returned
    instance's repr, the types of its fields and, per record, whether it is
    the caller's own object."""
    for face in Face:
        base = _with_field("h0", None) if face is Face.DIRICHLET else _with_field("h0", BOUNDARY.h0)
        for case in (None, *UnknownCase):
            thermal, mushy, boundary = base
            if case is not None:
                thermal, mushy = with_coefficient(thermal, mushy, case, None)
            for name in ("l", "k", "rho", "c", "epsilon", "gamma", "q0", "d_inf", "h0"):
                for value in GRID_VALUES:
                    given = [thermal, mushy, boundary]
                    index = 0 if name in ("l", "k", "rho", "c") else 1 if name in ("epsilon", "gamma") else 2
                    given[index] = replace(given[index], **{name: value})
                    try:
                        instance = validate(*given, case=case, face=face)
                    except Exception as err:
                        yield f"{face} {case} {name}={value!r}: {type(err).__name__} {err}"
                        continue
                    records = (instance.thermal, instance.mushy, instance.boundary)
                    kinds = [type(v).__name__ for r in records for v in vars(r).values()]
                    own = [new is old for new, old in zip(records, given)]
                    yield f"{face} {case} {name}={value!r}: {instance!r} {kinds} {own}"


def test_validate_outcome_grid_is_pinned():
    # 2 faces x 7 cases x 9 fields x 15 values: every message, its order of
    # checks, every normalised record and every record returned as the
    # caller's own, bit for bit.  The 10**400, "1" and True rows outside the
    # unknown slot and the ignored Dirichlet h0 (107 each) raise
    # ValidationError; every other row is as it was before they did.
    lines = list(_validate_outcomes())
    assert len(lines) == 2 * 7 * 9 * len(GRID_VALUES)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "cbab137ccb27350be547bb66fbdf802ab5edb0f1a1652751fb679a4b0c18037f"


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("k", 10**400, "k must fit in a double, got an integer outside its range"),
        ("c", -(10**400), "c must fit in a double, got an integer outside its range"),
        ("gamma", "1", "gamma must be a number, got '1'"),
        ("epsilon", True, "epsilon must be a number, got True"),
        ("q0", b"1", "q0 must be a number, got b'1'"),
        ("d_inf", False, "d_inf must be a number, got False"),
        ("h0", 10**400, "h0 must fit in a double, got an integer outside its range"),
        ("h0", "inf", "h0 must be a number, got 'inf'"),
    ],
    ids=["k-int", "c-negative-int", "gamma-str", "epsilon-true", "q0-bytes", "d_inf-false", "h0-int", "h0-str"],
)
def test_validate_rejects_text_bool_and_out_of_range_integers(name, value, message):
    with pytest.raises(ValidationError) as err:
        validate(*_with_field(name, value))
    assert str(err.value) == message


@pytest.mark.parametrize("face", list(Face))
def test_case_solves_run_no_enum_code(face):
    # Members are compared by identity and restriction tables keyed by the
    # member's value: no Python frame of the enum module (Enum.__hash__, the
    # ``value`` property) runs in any of the twelve cells.
    solver = solve_convective_case if face is Face.CONVECTIVE else solve_dirichlet_case
    rng = random.Random(3)
    problems = [random_problem(rng, face=face) for _ in range(5)]
    ran = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            ran.append(frame.f_code.co_name)

    for case in UnknownCase:
        hidden = [(*problem.hide(case)[:2], problem.boundary) for problem in problems]
        sys.setprofile(profile)
        try:
            for thermal, mushy, boundary in hidden:
                solver(case, thermal, mushy, boundary)
        finally:
            sys.setprofile(None)
        assert ran == [], (face, case)


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


@pytest.mark.parametrize(
    "record,names,text", OUTPUT_RECORDS, ids=[type(record).__name__ for record, _, _ in OUTPUT_RECORDS]
)
def test_output_records_keep_their_contract(record, names, text):
    check_output_record(record, names, text)


def test_no_mushy_module_calls_namedtuple(tmp_path):
    # A fresh interpreter in which collections.namedtuple raises when a mushy
    # module calls it: every module that defines a record imports, and each
    # record keeps its contract on this interpreter.
    env = dict(os.environ, PYTHONPATH=str(Path(sys.modules["mushy"].__file__).parents[1]))
    script = Path(__file__).with_name("output_record_contract.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "ok\n")


INPUT_RECORD_CONTRACT = """
import copy, pickle, sys
from mushy.model import BoundaryData, FrozenRecord, MushyCoefficients, ThermalCoefficients
from mushy.rootfind import MonotoneEquation

assert "dataclasses" not in sys.modules and "inspect" not in sys.modules, "imported with the records"

# (class, positional build, the same by keyword, its repr, default build,
# its repr, the field names and defaults, the required field left out)
MISSING = object()
RECORDS = [
    (ThermalCoefficients, ThermalCoefficients(1.5, 2.0, 3, None),
     ThermalCoefficients(l=1.5, k=2.0, rho=3, c=None),
     "ThermalCoefficients(l=1.5, k=2.0, rho=3, c=None)",
     ThermalCoefficients(), "ThermalCoefficients(l=None, k=None, rho=None, c=None)",
     [("l", None), ("k", None), ("rho", None), ("c", None)], None),
    (MushyCoefficients, MushyCoefficients(0.5, 0.1), MushyCoefficients(epsilon=0.5, gamma=0.1),
     "MushyCoefficients(epsilon=0.5, gamma=0.1)",
     MushyCoefficients(), "MushyCoefficients(epsilon=None, gamma=None)",
     [("epsilon", None), ("gamma", None)], None),
    (BoundaryData, BoundaryData(1.0, 1.4226, 2.0), BoundaryData(q0=1.0, d_inf=1.4226, h0=2.0),
     "BoundaryData(q0=1.0, d_inf=1.4226, h0=2.0)",
     BoundaryData(1.0, 2.0), "BoundaryData(q0=1.0, d_inf=2.0, h0=None)",
     [("q0", MISSING), ("d_inf", MISSING), ("h0", None)], ("d_inf", "q0")),
    (MonotoneEquation, MonotoneEquation(abs, 2.0, 1.0, abs, "eq", 0.5),
     MonotoneEquation(f=abs, target=2.0, lower_limit=1.0, df=abs, name="eq", start=0.5),
     "MonotoneEquation(f=<built-in function abs>, target=2.0, lower_limit=1.0, df=<built-in function abs>, name='eq', "
     "start=0.5)",
     MonotoneEquation(abs, 2.0),
     "MonotoneEquation(f=<built-in function abs>, target=2.0, lower_limit=0.0, df=None, name='', start=1.0)",
     [("f", MISSING), ("target", MISSING), ("lower_limit", 0.0), ("df", None), ("name", ""), ("start", 1.0)],
     ("target",)),
]


# The value semantics of each record, against the equal copy that twin
# builds from it.
def check_values(twin):
    for cls, built, by_keyword, text, default, default_text, fields, required in RECORDS:
        names = [name for name, _ in fields]
        assert type(built) is cls and built == by_keyword, cls
        assert cls.__match_args__ == tuple(names), cls
        match built:
            case cls(first) if first is getattr(built, names[0]):
                pass
            case _:
                raise AssertionError(f"{cls.__name__} fails its positional class pattern")
        assert (repr(built), repr(default)) == (text, default_text), cls
        assert list(vars(built)) == names, cls
        for other in (twin(built), pickle.loads(pickle.dumps(built)), copy.deepcopy(built), copy.copy(built)):
            assert type(other) is cls and other is not built, cls
            assert other == built and not other != built and hash(other) == hash(built), cls
        assert hash(built) == hash(tuple(getattr(built, name) for name in names)), cls
        assert built != default and built != tuple(vars(built).values()), cls
        subclass = type("Sub", (cls,), {})
        assert subclass.__match_args__ == cls.__match_args__, cls
        assert built != subclass(**vars(built)) and subclass(**vars(built)) != built, cls
        for field in required or ():
            kwargs = {name: getattr(built, name) for name in names if name != field}
            try:
                cls(**kwargs)
            except TypeError as err:
                assert repr(field) in str(err), (cls, err)
            else:
                raise AssertionError(f"{cls.__name__} built without {field}")


def check_frozen():
    for cls, built, *_, fields, _ in RECORDS:
        first, last = fields[0][0], fields[-1][0]
        for attempt, message in ((lambda: setattr(built, first, None), f"cannot assign to field {first!r}"),
                                 (lambda: setattr(built, "extra", None), "cannot assign to field 'extra'"),
                                 (lambda: delattr(built, last), f"cannot delete field {last!r}")):
            try:
                attempt()
            except Exception as err:
                assert type(err).__qualname__ == "FrozenInstanceError", (cls, err)
                assert type(err).__module__ == "dataclasses" and str(err) == message, (cls, err)
            else:
                raise AssertionError(f"{cls.__name__} is not frozen")
        assert vars(built)[first] is not None and last in vars(built), cls


def rebuilt(record):
    return type(record)(**vars(record))


check_values(rebuilt)
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules, "imported by the value semantics"
check_frozen()  # the error's class is dataclasses.FrozenInstanceError, so this imports dataclasses
assert not any("__dataclass_fields__" in cls.__dict__ for cls, *_ in RECORDS), "registered before use"

import dataclasses

assert not dataclasses.is_dataclass(FrozenRecord)
for cls, built, *_, fields, _ in RECORDS:
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(built), cls
    for method in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        assert getattr(cls, method) is getattr(FrozenRecord, method), (cls, method)  # none generated
    default = {name: dataclasses.MISSING if value is MISSING else value for name, value in fields}
    assert [(f.name, f.default) for f in dataclasses.fields(built)] == list(default.items()), cls
    name = fields[-1][0]
    changed = dataclasses.replace(built, **{name: 7.0})
    assert type(changed) is cls and getattr(changed, name) == 7.0 and changed != built, cls
check_values(dataclasses.replace)
check_frozen()
print("ok")
"""


def test_input_records_are_frozen_values_before_and_after_dataclasses(tmp_path):
    # A fresh interpreter, so that dataclasses is loaded only where the
    # script imports it and no record class has been registered yet.
    env = dict(os.environ, PYTHONPATH=str(Path(sys.modules["mushy"].__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", INPUT_RECORD_CONTRACT], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "ok\n")
