"""The contract of the output records, the records the library builds.

Each record behaves as the ``collections.namedtuple`` subclass it once
was: its fields, their order and defaults, ``repr``, immutability,
pickling, copying, ``_make``, ``_replace``, ``_asdict``, class patterns and
the ``TypeError`` of a missing argument.  ``tests/test_model.py`` checks
every record with :func:`check`, and with :func:`check_against_namedtuple`
what a subclass and a wrong-length ``_make`` do.  The module needs only the standard
library, so it also runs as a script under any supported interpreter::

    PYTHONPATH=src python tests/output_record_contract.py

Run so, it first makes ``collections.namedtuple`` raise when a ``mushy``
module calls it, then imports every module that defines a record, checks
each, then those two behaviours, and prints ``ok``.
"""

import collections
import copy
import pickle
import sys

if __name__ == "__main__":
    _namedtuple = collections.namedtuple

    def _guarded_namedtuple(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.partition(".")[0] == "mushy":
            raise AssertionError(f"{caller} calls collections.namedtuple")
        return _namedtuple(*args, **kwargs)

    collections.namedtuple = _guarded_namedtuple
    import mushy.cli, mushy.inverse_dirichlet, mushy.manufacture, mushy.verify

    assert "inspect" not in sys.modules, "imported with the records"

from mushy.direct import ConsistencyResiduals
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
)
from mushy.verify import ConditionResiduals, PdeResidual

THERMAL = ThermalCoefficients(l=1.0, k=2.0, rho=3.0, c=4.0)
MUSHY = MushyCoefficients(epsilon=0.5, gamma=0.1)
BOUNDARY = BoundaryData(q0=1.0, d_inf=1.4226, h0=2.0)
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
        ProblemInstance(face=Face.CONVECTIVE, case=None, thermal=THERMAL, mushy=MUSHY, boundary=BOUNDARY),
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
        ManufacturedProblem(face=Face.CONVECTIVE, thermal=THERMAL, mushy=MUSHY, boundary=BOUNDARY, xi=0.5),
        ("face", "thermal", "mushy", "boundary", "xi"),
        f"ManufacturedProblem(face=<Face.CONVECTIVE: 'convective'>, {_DATA_REPR}, xi=0.5)",
    ),
]


def _raises(error: type[Exception], attempt) -> str:
    """The text of the ``error`` that ``attempt()`` raises."""
    try:
        attempt()
    except error as err:
        return str(err)
    raise AssertionError(f"no {error.__name__}")


def check(record, names: tuple, text: str) -> None:
    """Every behaviour of a namedtuple that a caller of ``record`` can see."""
    cls = type(record)
    assert record._fields == cls.__match_args__ == names, cls
    assert tuple(record) == tuple(getattr(record, name) for name in names) and record == tuple(record), cls
    assert repr(record) == text, cls
    assert cls._field_defaults == ({"note": ""} if cls is RestrictionReport else {}), cls
    _raises(AttributeError, lambda: setattr(record, names[0], getattr(record, names[0])))
    _raises(AttributeError, lambda: setattr(record, "extra", 1.0))

    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (*copies, copy.copy(record), copy.deepcopy(record), cls._make(iter(record))):
        assert type(other) is cls and other == record, cls
    assert type(record._asdict()) is dict and record._asdict() == dict(zip(names, record)), cls

    changed = record._replace(**{names[-1]: 2.0})
    assert type(changed) is cls and changed == (*record[:-1], 2.0), cls
    if sys.version_info >= (3, 13):
        replaced = copy.replace(record, **{names[-1]: 2.0})
        assert type(replaced) is cls and replaced == changed, cls
    unknown = TypeError if sys.version_info >= (3, 13) else ValueError
    assert _raises(unknown, lambda: record._replace(extra=1.0)) == "Got unexpected field names: ['extra']", cls

    match record:
        case cls(first) if first is record[0]:
            pass
        case _:
            raise AssertionError(f"{cls.__name__} fails its positional class pattern")

    required = [name for name in names if name not in cls._field_defaults]
    missing = _raises(TypeError, lambda: cls(*record[:len(required) - 1]))
    assert missing == f"{cls.__name__}.__new__() missing 1 required positional argument: {required[-1]!r}", missing


def check_against_namedtuple() -> None:
    """Two behaviours that RestrictionReport shares with the namedtuple of
    its fields and default: a subclass that writes no ``__new__`` keeps its
    base's fields and repr, and ``_make`` of the wrong length raises a
    ``TypeError`` that names both lengths."""
    twin = collections.namedtuple("RestrictionReport", REPORT._fields, defaults=("",))
    seen = []
    for base in (RestrictionReport, twin):
        class Sub(base):
            pass

        sub = Sub(*REPORT)
        assert Sub._fields == REPORT._fields and sub == REPORT, base
        made = _raises(TypeError, lambda: base._make(REPORT[:2]))
        seen.append((repr(sub), made))
    assert seen[0] == seen[1] == (f"Sub{_REPORT_REPR[len('RestrictionReport'):]}", "Expected 5 arguments, got 2"), seen


if __name__ == "__main__":
    for record, names, text in OUTPUT_RECORDS:
        check(record, names, text)
    check_against_namedtuple()
    print("ok")
