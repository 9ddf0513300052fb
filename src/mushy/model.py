"""Domain types for the solidification problem and input validation.

The physical setting: a semi-infinite liquid bath at its fusion temperature
(taken as 0) starts to solidify at t = 0 through a prescribed heat flux
q0/sqrt(t) at the fixed face x = 0.  Between the fully solid region and the
liquid sits an isothermal mushy zone delimited by two free boundaries
s(t) < r(t).  The flux condition is overspecified by either a convective
(Robin) condition with coefficient h0/sqrt(t) or by a prescribed face
temperature; the amount of overspecification is what lets one thermal
coefficient be recovered instead of prescribed.

Temperatures at the face are stored through the positive magnitude
``d_inf``: the physical face datum is ``-d_inf`` (degrees below fusion).

Input records, which callers build (coefficients, boundary data), are frozen
values with a written ``__init__`` on one base, :class:`FrozenRecord`; the
``dataclasses`` functions accept them, and a process that does not call
those never imports ``dataclasses``.  Output records, which the library
builds, are ``collections.namedtuple`` subclasses.
"""

import math
from collections import namedtuple
from enum import Enum

from .errors import ValidationError, as_number

__all__ = [
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
    "with_coefficient",
]


class Face(Enum):
    """Which overspecified condition holds at the fixed face x = 0."""

    CONVECTIVE = "convective"
    DIRICHLET = "dirichlet"


class UnknownCase(Enum):
    """Which single coefficient is treated as unknown."""

    L = "l"  # latent heat per unit mass
    GAMMA = "gamma"  # mushy-zone temperature-gradient datum
    EPSILON = "epsilon"  # solid fraction of latent heat released at s(t)
    K = "k"  # thermal conductivity
    RHO = "rho"  # density
    C = "c"  # specific heat


# A member read through its class goes through the enum metaclass, about ten
# times the cost of reading a module global, so the solve path (here,
# direct and both inverse modules) compares against members bound here once.
_CONVECTIVE, _DIRICHLET = Face.CONVECTIVE, Face.DIRICHLET
_L, _GAMMA, _EPSILON = UnknownCase.L, UnknownCase.GAMMA, UnknownCase.EPSILON
_K, _RHO, _C = UnknownCase.K, UnknownCase.RHO, UnknownCase.C


class _DataclassFields:
    """``__dataclass_fields__`` of a record class, filled in on first read.

    The ``dataclasses`` functions (``fields``, ``replace``, ``is_dataclass``)
    know a dataclass by this attribute.  Its first read from a record class
    applies ``dataclass`` to that class with every generated method switched
    off, which stores the class's field table over this descriptor; the
    record methods stay those of :class:`FrozenRecord`.
    """

    def __get__(self, instance, owner):
        if owner is FrozenRecord:  # so that dataclass(), reading each base with getattr(..., None), skips it
            raise AttributeError("__dataclass_fields__")
        from dataclasses import dataclass

        dataclass(owner, init=False, repr=False, eq=False, match_args=False)
        return owner.__dict__["__dataclass_fields__"]


class FrozenRecord:
    """Base of the input records: the value semantics of a frozen dataclass.

    A subclass annotates its fields, with their defaults, and writes an
    ``__init__`` that stores them with one ``self.__dict__.update`` in field
    order.  A record so built and the copy :func:`with_coefficient` makes
    then hold the same kind of instance dict, so CPython specialises a field
    read on either alike.  Equality, hash and repr are those ``@dataclass(frozen=True)``
    generates, computed from the instance ``__dict__``; assignment and
    deletion raise ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        # Positional class patterns, in field order; a subclass that adds
        # no field keeps its base's.
        if "__annotations__" in cls.__dict__:
            cls.__match_args__ = tuple(cls.__annotations__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple(self.__dict__.values()) == tuple(other.__dict__.values())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ThermalCoefficients(FrozenRecord):
    """Bulk material coefficients; any field may be None while unknown."""

    l: float | None = None
    k: float | None = None
    rho: float | None = None
    c: float | None = None

    def __init__(
        self,
        l: float | None = None,
        k: float | None = None,
        rho: float | None = None,
        c: float | None = None,
    ) -> None:
        self.__dict__.update(l=l, k=k, rho=rho, c=c)

    @property
    def alpha(self) -> float | None:
        """Thermal diffusivity k / (rho c); None until k, rho, c are all set."""
        if self.k is None or self.rho is None or self.c is None:
            return None
        return self.k / (self.rho * self.c)


class MushyCoefficients(FrozenRecord):
    """Structure of the mushy zone.

    epsilon is the fraction of the latent heat released at the solid front
    (the rest is released at the liquid front) and must lie strictly inside
    (0, 1); gamma > 0 fixes the product of the solid-side temperature
    gradient at s(t) with the zone width r(t) - s(t).
    """

    epsilon: float | None = None
    gamma: float | None = None

    def __init__(self, epsilon: float | None = None, gamma: float | None = None) -> None:
        self.__dict__.update(epsilon=epsilon, gamma=gamma)


class BoundaryData(FrozenRecord):
    """Data of the overspecified fixed-face condition.

    q0 scales the imposed flux q0/sqrt(t); d_inf > 0 is the magnitude of the
    face temperature datum (physical value -d_inf); h0 scales the convective
    coefficient h0/sqrt(t) and is ignored for the Dirichlet problem.
    ``h0 = math.inf`` is admitted and reproduces the Dirichlet formulas
    exactly, which is convenient for limit studies.
    """

    q0: float
    d_inf: float
    h0: float | None = None

    def __init__(self, q0: float, d_inf: float, h0: float | None = None) -> None:
        self.__dict__.update(q0=q0, d_inf=d_inf, h0=h0)


class SimilaritySolution(namedtuple("SimilaritySolution", "a_coef b_coef xi mu alpha")):
    """Closed-form solution of the one-phase problem.

    The solid temperature is T(x, t) = a_coef + b_coef * erf(x / (2 sqrt(alpha t)))
    for 0 <= x <= s(t); the fronts are s(t) = 2 xi sqrt(alpha t) and
    r(t) = 2 mu sqrt(alpha t).  The mushy zone is isothermal at 0, so the
    dimensionless front positions must satisfy 0 < xi < mu.
    """

    __slots__ = ()

    def __new__(cls, a_coef: float, b_coef: float, xi: float, mu: float, alpha: float) -> "SimilaritySolution":
        _check_front(xi, ValidationError)
        _check_solution(b_coef, xi, mu, alpha)
        return tuple.__new__(cls, (a_coef, b_coef, xi, mu, alpha))

    @classmethod
    def _make(cls, iterable) -> "SimilaritySolution":  # _replace builds through _make, so it is checked too
        return cls(*iterable)


def _check_front(xi: float, error: type[Exception]) -> None:
    """The first check of a solution record: ``error`` unless the front
    position xi is positive and finite."""
    if not (xi > 0.0 and math.isfinite(xi)):
        raise error(f"xi must be positive and finite, got {xi!r}")


def _check_solution(b_coef: float, xi: float, mu: float, alpha: float) -> None:
    """The checks of a solution record after xi's, in order: mu > xi, then
    b_coef and alpha positive and finite; each raises ValidationError."""
    if not mu > xi:
        raise ValidationError(f"mu must exceed xi, got mu={mu!r} xi={xi!r}")
    if not (b_coef > 0.0 and math.isfinite(b_coef)):
        raise ValidationError(f"b_coef must be positive and finite, got {b_coef!r}")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be positive and finite, got {alpha!r}")


class RestrictionReport(namedtuple("RestrictionReport", "restriction_id satisfied lhs rhs note", defaults=("",))):
    """Outcome of one solvability restriction, oriented as ``lhs < rhs``.

    ``margin = rhs - lhs`` is positive exactly when the restriction is
    satisfied; equality counts as violation (the underlying existence
    arguments need strict inequalities).  ``note`` carries free-text
    diagnostics, e.g. for degenerate auxiliary equations.
    """

    __slots__ = ()

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _report(restriction_id: str, lhs: float, rhs: float, note: str = "") -> RestrictionReport:
    """The report of restriction ``restriction_id`` from its sides: the one
    place that states the verdict, ``lhs < rhs``, so that equality (or a
    NaN side) is a violation."""
    return tuple.__new__(RestrictionReport, (restriction_id, lhs < rhs, lhs, rhs, note))


class CaseResult(namedtuple("CaseResult", "case value xi solution reports")):
    """Recovered coefficient (``value``, for the unknown ``case``) together
    with ``xi``, the full solution and the restriction reports."""

    __slots__ = ()


class ProblemInstance(namedtuple("ProblemInstance", "face case thermal mushy boundary")):
    """A validated problem description.

    Exactly the slot named by ``case`` is None among the six coefficients
    (or none of them for ``case=None``, the fully specified direct mode).
    """

    __slots__ = ()


def with_coefficient(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    case: UnknownCase,
    value: float | None,
) -> tuple[ThermalCoefficients, MushyCoefficients]:
    """The coefficient records with the slot of ``case`` set to ``value``
    (None blanks it).  The one place that maps a case to its record: the
    record that has a field of that name, l, k, rho and c thermal, epsilon
    and gamma mushy."""
    name = case._value_  # the member's value without the enum property's cost
    record = thermal if name in thermal.__dict__ else mushy
    # An equal, frozen copy without re-running the record's __init__: the
    # copy holds the caller's fields, in field order, plus ``value``.
    new = object.__new__(type(record))
    fields = new.__dict__
    fields.update(record.__dict__)
    fields[name] = value
    return (new, mushy) if record is thermal else (thermal, new)


def _check_positive(name: str, value: float | None) -> float:
    if value is None:
        raise ValidationError(f"{name} is required but missing")
    value = as_number(name, value, ValidationError)
    if math.isnan(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return value


def _coefficient(name: str, value: float | None, unknown: str | None) -> float | None:
    """One thermal or mushy coefficient in normal form: None in the unknown
    slot, an exact positive finite float everywhere else.  A value already
    in that form is returned as the same object."""
    if name == unknown:
        if value is not None:
            raise ValidationError(
                f"coefficient {name!r} is declared unknown but a value {value!r} was supplied"
            )
        return None
    if type(value) is float and 0.0 < value < math.inf:
        return value
    if value is None:
        raise ValidationError(f"coefficient {name!r} is required but missing")
    checked = _check_positive(name, value)
    if math.isinf(checked):
        raise ValidationError(f"coefficient {name!r} must be finite, got {value!r}")
    return checked


def validate(
    thermal: ThermalCoefficients,
    mushy: MushyCoefficients,
    boundary: BoundaryData,
    case: UnknownCase | None = None,
    face: Face = Face.CONVECTIVE,
) -> ProblemInstance:
    """Check a problem description and return the normalized instance.

    Rules enforced:

    * every coefficient except the unknown slot is present, finite and
      positive (``h0 = +inf`` is tolerated as the Dirichlet limit);
    * the unknown slot itself is absent - supplying it is an error, since a
      value there would silently be ignored by the solvers;
    * epsilon lies strictly inside (0, 1) whenever present;
    * the convective problem carries h0 > 0; the Dirichlet problem ignores h0.

    The instance holds exact floats.  A record whose fields are already in
    that normal form is returned as the caller's own (frozen) object; a new
    record is built only when a field changes, e.g. an ``int`` or a float
    subclass, or the ``h0`` that the Dirichlet face drops.  Validation is
    idempotent: re-validating the parts of a returned instance returns them.
    """
    unknown = None if case is None else case._value_  # as in with_coefficient
    l, k, rho, c = thermal.l, thermal.k, thermal.rho, thermal.c
    epsilon, gamma = mushy.epsilon, mushy.gamma
    q0, d_inf, h0 = boundary.q0, boundary.d_inf, boundary.h0

    # The normal form in one pass: the caller's records, untouched.  Any
    # other input takes the per-field path below, which owns the messages,
    # their order and the normalisation.
    inf = math.inf
    if (
        (l is None if unknown == "l" else type(l) is float and 0.0 < l < inf)
        and (k is None if unknown == "k" else type(k) is float and 0.0 < k < inf)
        and (rho is None if unknown == "rho" else type(rho) is float and 0.0 < rho < inf)
        and (c is None if unknown == "c" else type(c) is float and 0.0 < c < inf)
        and (epsilon is None if unknown == "epsilon" else type(epsilon) is float and 0.0 < epsilon < 1.0)
        and (gamma is None if unknown == "gamma" else type(gamma) is float and 0.0 < gamma < inf)
        and type(q0) is float and 0.0 < q0 < inf
        and type(d_inf) is float and 0.0 < d_inf < inf
        and (type(h0) is float and h0 > 0.0 if face is _CONVECTIVE else h0 is None)
    ):
        return tuple.__new__(ProblemInstance, (face, case, thermal, mushy, boundary))

    l = _coefficient("l", l, unknown)
    k = _coefficient("k", k, unknown)
    rho = _coefficient("rho", rho, unknown)
    c = _coefficient("c", c, unknown)
    if not (l is thermal.l and k is thermal.k and rho is thermal.rho and c is thermal.c):
        thermal = ThermalCoefficients(l=l, k=k, rho=rho, c=c)

    epsilon = _coefficient("epsilon", epsilon, unknown)
    gamma = _coefficient("gamma", gamma, unknown)
    if epsilon is not None and not epsilon < 1.0:
        raise ValidationError(f"epsilon must lie strictly inside (0, 1), got {mushy.epsilon!r}")
    if not (epsilon is mushy.epsilon and gamma is mushy.gamma):
        mushy = MushyCoefficients(epsilon=epsilon, gamma=gamma)

    if not (type(q0) is float and 0.0 < q0 < math.inf and type(d_inf) is float and 0.0 < d_inf < math.inf):
        q0 = _check_positive("q0", q0)
        d_inf = _check_positive("d_inf", d_inf)
        for name, value in (("q0", q0), ("d_inf", d_inf)):
            if math.isinf(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
    if face is _CONVECTIVE:
        if h0 is None:
            raise ValidationError("the convective problem requires h0")
        if not (type(h0) is float and h0 > 0.0):
            h0 = _check_positive("h0", h0)  # +inf allowed: Dirichlet limit
    else:
        h0 = None  # ignored for the Dirichlet problem
    if not (q0 is boundary.q0 and d_inf is boundary.d_inf and h0 is boundary.h0):
        boundary = BoundaryData(q0=q0, d_inf=d_inf, h0=h0)

    return tuple.__new__(ProblemInstance, (face, case, thermal, mushy, boundary))
