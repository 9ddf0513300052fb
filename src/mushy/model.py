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
builds, are tuples on one base, :class:`OutputRecord`, with the interface of
a ``collections.namedtuple``; each writes its ``__new__``, and no code is
generated for them at import either.
"""

import math
import sys
from collections import _tuplegetter
from enum import Enum

from .errors import NumericalError, ValidationError, as_number

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
    "in_range",
    "out_of_range",
]


class Face(Enum):
    """Which overspecified condition holds at the fixed face x = 0."""

    CONVECTIVE = "convective"
    DIRICHLET = "dirichlet"

    # Enum's own hash, of the member's name, is Python code; a member is
    # equal only to itself, so the identity hash agrees with ``==`` and
    # keys a dict or set in C.
    __hash__ = object.__hash__


class UnknownCase(Enum):
    """Which single coefficient is treated as unknown."""

    L = "l"  # latent heat per unit mass
    GAMMA = "gamma"  # mushy-zone temperature-gradient datum
    EPSILON = "epsilon"  # solid fraction of latent heat released at s(t)
    K = "k"  # thermal conductivity
    RHO = "rho"  # density
    C = "c"  # specific heat

    __hash__ = object.__hash__  # as Face's


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


#: namedtuple's error for an unknown field name in ``_replace``: TypeError
#: from Python 3.13, where ``copy.replace`` calls it, ValueError before.
_UNKNOWN_FIELD = TypeError if sys.version_info >= (3, 13) else ValueError


class OutputRecord(tuple):
    """Base of the output records: the interface of a ``collections.namedtuple``.

    A subclass writes ``__new__(cls, <fields>)``, with the fields' defaults,
    which returns ``tuple.__new__(cls, (<fields>))``.  The fields are read
    once from that signature: the class gets ``_fields``, ``__match_args__``,
    ``_field_defaults`` and, per field, the C descriptor a namedtuple reads
    it through.  A subclass that writes no ``__new__`` keeps its base's
    fields.  ``_make``, ``_replace`` (also as ``__replace__``), ``_asdict``,
    ``__getnewargs__`` and ``repr`` are those namedtuple generates.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        new = cls.__dict__.get("__new__")
        if new is None:
            return
        code, defaults = new.__func__.__code__, new.__func__.__defaults__ or ()
        fields = code.co_varnames[1:code.co_argcount]
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults):], defaults))
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable):
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **kwds):
        result = self._make(map(kwds.pop, self._fields, self))
        if kwds:
            raise _UNKNOWN_FIELD(f"Got unexpected field names: {list(kwds)!r}")
        return result

    __replace__ = _replace  # copy.replace, from Python 3.13

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self) -> tuple:  # copy and pickle
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({fields})"


class SimilaritySolution(OutputRecord):
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


class RestrictionReport(OutputRecord):
    """Outcome of one solvability restriction, oriented as ``lhs < rhs``.

    ``margin = rhs - lhs`` is positive exactly when the restriction is
    satisfied; equality counts as violation (the underlying existence
    arguments need strict inequalities).  ``note`` carries free-text
    diagnostics, e.g. for degenerate auxiliary equations.
    """

    __slots__ = ()

    def __new__(cls, restriction_id, satisfied, lhs, rhs, note=""):
        return tuple.__new__(cls, (restriction_id, satisfied, lhs, rhs, note))

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _report(restriction_id: str, lhs: float, rhs: float, note: str = "") -> RestrictionReport:
    """The report of restriction ``restriction_id`` from its sides: the one
    place that states the verdict, ``lhs < rhs``, so that equality (or a
    NaN side) is a violation."""
    return tuple.__new__(RestrictionReport, (restriction_id, lhs < rhs, lhs, rhs, note))


class CaseResult(OutputRecord):
    """Recovered coefficient (``value``, for the unknown ``case``) together
    with ``xi``, the full solution and the restriction reports."""

    __slots__ = ()

    def __new__(cls, case, value, xi, solution, reports):
        return tuple.__new__(cls, (case, value, xi, solution, reports))


class ProblemInstance(OutputRecord):
    """A validated problem description.

    Exactly the slot named by ``case`` is None among the six coefficients
    (or none of them for ``case=None``, the fully specified direct mode).
    """

    __slots__ = ()

    def __new__(cls, face, case, thermal, mushy, boundary):
        return tuple.__new__(cls, (face, case, thermal, mushy, boundary))


# --- the range rule ------------------------------------------------------------

_NORMAL_MIN = sys.float_info.min  # the least positive normal double
_INF = math.inf  # a module global: cheaper to read than math.inf on every solve

#: Why a solve can fail where no product or group does: a figure of the
#: solution (an xi, b_coef or mu the record refuses) leaves the double range.
SOLUTION_OUT_OF_RANGE = "the solution leaves the range of a double"


def in_range(name: str, value: float) -> float:
    """The range rule, stated once: ``value`` if it is a positive normal
    double, else the NumericalError of :func:`out_of_range`."""
    if _NORMAL_MIN <= value < math.inf:
        return value
    raise out_of_range(name, value)


def out_of_range(name: str, value: float) -> NumericalError:
    return NumericalError(f"{name} = {value!r} is not a positive normal double, outside the range of a double")


def _split(form, halves: tuple, *data: float) -> float:
    """``form(*data)`` where its plain evaluation leaves the double range:
    ``form`` is a monomial in the data, each datum raised to its entry of
    ``halves`` over 2, times a constant, written as the plain formula.  It
    is evaluated on the data's mantissas and scaled by the summed powers of
    their exponents with one ldexp, so no intermediate leaves the range; a
    datum raised to an odd number of halves sits under the root, and its
    mantissa is taken with an even exponent.  Scaling by a power of two is
    exact, so where the plain evaluation stays normal the bits are the
    same.  A result past the largest double is inf, one below the normal
    range subnormal or 0; an inf datum makes it inf or 0.
    """
    mantissas, exponent = [], 0
    for half, value in zip(halves, data):
        m, e = math.frexp(value)
        if half % 2 and e % 2:
            m, e = 2.0 * m, e - 1
        mantissas.append(m)
        exponent += half * e // 2
    try:
        return math.ldexp(form(*mantissas), exponent)
    except OverflowError:
        return _INF


def _refused_solution(name: str, err: Exception) -> NumericalError:
    """The error of case ``name``, or "direct", whose solution record refused a figure with ``err``."""
    return NumericalError(f"case {name}: {SOLUTION_OUT_OF_RANGE}: {err}")


def _not_a_case(case) -> ValidationError:
    return ValidationError(f"case must be an UnknownCase member, got {case!r}")


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
    * the convective problem carries h0 > 0; the Dirichlet problem ignores h0;
    * ``face`` is a Face member, and ``case`` an UnknownCase member or None.

    The instance holds exact floats.  A record whose fields are already in
    that normal form is returned as the caller's own (frozen) object; a new
    record is built only when a field changes, e.g. an ``int`` or a float
    subclass, or the ``h0`` that the Dirichlet face drops.  Validation is
    idempotent: re-validating the parts of a returned instance returns them.
    """
    l, k, rho, c = thermal.l, thermal.k, thermal.rho, thermal.c
    epsilon, gamma = mushy.epsilon, mushy.gamma
    q0, d_inf, h0 = boundary.q0, boundary.d_inf, boundary.h0

    # The normal form in one pass: the caller's records, untouched.  Any
    # other input takes the per-field path below, which owns the messages,
    # their order and the normalisation.
    hi = _INF
    if (
        (type(case) is UnknownCase or case is None)
        and (l is None if case is _L else type(l) is float and 0.0 < l < hi)
        and (k is None if case is _K else type(k) is float and 0.0 < k < hi)
        and (rho is None if case is _RHO else type(rho) is float and 0.0 < rho < hi)
        and (c is None if case is _C else type(c) is float and 0.0 < c < hi)
        and (epsilon is None if case is _EPSILON else type(epsilon) is float and 0.0 < epsilon < 1.0)
        and (gamma is None if case is _GAMMA else type(gamma) is float and 0.0 < gamma < hi)
        and type(q0) is float and 0.0 < q0 < hi
        and type(d_inf) is float and 0.0 < d_inf < hi
        and (type(h0) is float and h0 > 0.0 if face is _CONVECTIVE else h0 is None and face is _DIRICHLET)
    ):
        return tuple.__new__(ProblemInstance, (face, case, thermal, mushy, boundary))

    if case is not None and type(case) is not UnknownCase:
        raise _not_a_case(case)
    if type(face) is not Face:
        raise ValidationError(f"face must be a Face member, got {face!r}")
    unknown = None if case is None else case._value_  # as in with_coefficient
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
