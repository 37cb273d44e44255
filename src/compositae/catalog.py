"""Catalog of named generating functions: designator -> exact series.

Each entry's series generator works from first principles (factorials,
term integration, series division).  Where the paper gives a closed form
for the entry's composita triangle, the spec's ``closed_form`` is a
callable that loads that formula from ``theorems`` on its first call: no
CLI call evaluates one, so no CLI call compiles that module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from ._record import Record
from .combinatorics import factorial
from .errors import UnknownFunction
from .series import CoeffLike, PowerSeries, as_rational, parse_rational


class FunctionSpec(Record):
    """A named generating function: how to expand it and, optionally, the
    closed form of its composita triangle.  Specs compare by name and
    parameters only."""

    __slots__ = ("name", "parameters", "series_generator", "closed_form")
    _key = ("name", "parameters")
    name: str
    parameters: tuple[Fraction, ...]
    series_generator: Callable[[int], PowerSeries]
    closed_form: Optional[Callable[[int, int], Fraction]]

    def __init__(
        self,
        name: str,
        parameters: tuple[Fraction, ...],
        series_generator: Callable[[int], PowerSeries],
        closed_form: Optional[Callable[[int, int], Fraction]] = None,
    ) -> None:
        self._fill(name, parameters, series_generator, closed_form)

    def label(self) -> str:
        """Designator text for this spec, in the same form the parser accepts."""
        if not self.parameters:
            return self.name
        args = ",".join(str(p) for p in self.parameters)
        if self.name == "raw":
            return args
        return f"{self.name}:{args}"


# ---------------------------------------------------------------------------
# series generators


def _polynomial_series(coeffs: Sequence[CoeffLike]) -> Callable[[int], PowerSeries]:
    def gen(order: int) -> PowerSeries:
        return PowerSeries.of(coeffs[: order + 1], order=order)

    return gen


def _monomial_series(m: int) -> Callable[[int], PowerSeries]:
    # x^m: no list of m + 1 coefficients, which a large m would make huge
    def gen(order: int) -> PowerSeries:
        return PowerSeries.of([0] * m + [1] if m <= order else [], order=order)

    return gen


def _geometric_series(order: int) -> PowerSeries:
    # x/(1-x)
    return PowerSeries.of([0] + [1] * order)


def _x_exp_series(order: int) -> PowerSeries:
    # x*e^x
    return PowerSeries.of(
        [Fraction(0)] + [Fraction(1, factorial(n - 1)) for n in range(1, order + 1)]
    )


def _log1p_series(order: int) -> PowerSeries:
    # ln(1+x)
    return PowerSeries.of(
        [Fraction(0)]
        + [Fraction(-1 if n % 2 == 0 else 1, n) for n in range(1, order + 1)]
    )


def _expm1_series(order: int) -> PowerSeries:
    # e^x - 1
    return PowerSeries.of(
        [Fraction(0)] + [Fraction(1, factorial(n)) for n in range(1, order + 1)]
    )


def _sin_series(order: int) -> PowerSeries:
    out = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1, 2):
        j = (n - 1) // 2
        out[n] = Fraction(-1 if j % 2 else 1, factorial(n))
    return PowerSeries(tuple(out))


def _cos_series(order: int) -> PowerSeries:
    out = [Fraction(0)] * (order + 1)
    for n in range(0, order + 1, 2):
        j = n // 2
        out[n] = Fraction(-1 if j % 2 else 1, factorial(n))
    return PowerSeries(tuple(out))


def _x_cos_series(order: int) -> PowerSeries:
    return _cos_series(order - 1).times_x() if order >= 1 else PowerSeries.zero(0)


def _tan_series(order: int) -> PowerSeries:
    return _sin_series(order) / _cos_series(order)


def _arctan_series(order: int) -> PowerSeries:
    # term integration of 1/(1+x^2)
    if order < 1:
        return PowerSeries.zero(order)
    inner = [Fraction(0)] * order
    for n in range(0, order, 2):
        inner[n] = Fraction(-1 if (n // 2) % 2 else 1)
    return PowerSeries(tuple(inner)).integral()


def _sinh_series(order: int) -> PowerSeries:
    out = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1, 2):
        out[n] = Fraction(1, factorial(n))
    return PowerSeries(tuple(out))


def _x_cosh_series(order: int) -> PowerSeries:
    out = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1, 2):
        out[n] = Fraction(1, factorial(n - 1))
    return PowerSeries(tuple(out))


def _sin_over_x_series(order: int) -> PowerSeries:
    out = [Fraction(0)] * (order + 1)
    for n in range(0, order + 1, 2):
        j = n // 2
        out[n] = Fraction(-1 if j % 2 else 1, factorial(n + 1))
    return PowerSeries(tuple(out))


def _fib_series(order: int) -> PowerSeries:
    # x/(1 - x - x^2), Fibonacci numbers from index 1
    out = [Fraction(0)] * (order + 1)
    prev, cur = Fraction(0), Fraction(1)
    for n in range(1, order + 1):
        out[n] = cur
        prev, cur = cur, prev + cur
    return PowerSeries(tuple(out))


# ---------------------------------------------------------------------------
# registry

_FIXED: dict[str, Callable[[int], PowerSeries]] = {
    "geometric": _geometric_series,
    "x_exp": _x_exp_series,
    "log1p": _log1p_series,
    "expm1": _expm1_series,
    "sin": _sin_series,
    "x_cos": _x_cos_series,
    "tan": _tan_series,
    "arctan": _arctan_series,
    "sinh": _sinh_series,
    "x_cosh": _x_cosh_series,
    "sin_over_x": _sin_over_x_series,
    "fib": _fib_series,
}

# the one entry whose triangle has no closed form in ``theorems``
_NO_CLOSED_FORM = frozenset({"sin_over_x"})

# parameterized entries: name -> the coefficient index each parameter
# sets; the arity is the number of indices.  monomial:m is x^m: its one
# parameter is the exponent, so it sets no fixed index.
_PARAMETERIZED: dict[str, tuple[Optional[int], ...]] = {
    "monomial": (None,),
    "poly2": (1, 2),
    "poly3": (1, 2, 3),
    "poly13": (1, 3),
    "poly124": (1, 2, 4),
    "poly4": (1, 2, 3, 4),
}


def _closed_form(name: str, params: tuple[Fraction, ...] = ()) -> Callable[[int, int], Fraction]:
    """The entry's closed form, looked up in ``theorems`` on the first call."""
    formula = None

    def cf(n: int, k: int) -> Fraction:
        nonlocal formula
        if formula is None:
            from .theorems import closed_form_formula

            formula = closed_form_formula(name, params)
        return formula(n, k)

    return cf


def make_spec(name: str, params: Sequence[Fraction] = ()) -> FunctionSpec:
    """Resolve a catalog name plus parameters to a FunctionSpec."""
    plist = tuple(as_rational(p) for p in params)
    if name in _FIXED:
        if plist:
            raise UnknownFunction(f"{name} takes no parameters")
        cf = None if name in _NO_CLOSED_FORM else _closed_form(name)
        return FunctionSpec(name, (), _FIXED[name], cf)
    if name not in _PARAMETERIZED:
        raise UnknownFunction(f"no catalog entry named {name!r}")
    positions = _PARAMETERIZED[name]
    if len(plist) != len(positions):
        raise UnknownFunction(f"{name} takes {len(positions)} parameters, got {len(plist)}")
    if name == "monomial":
        (m,) = plist
        if m.denominator != 1 or m < 1:
            raise UnknownFunction("monomial exponent must be a positive integer")
        return FunctionSpec(name, plist, _monomial_series(int(m)), _closed_form(name, plist))
    coeffs = [0] * (positions[-1] + 1)
    for index, value in zip(positions, plist):
        coeffs[index] = value
    return FunctionSpec(name, plist, _polynomial_series(coeffs), _closed_form(name, plist))


def raw_spec(coeffs: Sequence[Fraction]) -> FunctionSpec:
    """Wrap a literal coefficient list (read as a polynomial) as a spec."""
    values = tuple(as_rational(c) for c in coeffs)
    return FunctionSpec("raw", values, _polynomial_series(values), None)


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz_0123456789")


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse a designator: a catalog name, 'name:p1,p2,...', or a raw
    comma-separated coefficient list such as '0,1,1'."""
    text = text.strip()
    if not text:
        raise UnknownFunction("empty function designator")
    if ":" in text:
        name, _, arg_text = text.partition(":")
        name = name.strip()
        try:
            params = [parse_rational(p) for p in arg_text.split(",")]
        except ValueError as exc:
            raise UnknownFunction(f"malformed parameters in {text!r} ({exc})") from exc
        return make_spec(name, params)
    if set(text) <= _NAME_CHARS and not text[0].isdigit():
        return make_spec(text)
    try:
        coeffs = [parse_rational(p) for p in text.split(",")]
    except ValueError as exc:
        raise UnknownFunction(
            f"not a catalog name or coefficient list: {text!r} ({exc})"
        ) from exc
    return raw_spec(coeffs)


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXED)) + tuple(sorted(_PARAMETERIZED))


def catalog_series(spec: FunctionSpec, order: int) -> PowerSeries:
    """Expand the function exactly to the requested truncation order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return spec.series_generator(order)
