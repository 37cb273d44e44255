"""Catalog of named generating functions with exact series generators and,
where available, closed-form composita triangles.

Each entry couples a series generator (always computed from first
principles: factorials, term integration, series division) with an
independent closed-form formula for the triangle, so the two routes can
be checked against each other entry by entry
(``identities.check_closed_form``).  Conventions fixed here:

* bracket-style first-kind Stirling values are signed,
  s(n, k) = (-1)^(n-k) * c(n, k) with c the unsigned cycle count;
* the cubic polynomial triangle carries c (not b) in its final factor;
* trigonometric triangles with a parity constraint return 0 outright
  when n - k is odd.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from ._record import Record
from .combinatorics import (
    binomial,
    factorial,
    kronecker_delta,
    stirling_first_unsigned,
    stirling_second,
)
from .errors import NoClosedForm, UnknownFunction
from .series import CoeffLike, PowerSeries, as_rational, parse_rational

ClosedForm = Callable[[int, int], Fraction]


class FunctionSpec(Record):
    """A named generating function: how to expand it and, optionally, the
    closed form of its composita triangle.  Specs compare by name and
    parameters only."""

    __slots__ = ("name", "parameters", "series_generator", "closed_form")
    _key = ("name", "parameters")
    name: str
    parameters: tuple[Fraction, ...]
    series_generator: Callable[[int], PowerSeries]
    closed_form: Optional[ClosedForm]

    def __init__(
        self,
        name: str,
        parameters: tuple[Fraction, ...],
        series_generator: Callable[[int], PowerSeries],
        closed_form: Optional[ClosedForm] = None,
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


def _signed_stirling_first(n: int, k: int) -> int:
    sign = -1 if (n - k) % 2 else 1
    return sign * stirling_first_unsigned(n, k)


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
# closed-form triangles


def _monomial_cf(m: int) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        return Fraction(kronecker_delta(n, m * k))

    return cf


def _geometric_cf(n: int, k: int) -> Fraction:
    return Fraction(binomial(n - 1, k - 1))


def _x_exp_cf(n: int, k: int) -> Fraction:
    return Fraction(k ** (n - k), factorial(n - k))


def _log1p_cf(n: int, k: int) -> Fraction:
    return Fraction(factorial(k) * _signed_stirling_first(n, k), factorial(n))


def _expm1_cf(n: int, k: int) -> Fraction:
    return Fraction(factorial(k) * stirling_second(n, k), factorial(n))


def _poly2_cf(a: Fraction, b: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        c = binomial(k, n - k)
        if not c:
            return Fraction(0)
        return c * a ** (2 * k - n) * b ** (n - k)

    return cf


def _poly3_cf(a: Fraction, b: Fraction, c: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        acc = Fraction(0)
        for j in range(k + 1):
            c1 = binomial(k, j)
            c2 = binomial(j, n - k - j)
            if c1 and c2:
                acc += c1 * c2 * a ** (k - j) * b ** (2 * j + k - n) * c ** (n - k - j)
        return acc

    return cf


def _poly13_cf(a: Fraction, c: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        if (3 * k - n) % 2:
            return Fraction(0)
        i = (3 * k - n) // 2
        cm = binomial(k, i)
        if not cm:
            return Fraction(0)
        return cm * a ** i * c ** ((n - k) // 2)

    return cf


def _poly124_cf(a: Fraction, b: Fraction, d: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        acc = Fraction(0)
        for j in range(k + 1):
            c1 = binomial(j, n - 4 * k + 3 * j)
            c2 = binomial(k, j)
            if c1 and c2:
                acc += (
                    c1
                    * c2
                    * a ** (4 * k - n - 2 * j)
                    * b ** (n - 4 * k + 3 * j)
                    * d ** (k - j)
                )
        return acc

    return cf


def _poly4_cf(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> ClosedForm:
    def cf(n: int, k: int) -> Fraction:
        acc = Fraction(0)
        for j in range(k + 1):
            cj = binomial(k, j)
            if not cj:
                continue
            for i in range(j, n - k + j + 1):
                c1 = binomial(j, i - j)
                c2 = binomial(k - j, n - 3 * (k - j) - i)
                if c1 and c2:
                    acc += (
                        cj
                        * c1
                        * c2
                        * a ** (2 * j - i)
                        * b ** (i - j)
                        * c ** (4 * (k - j) + i - n)
                        * d ** (n - 3 * (k - j) - i)
                    )
        return acc

    return cf


def _sin_cf(n: int, k: int) -> Fraction:
    if (n - k) % 2:
        return Fraction(0)
    total = 0
    for m in range(k // 2 + 1):
        sign = -1 if ((n + k) // 2 - m) % 2 else 1
        total += sign * binomial(k, m) * (2 * m - k) ** n
    return Fraction(2 * total, 2 ** k * factorial(n))


def _x_cos_cf(n: int, k: int) -> Fraction:
    if n == k:
        return Fraction(1)
    if (n - k) % 2:
        return Fraction(0)
    total = 0
    for j in range((k - 1) // 2 + 1):
        total += binomial(k, j) * (2 * j - k) ** (n - k)
    sign = -1 if ((n - k) // 2) % 2 else 1
    return Fraction(2 * sign * total, 2 ** k * factorial(n - k))


def _tan_cf(n: int, k: int) -> Fraction:
    if (n - k) % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k, n + 1):
        sign = -1 if ((n + k) // 2 + j) % 2 else 1
        c = binomial(j - 1, k - 1)
        if not c:
            continue
        acc += (
            sign
            * c
            * stirling_second(n, j)
            * factorial(j)
            * Fraction(2) ** (n - j - 1)
        )
    return 2 * acc / factorial(n)


def _arctan_cf(n: int, k: int) -> Fraction:
    # On the live parity class the two prefactor summands coincide, so the
    # prefactor collapses to 2 * (-1)^((n-k)/2); off it the value is 0.
    if (n - k) % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k, n + 1):
        c = binomial(n - 1, j - 1)
        if not c:
            continue
        acc += Fraction(2 ** j, factorial(j)) * c * _signed_stirling_first(j, k)
    sign = -1 if ((n - k) // 2) % 2 else 1
    return sign * Fraction(factorial(k), 2 ** k) * acc


def _sinh_cf(n: int, k: int) -> Fraction:
    total = 0
    for i in range(k + 1):
        sign = -1 if i % 2 else 1
        total += sign * binomial(k, i) * (k - 2 * i) ** n
    return Fraction(total, 2 ** k * factorial(n))


def _x_cosh_cf(n: int, k: int) -> Fraction:
    total = 0
    for i in range(k + 1):
        total += binomial(k, i) * (k - 2 * i) ** (n - k)
    return Fraction(total, 2 ** k * factorial(n - k))


def _fib_cf(n: int, m: int) -> Fraction:
    acc = 0
    for j in range(n - m + 1):
        c1 = binomial(j, n - m - j)
        c2 = binomial(m + j - 1, m - 1)
        if c1 and c2:
            acc += c1 * c2
    return Fraction(acc)


# ---------------------------------------------------------------------------
# registry

_FIXED: dict[str, tuple[Callable[[int], PowerSeries], Optional[ClosedForm]]] = {
    "geometric": (_geometric_series, _geometric_cf),
    "x_exp": (_x_exp_series, _x_exp_cf),
    "log1p": (_log1p_series, _log1p_cf),
    "expm1": (_expm1_series, _expm1_cf),
    "sin": (_sin_series, _sin_cf),
    "x_cos": (_x_cos_series, _x_cos_cf),
    "tan": (_tan_series, _tan_cf),
    "arctan": (_arctan_series, _arctan_cf),
    "sinh": (_sinh_series, _sinh_cf),
    "x_cosh": (_x_cosh_series, _x_cosh_cf),
    "sin_over_x": (_sin_over_x_series, None),
    "fib": (_fib_series, _fib_cf),
}

# parameterized entries: name -> (the coefficient index each parameter
# sets, closed-form builder taking the parameters); the arity is the number
# of indices.  monomial:m is x^m: its one parameter is the exponent, so it
# sets no fixed index.
_PARAMETERIZED: dict[str, tuple[tuple[Optional[int], ...], Callable[..., ClosedForm]]] = {
    "monomial": ((None,), _monomial_cf),
    "poly2": ((1, 2), _poly2_cf),
    "poly3": ((1, 2, 3), _poly3_cf),
    "poly13": ((1, 3), _poly13_cf),
    "poly124": ((1, 2, 4), _poly124_cf),
    "poly4": ((1, 2, 3, 4), _poly4_cf),
}


def make_spec(name: str, params: Sequence[Fraction] = ()) -> FunctionSpec:
    """Resolve a catalog name plus parameters to a FunctionSpec."""
    plist = tuple(as_rational(p) for p in params)
    if name in _FIXED:
        if plist:
            raise UnknownFunction(f"{name} takes no parameters")
        gen, cf = _FIXED[name]
        return FunctionSpec(name, (), gen, cf)
    if name not in _PARAMETERIZED:
        raise UnknownFunction(f"no catalog entry named {name!r}")
    positions, builder = _PARAMETERIZED[name]
    if len(plist) != len(positions):
        raise UnknownFunction(f"{name} takes {len(positions)} parameters, got {len(plist)}")
    if name == "monomial":
        (m,) = plist
        if m.denominator != 1 or m < 1:
            raise UnknownFunction("monomial exponent must be a positive integer")
        return FunctionSpec(name, plist, _monomial_series(int(m)), builder(int(m)))
    coeffs = [0] * (positions[-1] + 1)
    for index, value in zip(positions, plist):
        coeffs[index] = value
    return FunctionSpec(name, plist, _polynomial_series(coeffs), builder(*plist))


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


def default_instances() -> list[FunctionSpec]:
    """Canonical parameter choices used by sweeping tests and scripts."""
    one = Fraction(1)
    two = Fraction(2)
    return [
        make_spec("monomial", (one,)),
        make_spec("monomial", (two,)),
        make_spec("monomial", (Fraction(3),)),
        make_spec("geometric"),
        make_spec("x_exp"),
        make_spec("log1p"),
        make_spec("expm1"),
        make_spec("poly2", (one, one)),
        make_spec("poly3", (one, one, one)),
        make_spec("poly13", (one, one)),
        make_spec("poly124", (one, one, two)),
        make_spec("poly4", (one, one, one, two)),
        make_spec("sin"),
        make_spec("x_cos"),
        make_spec("tan"),
        make_spec("arctan"),
        make_spec("sinh"),
        make_spec("x_cosh"),
        make_spec("sin_over_x"),
        make_spec("fib"),
    ]


# ---------------------------------------------------------------------------
# operations


def catalog_series(spec: FunctionSpec, order: int) -> PowerSeries:
    """Expand the function exactly to the requested truncation order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return spec.series_generator(order)


def catalog_closed_form(spec: FunctionSpec, n: int, k: int) -> Fraction:
    """Evaluate the entry's closed-form triangle at (n, k)."""
    if spec.closed_form is None:
        raise NoClosedForm(f"{spec.label()} has no closed-form composita")
    if not 1 <= k <= n:
        raise ValueError("closed forms are defined for 1 <= k <= n")
    return spec.closed_form(n, k)
