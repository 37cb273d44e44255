"""Catalog of named generating functions: designator -> exact series.

A ``FunctionSpec`` is a name and its parameters, nothing more:
``make_spec`` checks that the pair names an entry, and ``catalog_series``
expands the spec from that pair.  Apart from ``tan`` (sin/cos), ``fib``,
the polynomials and ``monomial:m``, every entry is a hypergeometric term:
the ratio c(n + step)/c(n) of its coefficients is rational in n, and one
generator, ``_term_ratio_series``, expands each from its first coefficient
and that ratio.  Every expansion builds coefficients up to the requested
order only, so a large parameter such as ``radical:1000000`` or
``monomial:1000000`` costs what its order costs.

The catalog knows no closed forms: a spec's ``closed_form`` asks
``theorems`` for one when it is read, so no CLI call, which never reads
it, compiles that module.

The CLI loads this module only for a designator that names an entry and
for the list of names after an unknown designator: a raw coefficient list
is read by ``series.raw_coefficients`` and expanded without it.

The generators work on integer pairs and store the series' integer row,
so expanding an entry without parameters builds no ``Fraction`` (``tan``
is sin/cos, a series quotient on integer rows).  A spec's parameters are
``Fraction`` values: a parameterised spec, and a raw one that
``parse_function_spec`` makes, imports ``fractions``.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Optional, Sequence

from ._record import Record
from .errors import UnknownFunction
from .series import CoeffLike, Pair, PowerSeries, as_rational, parse_rational, raw_coefficients


class FunctionSpec(Record):
    """A named generating function: a catalog name and its parameters
    (for ``raw``, the coefficients), which ``catalog_series`` expands."""

    __slots__ = ("name", "parameters")
    name: str
    parameters: tuple[Fraction, ...]

    def __init__(self, name: str, parameters: Sequence[CoeffLike]) -> None:
        self._fill(name, tuple(as_rational(p) for p in parameters))

    @property
    def closed_form(self) -> Optional[Callable[[int, int], Fraction]]:
        """The closed form of the entry's composita triangle, or None where
        ``theorems`` has none; reading it imports that module."""
        from .theorems import closed_form_formula

        return closed_form_formula(self.name, self.parameters)

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


def _term_ratio_series(
    first: int, value: Pair, step: int, ratio: Callable[[int], tuple[int, int]]
) -> Callable[[int], PowerSeries]:
    # a hypergeometric term: c(first) = value, c(n + step) = c(n) * p/q for
    # (p, q) = ratio(n), q > 0, and every other coefficient 0.  Each step
    # reduces the integer pair of c(n + step) with one gcd.
    def gen(order: int) -> PowerSeries:
        out = [(0, 1)] * (order + 1)
        num, den = value
        for n in range(first, order + 1, step):
            out[n] = num, den
            p, q = ratio(n)
            num, den = num * p, den * q
            g = gcd(num, den)
            num, den = num // g, den // g
        return PowerSeries.from_pairs(out)

    return gen


def _tan_series(order: int) -> PowerSeries:
    # sin(x)/cos(x) with cos = sin'
    sin = _FIXED["sin"]
    return sin(order) / sin(order + 1).derivative()


def _fib_series(order: int) -> PowerSeries:
    # x/(1 - x - x^2), Fibonacci numbers from index 1
    out = [(0, 1)] * (order + 1)
    prev, cur = 0, 1
    for n in range(1, order + 1):
        out[n] = cur, 1
        prev, cur = cur, prev + cur
    return PowerSeries.from_pairs(out)


# ---------------------------------------------------------------------------
# registry

# the entries without parameters; every one but tan and fib is a term ratio
# c(n + step)/c(n) = p/q, listed with its coefficient c(n)
_FIXED: dict[str, Callable[[int], PowerSeries]] = {
    # x/(1-x): 1
    "geometric": _term_ratio_series(1, (1, 1), 1, lambda n: (1, 1)),
    # x*e^x: 1/(n-1)!
    "x_exp": _term_ratio_series(1, (1, 1), 1, lambda n: (1, n)),
    # ln(1+x): (-1)^(n+1)/n
    "log1p": _term_ratio_series(1, (1, 1), 1, lambda n: (-n, n + 1)),
    # e^x - 1: 1/n!
    "expm1": _term_ratio_series(1, (1, 1), 1, lambda n: (1, n + 1)),
    # sin(x), odd n: (-1)^((n-1)/2)/n!
    "sin": _term_ratio_series(1, (1, 1), 2, lambda n: (-1, (n + 1) * (n + 2))),
    # x*cos(x), odd n: (-1)^((n-1)/2)/(n-1)!
    "x_cos": _term_ratio_series(1, (1, 1), 2, lambda n: (-1, n * (n + 1))),
    "tan": _tan_series,
    # arctan(x), odd n: (-1)^((n-1)/2)/n
    "arctan": _term_ratio_series(1, (1, 1), 2, lambda n: (-n, n + 2)),
    # arcsin(x), odd n = 2k+1: C(2k,k)/(4^k*(2k+1))
    "arcsin": _term_ratio_series(1, (1, 1), 2, lambda n: (n * n, (n + 1) * (n + 2))),
    # sinh(x), odd n: 1/n!
    "sinh": _term_ratio_series(1, (1, 1), 2, lambda n: (1, (n + 1) * (n + 2))),
    # x*cosh(x), odd n: 1/(n-1)!
    "x_cosh": _term_ratio_series(1, (1, 1), 2, lambda n: (1, n * (n + 1))),
    # sin(x)/x, even n: (-1)^(n/2)/(n+1)!
    "sin_over_x": _term_ratio_series(0, (1, 1), 2, lambda n: (-1, (n + 2) * (n + 3))),
    "fib": _fib_series,
}

# parameterized entries: name -> the coefficient index each parameter
# sets; the arity is the number of indices.  monomial:m is x^m and
# radical:m is 1 - (1-x)^(1/m): each one parameter is a positive integer
# (the exponent, the index), which sets no fixed index.
_PARAMETERIZED: dict[str, tuple[Optional[int], ...]] = {
    "monomial": (None,),
    "radical": (None,),
    "poly2": (1, 2),
    "poly3": (1, 2, 3),
    "poly13": (1, 3),
    "poly124": (1, 2, 4),
    "poly4": (1, 2, 3, 4),
}


def _check_entry(name: str, params: tuple[Fraction, ...]) -> None:
    """Raise UnknownFunction unless ``name`` with ``params`` is a catalog entry."""
    if name in _FIXED:
        if params:
            raise UnknownFunction(f"{name} takes no parameters")
        return
    if name not in _PARAMETERIZED:
        raise UnknownFunction(f"no catalog entry named {name!r}")
    positions = _PARAMETERIZED[name]
    if len(params) != len(positions):
        raise UnknownFunction(f"{name} takes {len(positions)} parameters, got {len(params)}")
    if positions == (None,):
        (m,) = params
        if m.denominator != 1 or m < 1:
            word = "exponent" if name == "monomial" else "index"
            raise UnknownFunction(f"{name} {word} must be a positive integer")


def make_spec(name: str, params: Sequence[CoeffLike] = ()) -> FunctionSpec:
    """Resolve a catalog name plus parameters to a FunctionSpec."""
    spec = FunctionSpec(name, params)
    _check_entry(name, spec.parameters)
    return spec


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse a designator: a catalog name, 'name:p1,p2,...', or a raw
    comma-separated coefficient list such as '0,1,1' (in the grammar of
    ``series.raw_coefficients``), which is read as a polynomial."""
    pairs = raw_coefficients(text)
    if pairs is not None:
        from fractions import Fraction

        return FunctionSpec("raw", [Fraction(*pair) for pair in pairs])
    text = text.strip()
    if ":" in text:
        name, _, arg_text = text.partition(":")
        name = name.strip()
        try:
            params = [parse_rational(p) for p in arg_text.split(",")]
        except ValueError as exc:
            raise UnknownFunction(f"malformed parameters in {text!r} ({exc})") from exc
        return make_spec(name, params)
    return make_spec(text)


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXED)) + tuple(sorted(_PARAMETERIZED))


def catalog_series(spec: FunctionSpec, order: int) -> PowerSeries:
    """Expand the function exactly to the requested truncation order.  A
    spec that ``make_spec`` would refuse raises UnknownFunction."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    name, params = spec.name, spec.parameters
    if name == "raw":
        coeffs: Sequence[CoeffLike] = params
    else:
        _check_entry(name, params)
        if name in _FIXED:
            return _FIXED[name](order)
        if name == "monomial":
            # x^m: no list of m + 1 coefficients, which a large m would make huge
            m = int(params[0])
            return PowerSeries.of([0] * m + [1] if m <= order else [], order=order)
        if name == "radical":
            # 1 - (1-x)^(1/m): c(1) = 1/m, c(n + 1) = c(n) * (n - 1/m)/(n + 1)
            m = int(params[0])
            series = _term_ratio_series(1, (1, m), 1, lambda n: (n * m - 1, m * (n + 1)))
            return series(order)
        positions = _PARAMETERIZED[name]
        coeffs = [0] * (positions[-1] + 1)
        for index, value in zip(positions, params):
            coeffs[index] = value
    return PowerSeries.of(coeffs[: order + 1], order=order)
