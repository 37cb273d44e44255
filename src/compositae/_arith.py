"""The series arithmetic that no CLI call runs: sums, products, powers and
the integral, in plain ``Fraction`` code over ``PowerSeries.coeffs``.

This is a route that shares no code with the row kernel's ``combine``,
so that the tests and the benchmark's checks can compare the kernel with
it.  (The quotient and the derivative, which CLI calls run, work on the
integer rows in ``series``.)  The operators of
``PowerSeries`` import these functions when they run, so a CLI call,
which never sums or multiplies series, never compiles this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ._rows import to_row
from .series import CoeffLike, PowerSeries, as_rational


def _exact(values: Sequence[Fraction]) -> PowerSeries:
    """The series of ``Fraction`` (or int) coefficients ``values``."""
    return PowerSeries._of(to_row([v.as_integer_ratio() for v in values]))


def add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    if not isinstance(b, PowerSeries):
        return NotImplemented
    return _exact([x + y for x, y in zip(a.coeffs, b.coeffs)])


def subtract(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    if not isinstance(b, PowerSeries):
        return NotImplemented
    return _exact([x - y for x, y in zip(a.coeffs, b.coeffs)])


def convolve(x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
    """The coefficients of the product of the series with coefficients
    ``x`` and ``y``, to the shorter's order."""
    out = []
    for i in range(min(len(x), len(y))):
        acc = Fraction(0)
        for j in range(i + 1):
            c = x[j]
            if c:
                acc += c * y[i - j]
        out.append(acc)
    return out


def multiply(a: PowerSeries, b: Union[PowerSeries, CoeffLike]) -> PowerSeries:
    if isinstance(b, PowerSeries):
        return _exact(convolve(a.coeffs, b.coeffs))
    scalar = as_rational(b)
    return _exact([c * scalar for c in a.coeffs])


def power(a: PowerSeries, k: int) -> PowerSeries:
    """Binary exponentiation, through the series product; k must be a
    nonnegative integer."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("series powers take a nonnegative integer exponent")
    result = PowerSeries.one(a.order)
    base = a
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def integral(a: PowerSeries) -> PowerSeries:
    return _exact([0] + [c / (n + 1) for n, c in enumerate(a.coeffs)])
