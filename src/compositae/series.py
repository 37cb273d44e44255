"""Truncated formal power series over exact rationals.

A series stores its coefficients c(0), ..., c(N) next to the truncation
order N, and every binary operation truncates its result to the smaller
of the two operand orders, so comparisons are always well defined.
Coefficients are ``fractions.Fraction`` values throughout; nothing in
this package ever rounds.

The comma-separated text format ("0,1,1/2") is read here, by
``raw_coefficients``, the one grammar of the command line interface and of
the catalog's raw designators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from ._record import Record
from .errors import DivisionByNonUnit, UnknownFunction

CoeffLike = Union[Fraction, int, str]


def as_rational(value: CoeffLike) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction; Fractions pass through.
    A string is read in the CLI's grammar (``parse_rational``).  A float
    raises TypeError: it would be stored as its binary expansion
    (0.1 as 3602879701896397/36028797018963968), not the number meant."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; pass a str such as '1/10' or a Fraction")
    return Fraction(value)


class PowerSeries(Record):
    """A power series truncated at ``order = len(coeffs) - 1``."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[CoeffLike]) -> None:
        if not coeffs:
            raise ValueError("a power series needs at least the constant coefficient")
        self._fill(tuple(as_rational(c) for c in coeffs))

    # -- construction -------------------------------------------------

    @classmethod
    def of(cls, values: Iterable[CoeffLike], order: int | None = None) -> PowerSeries:
        """Build a series from coefficients, index 0 first.

        With ``order`` given, the coefficient list is zero padded or cut
        to exactly that order; padding reads the input as a polynomial.
        """
        coeffs = [as_rational(v) for v in values]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(coeffs) < order + 1:
                coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
            else:
                coeffs = coeffs[: order + 1]
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls.of([], order=order)

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.of([1], order=order)

    # -- basic access --------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def truncate(self, order: int) -> PowerSeries:
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        return PowerSeries(self.coeffs[: order + 1])

    def extended(self, order: int) -> PowerSeries:
        """Zero-pad up to ``order``; only exact when the tail really is zero."""
        if order < self.order:
            raise ValueError("extended() cannot shrink a series; use truncate()")
        return PowerSeries.of(self.coeffs, order=order)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: PowerSeries) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)))

    def __neg__(self) -> PowerSeries:
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union[PowerSeries, CoeffLike]) -> PowerSeries:
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = []
            for i in range(n + 1):
                acc = Fraction(0)
                for j in range(i + 1):
                    a = self.coeffs[j]
                    if a:
                        acc += a * other.coeffs[i - j]
                out.append(acc)
            return PowerSeries(tuple(out))
        scalar = as_rational(other)
        return PowerSeries(tuple(c * scalar for c in self.coeffs))

    def __rmul__(self, other: CoeffLike) -> PowerSeries:
        return self.__mul__(other)

    def __pow__(self, k: int) -> PowerSeries:
        """Binary exponentiation; k must be a nonnegative integer."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers take a nonnegative integer exponent")
        result = PowerSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other: Union[PowerSeries, CoeffLike]) -> PowerSeries:
        if isinstance(other, PowerSeries):
            return _divide(self, other)
        scalar = as_rational(other)
        return PowerSeries(tuple(c / scalar for c in self.coeffs))

    # -- calculus -------------------------------------------------------

    def derivative(self) -> PowerSeries:
        """Formal derivative; the truncation order drops by one."""
        if self.order == 0:
            return PowerSeries.zero(0)
        return PowerSeries(tuple((n + 1) * self.coeffs[n + 1] for n in range(self.order)))

    def integral(self) -> PowerSeries:
        """Formal antiderivative with zero constant term; order grows by one."""
        out = [Fraction(0)]
        out.extend(self.coeffs[n] / (n + 1) for n in range(self.order + 1))
        return PowerSeries(tuple(out))

    def times_x(self) -> PowerSeries:
        """Multiply by x exactly; order grows by one."""
        return PowerSeries((Fraction(0),) + self.coeffs)


def _divide(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    if b.coeffs[0] == 0:
        # A shared leading power of x cancels exactly: x/(e^x - 1) is a
        # perfectly good series even though the divisor has no unit term.
        shift = next((i for i, c in enumerate(b.coeffs) if c), None)
        if shift is None:
            raise DivisionByNonUnit("division by the zero series")
        if any(a.coeffs[i] for i in range(min(shift, a.order + 1))) or a.order < shift:
            raise DivisionByNonUnit("series division needs a unit constant term in the divisor")
        return _divide(
            PowerSeries(a.coeffs[shift:]),
            PowerSeries(b.coeffs[shift:]),
        )
    n = min(a.order, b.order)
    unit = b.coeffs[0]
    out: list[Fraction] = []
    for i in range(n + 1):
        acc = a.coeffs[i]
        for j in range(i):
            c = out[j]
            if c:
                acc -= c * b.coeffs[i - j]
        out.append(acc / unit)
    return PowerSeries(tuple(out))


def parse_rational(text: str) -> Fraction:
    """Parse one coefficient: 'p/q', a bare integer or a decimal, in ASCII
    digits with an optional sign.

    Exponent notation ('1e5') is refused before any value is built, so
    that text such as '1e100000000' cannot make a huge integer.  So are
    '_' and non-ASCII text, which ``Fraction`` reads differently from one
    Python version to the next ('1_0' is 10 from 3.11 on) and which take
    digits from other scripts ('٣' is 3).
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    _refuse_separators_and_non_ascii(text)
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc


def parse_int(text: str) -> int:
    """Parse one integer (a CLI order or index, a CSV row or column): ASCII
    digits with an optional sign.  '_' and non-ASCII text are refused as in
    ``parse_rational``; ``int`` alone reads '1_0' as 10 and '٣' as 3."""
    _refuse_separators_and_non_ascii(text)
    return int(text)


def _refuse_separators_and_non_ascii(text: str) -> None:
    if "_" in text or not text.isascii():
        raise ValueError(f"'_' and non-ASCII characters are not accepted: {text!r}")


# A designator made of these alone, not starting with a digit, is a catalog
# name.
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz_0123456789")


def raw_coefficients(text: str) -> list[Fraction] | None:
    """The coefficients of a raw designator such as '0,1,1' (a polynomial,
    index 0 first), or None when ``text`` names a catalog entry ('name' or
    'name:p1,p2,...').

    This is the one grammar of raw designators: ``catalog.parse_function_spec``
    reads them with it, and so does the CLI, which expands a raw list
    without loading the catalog.  Empty text and a list whose parts do not
    parse (see ``parse_rational``) raise ``UnknownFunction``.
    """
    text = text.strip()
    if not text:
        raise UnknownFunction("empty function designator")
    if ":" in text or (set(text) <= _NAME_CHARS and not text[0].isdigit()):
        return None
    try:
        return [parse_rational(p) for p in text.split(",")]
    except ValueError as exc:
        raise UnknownFunction(
            f"not a catalog name or coefficient list: {text!r} ({exc})"
        ) from exc
