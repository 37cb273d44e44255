"""Truncated formal power series over exact rationals.

A series stores its coefficients c(0), ..., c(N) as one canonical integer
row ``int_row = (nums, den)``, the form of the row kernel ``_rows`` and of
a ``CompositaTable``'s rows: c(n) is ``nums[n] / den`` with one positive
denominator and ``gcd(den, *nums) == 1``, so equal series store equal
rows.  ``coeffs`` builds the ``fractions.Fraction`` values on each read,
at O(N) a read, and ``series[n]`` builds one; the triangle builders read
the row itself, so a call that builds a table from integer pairs never
imports ``fractions``.  The quotient, the derivative and the division by
a scalar, which CLI calls run (``reciprocal`` and ``tan``), are here and
work on the integer rows: the quotient keeps its coefficients over one
common denominator, reducing each new one with one gcd, so it builds no
``Fraction`` either.  Sums, products, powers and the integral, which only
the tests and the benchmark's checks run, are plain ``Fraction`` code over
``coeffs`` in ``_arith``, which a process compiles on their first use; the
tests keep the plain ``Fraction`` quotient as the reference that this one
is compared with.  Every binary
operation truncates its result to the smaller of the two operand orders,
so comparisons are always well defined.  Nothing in this package ever
rounds.

The comma-separated text format ("0,1,1/2") is read here, by
``raw_coefficients``, the one grammar of the command line interface and of
the catalog's raw designators; ``parse_pair`` reads each coefficient
straight into an integer pair.
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

from . import _rows
from ._record import Record
from ._rows import Row, canonical, fractions_of, to_row
from .errors import DivisionByNonUnit, UnknownFunction

CoeffLike = Union["Fraction", int, str]

# (numerator, denominator) of one rational, the denominator positive
Pair = tuple[int, int]


def as_rational(value: CoeffLike) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction; Fractions pass through.
    A string is read in the CLI's grammar (``parse_pair``).  A float
    raises TypeError: it would be stored as its binary expansion
    (0.1 as 3602879701896397/36028797018963968), not the number meant."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(*parse_pair(value))
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; pass a str such as '1/10' or a Fraction")
    return Fraction(value)


def as_pair(value: CoeffLike) -> Pair:
    """``as_rational(value)`` as a reduced pair; an int or a str is read
    without building a ``Fraction``.  A caller that holds a ``Fraction``
    has imported ``fractions``, so it is found in ``sys.modules`` rather
    than imported for each value."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, str):
        return parse_pair(value)
    fractions = sys.modules.get("fractions")
    if fractions is None or not isinstance(value, fractions.Fraction):
        value = as_rational(value)
    return value.numerator, value.denominator


class PowerSeries(Record):
    """A power series truncated at ``order``, stored as one canonical
    integer row ``int_row = (nums, den)`` of ``order + 1`` entries."""

    __slots__ = ("int_row",)
    int_row: Row

    def __init__(self, coeffs: Sequence[CoeffLike]) -> None:
        if not coeffs:
            raise ValueError("a power series needs at least the constant coefficient")
        self._fill(to_row([as_pair(c) for c in coeffs]))

    # -- construction -------------------------------------------------

    @classmethod
    def of(cls, values: Iterable[CoeffLike], order: int | None = None) -> PowerSeries:
        """Build a series from coefficients, index 0 first.

        With ``order`` given, the coefficient list is zero padded or cut
        to exactly that order; padding reads the input as a polynomial.
        """
        return cls.from_pairs([as_pair(v) for v in values], order)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Pair], order: int | None = None) -> PowerSeries:
        """``of`` for coefficients given as (numerator, denominator) pairs,
        such as ``raw_coefficients`` reads (each denominator nonzero; see
        ``_rows.to_row``)."""
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            pairs = list(pairs[: order + 1]) + [(0, 1)] * (order + 1 - len(pairs))
        if not pairs:
            raise ValueError("a power series needs at least the constant coefficient")
        return cls._of(to_row(pairs))

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls.from_pairs([], order=order)

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.from_pairs([(1, 1)], order=order)

    # -- basic access --------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c(0), ..., c(order) as ``Fraction`` values, built on each read:
        read it once per function, not in a loop."""
        return fractions_of(self.int_row)

    @property
    def order(self) -> int:
        return len(self.int_row[0]) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside truncation order {self.order}")
        nums, den = self.int_row
        return _rows.fraction(nums[n], den)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def truncate(self, order: int) -> PowerSeries:
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        nums, den = self.int_row
        return PowerSeries._of(canonical(nums[: order + 1], den))

    def extended(self, order: int) -> PowerSeries:
        """Zero-pad up to ``order``; only exact when the tail really is zero."""
        if order < self.order:
            raise ValueError("extended() cannot shrink a series; use truncate()")
        nums, den = self.int_row
        return PowerSeries._of((nums + (0,) * (order - self.order), den))

    # -- ring operations ------------------------------------------------
    # Sums, products, powers and the integral, which no CLI call runs, are
    # in ``_arith``, compiled on their first use.

    def __add__(self, other: PowerSeries) -> PowerSeries:
        from ._arith import add

        return add(self, other)

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        from ._arith import subtract

        return subtract(self, other)

    def __neg__(self) -> PowerSeries:
        nums, den = self.int_row
        return PowerSeries._of((tuple([-v for v in nums]), den))

    def __mul__(self, other: Union[PowerSeries, CoeffLike]) -> PowerSeries:
        from ._arith import multiply

        return multiply(self, other)

    def __rmul__(self, other: CoeffLike) -> PowerSeries:
        return self.__mul__(other)

    def __pow__(self, k: int) -> PowerSeries:
        """Binary exponentiation; k must be a nonnegative integer."""
        from ._arith import power

        return power(self, k)

    def __truediv__(self, other: Union[PowerSeries, CoeffLike]) -> PowerSeries:
        if not isinstance(other, PowerSeries):
            other = PowerSeries.from_pairs([as_pair(other)], self.order)
        return _divide(self, other)

    # -- calculus -------------------------------------------------------

    def derivative(self) -> PowerSeries:
        """Formal derivative; the truncation order drops by one."""
        if self.order == 0:
            return PowerSeries.zero(0)
        nums, den = self.int_row
        return PowerSeries._of(canonical([n * nums[n] for n in range(1, len(nums))], den))

    def integral(self) -> PowerSeries:
        """Formal antiderivative with zero constant term; order grows by one."""
        from ._arith import integral

        return integral(self)

    def times_x(self) -> PowerSeries:
        """Multiply by x exactly; order grows by one."""
        nums, den = self.int_row
        return PowerSeries._of(((0,) + nums, den))


def _divide(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    (a_nums, a_den), (b_nums, b_den) = a.int_row, b.int_row
    # A shared leading power of x cancels exactly: x/(e^x - 1) is a
    # perfectly good series even though the divisor has no unit term.
    shift = next((i for i, c in enumerate(b_nums) if c), None)
    if shift is None:
        raise DivisionByNonUnit("division by the zero series")
    if any(a_nums[:shift]) or a.order < shift:
        raise DivisionByNonUnit("series division needs a unit constant term in the divisor")
    a_nums, b_nums = a_nums[shift:], b_nums[shift:]
    # q = a_nums / b_nums with its numerators over one common denominator,
    # the lcm of those of its reduced coefficients (common // den carries
    # the sign of b(0)); the quotient is q * b_den / a_den.
    q: list[int] = []
    common = 1
    for i in range(min(len(a_nums), len(b_nums))):
        num = a_nums[i] * common - sum(map(mul, q, b_nums[i:0:-1]))
        g = gcd(num, common * b_nums[0])
        den = common * b_nums[0] // g
        scale = lcm(common, den) // common
        if scale > 1:
            q = [v * scale for v in q]
            common *= scale
        q.append(num // g * (common // den))
    return PowerSeries._of(canonical([v * b_den for v in q], common * a_den))


def parse_pair(text: str) -> Pair:
    """Read one coefficient into a reduced pair (numerator, denominator),
    the denominator positive, without building a ``Fraction``.

    The grammar, the same on every supported Python: optional whitespace,
    an optional sign, then either ASCII digits, '/' and ASCII digits (a
    fraction), or ASCII digits with an optional '.' and more digits (a
    decimal, one side of the point possibly empty), then optional
    whitespace.  Text that does not match is refused with the message
    ``Fraction`` gives it, and a zero denominator as such.  ``Fraction``
    itself reads text differently from one Python version to the next,
    which is why it is not used:

    * exponent notation ('1e5') is refused before any value is built, so
      that text such as '1e100000000' cannot make a huge integer;
    * '_' and non-ASCII text are refused: ``Fraction`` reads '1_0' as 10
      from 3.11 on, and digits from other scripts ('٣' as 3);
    * spaces around '/' are refused: ``Fraction`` reads '1 / 2' from 3.12
      on.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    _refuse_separators_and_non_ascii(text)
    body = text.strip()
    sign = body[:1]
    if sign in ("+", "-"):
        body = body[1:]
    whole, slash, den_text = body.partition("/")
    if slash:
        if not (whole.isdigit() and den_text.isdigit()):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        num, den = int(whole), int(den_text)
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
    else:
        whole, _, decimals = body.partition(".")
        if not (whole or decimals) or not all(p.isdigit() for p in (whole, decimals) if p):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        den = 10 ** len(decimals)
        num = int(whole or "0") * den + int(decimals or "0")
    g = gcd(num, den)
    return (-num // g if sign == "-" else num // g), den // g


def parse_rational(text: str) -> Fraction:
    """``parse_pair(text)`` as a ``Fraction``."""
    from fractions import Fraction

    return Fraction(*parse_pair(text))


def parse_int(text: str) -> int:
    """Parse one integer (a CLI order or index, a CSV row or column): ASCII
    digits with an optional sign.  '_' and non-ASCII text are refused as in
    ``parse_pair``; ``int`` alone reads '1_0' as 10 and '٣' as 3."""
    _refuse_separators_and_non_ascii(text)
    return int(text)


def _refuse_separators_and_non_ascii(text: str) -> None:
    if "_" in text or not text.isascii():
        raise ValueError(f"'_' and non-ASCII characters are not accepted: {text!r}")


# A designator made of these alone, not starting with a digit, is a catalog
# name.
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz_0123456789")


def raw_coefficients(text: str) -> list[Pair] | None:
    """The coefficients of a raw designator such as '0,1,1' (a polynomial,
    index 0 first) as reduced integer pairs (``parse_pair``), or None when
    ``text`` names a catalog entry ('name' or 'name:p1,p2,...').

    This is the one grammar of raw designators: ``catalog.parse_function_spec``
    reads them with it, and so does the CLI, which expands a raw list
    without loading the catalog.  Empty text and a list whose parts do not
    parse (see ``parse_pair``) raise ``UnknownFunction``.
    """
    text = text.strip()
    if not text:
        raise UnknownFunction("empty function designator")
    if ":" in text or (set(text) <= _NAME_CHARS and not text[0].isdigit()):
        return None
    try:
        return [parse_pair(p) for p in text.split(",")]
    except ValueError as exc:
        raise UnknownFunction(
            f"not a catalog name or coefficient list: {text!r} ({exc})"
        ) from exc
