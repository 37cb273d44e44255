"""Integer row kernel behind the triangle loops and the stored tables.

A row is a pair ``(nums, den)``: the entries are ``nums[j] / den`` with
one positive denominator for the whole row, kept canonical (``den`` is
the lcm of the entries' reduced denominators, so ``gcd(den, *nums)`` is
1 and a zero row has ``den == 1``).  ``combine`` forms a linear
combination of shifted rows with rational scalars: it takes one lcm of
the term denominators, sums with plain integer multiply-adds, and reduces
the finished row with one gcd sweep.  That replaces one ``Fraction`` gcd
and allocation per ``+=`` with a few per row.  A ``CompositaTable`` stores
these rows as the kernel makes them.

Tables are built through two entry points.  ``recurrence`` is the
Riordan recurrence: it builds the array (G, F), and with G = F/x every
composita triangle (the array shifted by one).  ``product``, the product
of two lower-triangular tables, forms a composition.  Each one decides
its own route: where every scalar and row is an integer and ``tries_packed``
allows it, it tries ``_packed`` first, which packs each row into one big
integer, and it runs ``combine`` otherwise or where ``_packed`` declines.
No other module imports ``_packed``.

Denominators are per row on purpose: one denominator for a whole table
makes every entry carry the lcm of all of them, which loses badly on
inputs such as x*e^x whose entries have factorial denominators.

``Fraction`` values are converted at the boundary: ``to_row`` and
``scalars`` on the way in, ``fractions_of`` on the way out (for a caller
that reads a table's entries), and ``dot`` for the sum of a row's entries
times ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

Row = tuple[tuple[int, ...], int]

# (scalar numerator, scalar denominator, row, shift): the term
# scalar * x^shift * row, where entry j of the row lands at column j + shift.
Term = tuple[int, int, Row, int]

# (index, numerator, denominator) of each nonzero coefficient of a series.
Scalars = list[tuple[int, int, int]]

UNIT: Row = ((1,), 1)

# Integer tables are tried on packed rows (``_packed``) only where the
# nonzero terms per row times the rows squared reach this: below it,
# importing ``_packed`` (about 2 ms per process, mostly compiling it)
# costs more than packing saves (crossover in CHANGES.md).
PACKED_MIN_WORK = 30_000


def tries_packed(terms: int, rows: int, packs_input: bool) -> bool:
    """Whether an integer table of ``rows`` rows, each the sum of at most
    ``terms`` nonzero terms, is tried on packed rows.  Only ``recurrence``
    and ``product`` ask, so that one rule decides every route.
    Unpacking an entry costs about as much as several terms of
    ``combine``, and a route that packs an input table as well as its own
    rows pays that twice (crossover in CHANGES.md)."""
    return terms >= (12 if packs_input else 5) and terms * rows * rows >= PACKED_MIN_WORK


def to_row(values: Sequence[Fraction]) -> Row:
    """The canonical row holding ``values``."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def scalars(values: Sequence[Fraction]) -> Scalars:
    """(index, numerator, denominator) of each nonzero value."""
    return [(i, v.numerator, v.denominator) for i, v in enumerate(values) if v]


def fractions_of(row: Row) -> tuple[Fraction, ...]:
    """The row's entries as reduced ``Fraction`` values."""
    nums, den = row
    return tuple(Fraction(v, den) for v in nums)


def combine(terms: Iterable[Term], width: int) -> Row:
    """Sum of ``s * x^shift * row`` over ``terms``, cut to ``width`` entries.

    Terms with a zero scalar or a shift at or past ``width`` are skipped;
    entries shifted past ``width`` are dropped.  Scalars need not be
    reduced: the result is canonical.
    """
    live = [t for t in terms if t[0] and t[3] < width]
    den = lcm(*(s_den * row[1] for _, s_den, row, _ in live))
    acc = [0] * width
    for s_num, s_den, (nums, row_den), shift in live:
        scale = s_num * (den // (s_den * row_den))
        end = shift + len(nums)
        if end > width:
            nums = nums[: width - shift]
            end = width
        acc[shift:end] = map(add, acc[shift:end], map(mul, nums, repeat(scale)))
    g = gcd(den, *acc)
    if g > 1:
        return tuple([v // g for v in acc]), den // g
    return tuple(acc), den


def recurrence(g_terms: Scalars, f_terms: Scalars, n_max: int) -> tuple[Row, ...]:
    """Rows 0..n_max of the Riordan array (G, F), from the nonzero
    ``(i, numerator, denominator)`` terms of G and F (``scalars``).

    Row n is g(n) in column 0 plus the sum of f(i) times row n - i
    shifted one column right, so column k is G * F^k.  The triangle of F
    is the array (F/x, F) shifted by one (``composita_from_series``).
    """
    if tries_packed(len(f_terms), n_max + 1, False) and all(den == 1 for _, _, den in g_terms + f_terms):
        from ._packed import recurrence_rows

        packed = recurrence_rows(g_terms, f_terms, n_max)
        if packed is not None:
            return packed
    seeds = {i: (num, den, UNIT, 0) for i, num, den in g_terms}
    rows = []
    for n in range(n_max + 1):
        terms = [(num, den, rows[n - i], 1) for i, num, den in f_terms if i <= n]
        rows.append(combine([seeds.get(n, (0, 1, UNIT, 0)), *terms], n + 1))
    return tuple(rows)


def product(left: Sequence[Row], right: Sequence[Row]) -> tuple[Row, ...]:
    """Rows of the lower-triangular product of two tables: row n is the
    sum of ``left[n][k]`` times ``right[k]``, as wide as ``left[n]``.

    The work is estimated as the nonzero entries of the densest left row
    times the rows below the first, squared (row 0 is one scalar times
    one row).  On ``combine`` each scalar is reduced first, so that the
    row's denominator enters the lcm only as far as each entry needs it.
    """
    if all(den == 1 for _, den in left) and all(den == 1 for _, den in right):
        densest = max(len(nums) - nums.count(0) for nums, _ in left)
        if tries_packed(densest, len(left) - 1, True):
            from ._packed import product_rows

            packed = product_rows(left, right)
            if packed is not None:
                return packed
    rows = []
    for nums, den in left:
        terms = []
        for a, row in zip(nums, right):
            if a:
                g = gcd(a, den)
                terms.append((a // g, den // g, row, 0))
        rows.append(combine(terms, len(nums)))
    return tuple(rows)


def dot(row: Row, values: Iterable[Fraction]) -> Fraction:
    """Sum of ``nums[j] / den * values[j]`` over the row's entries and
    ``values`` paired, over one lcm of the values' denominators."""
    nums, den = row
    live = [(a * v.numerator, v.denominator) for a, v in zip(nums, values) if a]
    common = lcm(*(b for _, b in live))
    return Fraction(sum(a * (common // b) for a, b in live), den * common)
