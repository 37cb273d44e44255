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

Tables are built through one entry point, ``recurrence``, the Riordan
recurrence: it builds the array (G, F), and with G = F/x every composita
triangle (the array shifted by one).  Where every scalar is an integer and
``tries_packed`` allows it, it tries ``_packed`` first, which packs each
row into one big integer, and it runs ``combine`` otherwise or where
``_packed`` declines.  The one other table that the package builds, the
product of two triangles that forms a composition, is formed in its only
caller, ``calculus.composita_compose``, which asks ``tries_packed`` too,
so that one rule decides every route.

Denominators are per row on purpose: one denominator for a whole table
makes every entry carry the lcm of all of them, which loses badly on
inputs such as x*e^x whose entries have factorial denominators.

A ``PowerSeries`` stores one row of this form too, so the triangle
builders read a series' coefficients as integers: ``scalars`` takes the
nonzero entries of a row, and ``to_row`` makes the row of a list of
``(numerator, denominator)`` pairs.  The transforms that read a table
times a coefficient vector (composition, inversion, a Riordan array
applied to a sequence) sum each row with ``dot``, which takes and returns
integer pairs.  ``Fraction`` values are built only at the boundary, by
``fraction`` (one entry) and ``fractions_of`` (a row, for a caller that
reads a table's or a series' entries), so a call that reads no entry
never imports ``fractions``.
"""

from __future__ import annotations

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
    and ``calculus.composita_compose`` ask, so that one rule decides every
    route.
    Unpacking an entry costs about as much as several terms of
    ``combine``, and a route that packs an input table as well as its own
    rows pays that twice (crossover in CHANGES.md)."""
    return terms >= (12 if packs_input else 5) and terms * rows * rows >= PACKED_MIN_WORK


def canonical(nums: Sequence[int], den: int) -> Row:
    """The canonical row of the entries ``nums[j] / den`` (``den`` > 0)."""
    g = gcd(den, *nums)
    if g > 1:
        return tuple([v // g for v in nums]), den // g
    return tuple(nums), den


def to_row(pairs: Sequence[tuple[int, int]]) -> Row:
    """The canonical row of the values ``num / den`` of ``pairs`` (each
    ``den`` nonzero; a negative one moves its sign to the numerator, since
    ``lcm`` is positive).  Reduced pairs give the least common denominator
    at once; others are reduced by the row's gcd."""
    den = lcm(*(d for _, d in pairs))
    return canonical([n * (den // d) for n, d in pairs], den)


def scalars(row: Row, width: int | None = None) -> Scalars:
    """(index, numerator, denominator) of each nonzero entry among the
    first ``width`` (by default all) of ``row``, reduced with one gcd
    each: the row's denominator is shared by all its entries, and left
    unreduced it would enlarge every lcm of ``combine`` and turn integer
    entries away from packed rows."""
    nums, den = row
    out = []
    for i, v in enumerate(nums[:width]):
        if v:
            g = gcd(v, den)
            out.append((i, v // g, den // g))
    return out


def fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)``.  The first call imports ``fractions`` and
    rebinds this name to ``Fraction`` itself, so that a caller that reads
    entries one by one (through ``_rows.fraction``) runs the import
    statement once, not once per entry, where it would cost as much as
    building the entry."""
    global fraction
    from fractions import Fraction

    fraction = Fraction
    return Fraction(num, den)


def fractions_of(row: Row) -> tuple[Fraction, ...]:
    """The row's entries as reduced ``Fraction`` values."""
    nums, den = row
    return tuple([fraction(v, den) for v in nums])


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
    return canonical(acc, den)


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


def dot(row: Row, values: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Sum of ``nums[j] / den * values[j]`` over the row's entries and the
    ``(numerator, denominator)`` pairs of ``values`` paired, as one integer
    pair over the row's denominator times one lcm of the values'
    denominators (each nonzero, of either sign).  The pair is not reduced;
    an all-zero row gives ``(0, den)``."""
    nums, den = row
    live = [(a * v, d) for a, (v, d) in zip(nums, values) if a]
    common = lcm(*(d for _, d in live))
    return sum([a * (common // d) for a, d in live]), den * common
