"""Composita triangles of generating functions that vanish at the origin.

For F(x) = f(1)x + f(2)x^2 + ... the composita value at (n, k) is the sum,
over all compositions of n into exactly k positive parts, of the products
f(part_1) * ... * f(part_k).  Equivalently it is the coefficient of x^n in
F(x)^k, so the triangle rows 1 <= k <= n <= N collect the coefficients of
all truncated powers of F at once.

Three independent construction routes are provided:

* ``composita_oracle``     - literal enumeration of compositions (slow,
                             exponential; meant as a ground truth for tests
                             up to roughly n = 14),
* ``composita_from_series``- the triangle recurrence
                             T(n, 1) = f(n),
                             T(n, k) = sum_{i=1}^{n-k+1} f(i) T(n-i, k-1),
                             run by the row kernel (``_rows.recurrence``,
                             which picks packed rows or ``combine``) as
                             the Riordan array (F/x, F), whose entry
                             (n, k) is [x^n] (F^(k+1) / x) = T(n+1, k+1),
* ``composita_from_powers``- direct coefficient extraction from F^k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence

from ._record import Record
from ._rows import Row, fractions_of, recurrence, scalars, to_row
from .errors import InsufficientOrder, NonzeroConstantTerm
from .series import PowerSeries, as_rational


class CompositaTable(Record):
    """Lower-triangular table T(n, k) for base <= k <= n <= order.

    A composita triangle is indexed from (1, 1) (``base`` 1, the default),
    a Riordan array from (0, 0) (``base`` 0); the base takes part in
    equality, so the two never compare equal.

    The table stores its rows in the row kernel's canonical form
    (``_rows``): row n is ``(nums, den)``, one positive denominator with
    ``gcd(den, *nums) == 1``, so equal tables store equal rows.  The
    constructor takes ``Fraction``, ``int`` or ``str`` entries; the
    producers hand in kernel rows through ``_of``.  ``rows``, an
    entry, a row, a column and ``entries`` are read as ``Fraction``
    values, built on each read.
    """

    __slots__ = ("int_rows", "base")
    int_rows: tuple[Row, ...]
    base: int

    def __init__(self, rows: Iterable[Sequence], base: int = 1) -> None:
        if base not in (0, 1):
            raise ValueError(f"a table is indexed from 0 or 1, not {base!r}")
        int_rows = []
        for offset, row in enumerate(rows):
            if len(row) != offset + 1:
                raise ValueError(
                    f"row {offset + base} must carry exactly {offset + 1} entries, got {len(row)}"
                )
            int_rows.append(to_row([as_rational(v) for v in row]))
        if not int_rows:
            raise ValueError("a table needs at least one row")
        self._fill(tuple(int_rows), base)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every entry as a ``Fraction``, row by row, built on each read."""
        return tuple(map(fractions_of, self.int_rows))

    @property
    def order(self) -> int:
        return len(self.int_rows) - 1 + self.base

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        n, k = index
        base = self.base
        if not base <= n < len(self.int_rows) + base:
            raise IndexError(f"row {n} outside table of order {self.order}")
        if k < base or k > n:
            return Fraction(0)
        nums, den = self.int_rows[n - base]
        return Fraction(nums[k - base], den)

    def row(self, n: int) -> tuple[Fraction, ...]:
        if not self.base <= n <= self.order:
            raise IndexError(f"row {n} outside table of order {self.order}")
        return fractions_of(self.int_rows[n - self.base])

    def column(self, k: int) -> tuple[Fraction, ...]:
        """Entries (n, k) for n = k..order."""
        base = self.base
        if not base <= k <= self.order:
            raise IndexError(f"column {k} outside table of order {self.order}")
        return tuple(Fraction(nums[k - base], den) for nums, den in self.int_rows[k - base :])

    def entries(self) -> Iterator[tuple[int, int, Fraction]]:
        for n, (nums, den) in enumerate(self.int_rows, self.base):
            for k, value in enumerate(nums, self.base):
                yield n, k, Fraction(value, den)

    def truncated(self, order: int) -> CompositaTable:
        if not self.base <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} table to order {order}")
        return self._of(self.int_rows[: order - self.base + 1], self.base)

    def with_entry(self, n: int, k: int, value: Fraction) -> CompositaTable:
        """Copy of the table with one entry replaced (used for fault injection)."""
        base = self.base
        if not base <= k <= n <= self.order:
            raise IndexError(f"entry ({n}, {k}) outside table of order {self.order}")
        rows = [list(row) for row in self.rows]
        rows[n - base][k - base] = value
        return CompositaTable(rows, base)


def _require_composable(f: PowerSeries) -> None:
    if f.coeffs[0] != 0:
        raise NonzeroConstantTerm(
            "compositae are defined only for series with zero constant term"
        )


def _table_order(f: PowerSeries, order: int | None) -> int:
    """The order of the triangle to build from ``f``: ``order``, or by
    default ``f.order``, after checking that ``f`` is composable and known
    that far."""
    _require_composable(f)
    n_max = f.order if order is None else order
    if n_max < 1:
        raise ValueError("a composita table needs order >= 1")
    if n_max > f.order:
        raise InsufficientOrder(
            f"series only known to order {f.order}, table of order {n_max} requested"
        )
    return n_max


# The most composition prefixes composita_oracle may have to enumerate: a
# second or two of work (n = 1200, k = 1199 has 719,399).
ORACLE_MAX_PREFIXES = 10**6

# The most entries a table built for one call may hold when its size grows
# with an exponent as well as with the order: the power table of
# funceq.solve_functional_equation and the triangle of the funceq sweep.
MAX_TABLE_ENTRIES = 10**6


def composita_oracle(f: PowerSeries, n: int, k: int) -> Fraction:
    """Sum of coefficient products over all k-part compositions of n.

    Exponential-time reference implementation; use it to cross-check the
    fast routes on small inputs only.  The enumeration visits at most
    C(n, k - 1) - 1 prefixes of compositions (all of them for a dense F),
    and a call where that bound exceeds ``ORACLE_MAX_PREFIXES`` raises
    ValueError before it starts.
    """
    _require_composable(f)
    if n > f.order:
        raise InsufficientOrder(f"series only known to order {f.order}, asked about n={n}")
    if not 1 <= k <= n:
        raise ValueError("the part count k must satisfy 1 <= k <= n")
    prefixes = comb(n, k - 1) - 1
    if prefixes > ORACLE_MAX_PREFIXES:
        raise ValueError(
            f"the oracle would enumerate up to {prefixes} composition prefixes for"
            f" n={n}, k={k}; its cap is {ORACLE_MAX_PREFIXES}"
        )
    coeffs = f.coeffs
    total = Fraction(0)
    # Depth first over the parts chosen so far, with an explicit stack: a
    # composition has up to n parts, more than the recursion limit allows.
    stack = [(n, k, Fraction(1))]  # (remaining sum, parts left, product so far)
    while stack:
        remaining, parts, acc = stack.pop()
        if parts == 1:
            total += acc * coeffs[remaining]
            continue
        # each of the remaining parts needs at least 1
        for part in range(1, remaining - parts + 2):
            c = coeffs[part]
            if c:
                stack.append((remaining - part, parts - 1, acc * c))
    return total


def composita_from_series(f: PowerSeries, order: int | None = None) -> CompositaTable:
    """Build the triangle by the composita recurrence: rows 1..N are rows
    0..N - 1 of the Riordan array (F/x, F), whose column k - 1 is
    F^k / x."""
    n_max = _table_order(f, order)
    f_terms = scalars(f.coeffs[: n_max + 1])
    return CompositaTable._of(recurrence([(i - 1, num, den) for i, num, den in f_terms], f_terms, n_max - 1), 1)


def composita_from_powers(f: PowerSeries, order: int | None = None) -> CompositaTable:
    """Build the triangle by reading coefficients off the powers F^k."""
    n_max = _table_order(f, order)
    base = f if f.order == n_max else f.truncate(n_max)
    rows = [[Fraction(0)] * (n + 1) for n in range(n_max)]
    power = base
    for k in range(1, n_max + 1):
        for n in range(k, n_max + 1):
            rows[n - 1][k - 1] = power.coeffs[n]
        if k < n_max:
            power = power * base
    return CompositaTable(tuple(tuple(row) for row in rows))


def series_from_composita(table: CompositaTable) -> PowerSeries:
    """Recover the source series from the first column (constant term 0)."""
    return PowerSeries((Fraction(0),) + table.column(1))
