"""Riordan arrays (G(x), F(x)) built from a series G and the triangle of F.

A RiordanTable is indexed from (0, 0), unlike CompositaTable's (1, 1);
``riordan_composita_check`` performs the explicit re-indexing that links
the two (the (F, xF) array shifted by one is the triangle of xF).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ._record import Record
from ._rows import UNIT, combine, fractions_of, scalars, to_row
from .calculus import compose_series
from .errors import InsufficientOrder, OrderMismatch
from .series import PowerSeries, as_rational
from .triangle import CompositaTable, composita_from_series


class RiordanTable(Record):
    """Lower-triangular array R(n, k), 0 <= k <= n <= order.

    ``source`` is a label and takes no part in equality.
    """

    __slots__ = ("rows", "source")
    _key = ("rows",)
    rows: tuple[tuple[Fraction, ...], ...]
    source: str

    BASE_INDEX = 0

    def __init__(self, rows: Iterable[Sequence], source: str = "") -> None:
        coerced = []
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            coerced.append(tuple(as_rational(v) for v in row))
        self._fill(tuple(coerced), source)

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        n, k = key
        if not 0 <= n <= self.order:
            raise IndexError(f"row {n} outside 0..{self.order}")
        if k < 0 or k > n:
            return Fraction(0)
        return self.rows[n][k]

    def row(self, n: int) -> tuple[Fraction, ...]:
        if not 0 <= n <= self.order:
            raise IndexError(f"row {n} outside 0..{self.order}")
        return self.rows[n]

    def entries(self) -> Iterator[tuple[int, int, Fraction]]:
        for n, row in enumerate(self.rows):
            for k, value in enumerate(row):
                yield n, k, value

    def with_entry(self, n: int, k: int, value: Fraction) -> "RiordanTable":
        """Copy with one entry replaced; used for fault injection in tests."""
        if not (0 <= k <= n <= self.order):
            raise IndexError(f"({n}, {k}) outside the triangle")
        rows = [list(r) for r in self.rows]
        rows[n][k] = as_rational(value)
        return RiordanTable(tuple(tuple(r) for r in rows), source=self.source)


def riordan_build(g: PowerSeries, tf: CompositaTable) -> RiordanTable:
    """Array of the pair (G, F) from G's coefficients and F's triangle.

    R(n, 0) = g(n); R(n, k) = sum_{i=0}^{n-k} g(i) * F(n-i, k) for k >= 1.
    Row n is the sum of g(i) times row n - i of F's triangle, taken with
    its column 0 (the unit row T(0, 0) = 1 and zeros below it).
    """
    n_max = tf.order
    if g.order < n_max:
        raise OrderMismatch(f"g is needed to order {n_max}, got {g.order}")
    g_terms = scalars(g.coeffs[: n_max + 1])
    f_rows = [UNIT] + [to_row((Fraction(0),) + row) for row in tf.rows]
    rows = []
    for n in range(0, n_max + 1):
        row = combine(((num, den, f_rows[n - i], 0) for i, num, den in g_terms if i <= n), n + 1)
        rows.append(fractions_of(row))
    return RiordanTable(tuple(rows))


def riordan_apply(r: RiordanTable, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Sequence a(n) = sum_{k=0}^{n} R(n, k) b(k): the coefficients of
    G(x) * B(F(x))."""
    if len(b) < r.order + 1:
        raise InsufficientOrder(f"b needs {r.order + 1} terms, got {len(b)}")
    values = [as_rational(v) for v in b]
    out = []
    for n in range(0, r.order + 1):
        acc = Fraction(0)
        for k in range(0, n + 1):
            bk = values[k]
            if bk:
                acc += r[n, k] * bk
        out.append(acc)
    return tuple(out)


def riordan_apply_series(g: PowerSeries, tf: CompositaTable, b: PowerSeries) -> PowerSeries:
    """Reference route for the same map: G(x) * B(F(x)) via composition
    followed by a series product."""
    return g * compose_series(b, tf)


def riordan_composita_check(f: PowerSeries, order: int) -> bool:
    """True iff the (F, xF) array, renumbered from (1,1), is the triangle
    of xF.  ``f`` provides F from index 0 and must reach ``order``."""
    if f.order < order:
        raise InsufficientOrder(f"f is needed to order {order}, got {f.order}")
    base = f.truncate(order)
    table = composita_from_series(base.times_x(), order + 1)
    rio = riordan_build(base, table.truncated(order))
    return all(
        table[n + 1, k + 1] == value for n, k, value in rio.entries()
    )
