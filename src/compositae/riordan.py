"""Riordan arrays (G(x), F(x)) built from the series G and F.

A Riordan array is a ``CompositaTable`` with ``base`` 0: rows and columns
are indexed from (0, 0), where a composita triangle starts at (1, 1).
Column k of the array is G * F^k, so it obeys the composita recurrence
seeded with g(n) in column 0: the row kernel's ``_rows.recurrence``,
which builds every composita triangle as the array (F/x, F) and picks its
route.  The paper's formulas stay as checks in ``theorems``:
``check_riordan_formula`` (each entry as a sum of g(i) times F's
triangle) and ``check_riordan_identity`` (the (F, xF) array shifted by
one is the triangle of xF).  ``riordan_apply`` takes and returns a
series, summing each stored row against B's integer row (``_rows.dot``,
which returns an integer pair), so it builds no ``Fraction``.
"""

from __future__ import annotations

from ._rows import dot, recurrence, scalars
from .errors import InsufficientOrder
from .series import PowerSeries
from .triangle import CompositaTable, _require_base, _table_order


def riordan_build(g: PowerSeries, f: PowerSeries) -> CompositaTable:
    """Array of the pair (G, F), to F's order, from the coefficients of
    G and F (F composable, G known to F's order).

    R(n, 0) = g(n); R(n, k) = sum_{i=1}^{n-k+1} f(i) * R(n-i, k-1) for
    k >= 1, so column k is G * F^k.
    """
    n_max = _table_order(f, None)
    if g.order < n_max:
        raise InsufficientOrder(f"g is needed to order {n_max}, got {g.order}")
    g_terms, f_terms = (scalars(s.int_row, n_max + 1) for s in (g, f))
    return CompositaTable._of(recurrence(g_terms, f_terms, n_max), 0)


def riordan_apply(r: CompositaTable, b: PowerSeries) -> PowerSeries:
    """The series a(n) = sum_{k=0}^{n} R(n, k) b(k), to R's order: the
    coefficients of G(x) * B(F(x))."""
    _require_base("riordan_apply", 0, r)
    if b.order < r.order:
        raise InsufficientOrder(f"b is needed to order {r.order}, got {b.order}")
    nums, den = b.int_row
    values = [(v, den) for v in nums]
    return PowerSeries.from_pairs([dot(row, values) for row in r.int_rows])
